//===- bench/BenchUtil.h - Shared helpers for experiment harnesses -*- C++ -*-===//
///
/// \file
/// Common plumbing for the per-table/figure reproduction harnesses: parse
/// a workload, apply a pass line, measure on a uarch model, and print
/// paper-vs-measured rows. Every bench binary prints the rows of the
/// corresponding paper artifact; EXPERIMENTS.md records the comparison.
///
/// parseOrDie, applyPasses and measure come in two forms: over the
/// internal IR, and over the public facade (mao/Mao.h, the overloads that
/// take a Session). Benches on the facade exercise the surface an
/// external embedder uses and double as integration coverage for it.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_BENCH_BENCHUTIL_H
#define MAO_BENCH_BENCHUTIL_H

#include "asm/Parser.h"
#include "mao/Mao.h"
#include "pass/MaoPass.h"
#include "support/Options.h"
#include "uarch/Runner.h"
#include "workload/Workload.h"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace maobench {

using namespace mao;

/// Parses assembly, aborting the bench on failure.
inline MaoUnit parseOrDie(const std::string &Asm) {
  auto UnitOr = parseAssembly(Asm);
  if (!UnitOr.ok()) {
    std::fprintf(stderr, "bench: parse error: %s\n", UnitOr.message().c_str());
    std::exit(1);
  }
  return std::move(*UnitOr);
}

/// Runs a ':'-separated pass line over the unit; returns total transforms.
inline unsigned applyPasses(MaoUnit &Unit, const std::string &PassLine) {
  linkAllPasses();
  std::vector<PassRequest> Requests;
  if (MaoStatus S = parseMaoOption(PassLine, Requests)) {
    std::fprintf(stderr, "bench: bad pass line '%s': %s\n", PassLine.c_str(),
                 S.message().c_str());
    std::exit(1);
  }
  PipelineResult Result = runPasses(Unit, Requests);
  if (!Result.Ok) {
    std::fprintf(stderr, "bench: %s\n", Result.Error.c_str());
    std::exit(1);
  }
  unsigned Total = 0;
  for (const auto &[Name, Count] : Result.Counts)
    Total += Count;
  return Total;
}

/// Measures bench_main cycles on the given machine model.
inline PmuCounters measure(MaoUnit &Unit, const ProcessorConfig &Config,
                           const std::string &Entry = "bench_main") {
  MeasureOptions Options;
  Options.Config = Config;
  Options.MaxSteps = 50'000'000;
  auto Result = measureFunction(Unit, Entry, Options);
  if (!Result.ok()) {
    std::fprintf(stderr, "bench: measurement failed: %s\n",
                 Result.message().c_str());
    std::exit(1);
  }
  return Result->Pmu;
}

/// Parses assembly through the facade, aborting the bench on failure.
inline api::Program parseOrDie(api::Session &Session, const std::string &Asm) {
  api::Program Program;
  if (api::Status S = Session.parseText(Asm, "<bench>", Program); !S.Ok) {
    std::fprintf(stderr, "bench: parse error: %s\n", S.Message.c_str());
    std::exit(1);
  }
  return Program;
}

/// Runs a classic ':'-separated pass line through the facade; returns
/// total transformations.
inline unsigned applyPasses(api::Session &Session, api::Program &Program,
                            const std::string &PassLine) {
  std::vector<api::PassSpec> Pipeline;
  if (api::Status S = api::Session::parseClassicSpec(PassLine, Pipeline);
      !S.Ok) {
    std::fprintf(stderr, "bench: bad pass line '%s': %s\n", PassLine.c_str(),
                 S.Message.c_str());
    std::exit(1);
  }
  api::OptimizeResult Result =
      Session.optimize(Program, Pipeline, api::OptimizeOptions());
  if (!Result.Ok) {
    std::fprintf(stderr, "bench: %s\n", Result.Error.c_str());
    std::exit(1);
  }
  return Result.TotalTransformations;
}

/// Measures bench_main on the named machine model through the facade.
inline api::MeasureSummary measure(api::Session &Session,
                                   api::Program &Program,
                                   const std::string &Config,
                                   const std::string &Entry = "bench_main") {
  api::MeasureRequest Request;
  Request.Function = Entry;
  Request.Config = Config;
  api::MeasureSummary Summary;
  if (api::Status S = Session.measure(Program, Request, Summary); !S.Ok) {
    std::fprintf(stderr, "bench: measurement failed: %s\n",
                 S.Message.c_str());
    std::exit(1);
  }
  return Summary;
}

/// Percent improvement of Optimized over Base (positive = faster).
inline double percentGain(uint64_t Base, uint64_t Optimized) {
  if (Base == 0)
    return 0.0;
  return 100.0 * (static_cast<double>(Base) - static_cast<double>(Optimized)) /
         static_cast<double>(Base);
}

/// Generates a benchmark's workload, measures base vs. pass-optimized
/// cycles on \p Config, and returns the percent gain.
inline double benchmarkDelta(const std::string &Benchmark,
                             const std::string &PassLine,
                             const ProcessorConfig &Config) {
  const WorkloadSpec *Spec = findBenchmarkProfile(Benchmark);
  if (!Spec) {
    std::fprintf(stderr, "bench: unknown benchmark %s\n", Benchmark.c_str());
    std::exit(1);
  }
  std::string Asm = generateWorkloadAssembly(*Spec);
  MaoUnit Base = parseOrDie(Asm);
  MaoUnit Opt = parseOrDie(Asm);
  applyPasses(Opt, PassLine);
  uint64_t C0 = measure(Base, Config).CpuCycles;
  uint64_t C1 = measure(Opt, Config).CpuCycles;
  return percentGain(C0, C1);
}

/// Prints one paper-vs-measured row.
inline void printRow(const std::string &Label, double PaperPct,
                     double MeasuredPct) {
  std::printf("%-22s paper: %+7.2f%%   measured: %+7.2f%%\n", Label.c_str(),
              PaperPct, MeasuredPct);
}

inline void printHeader(const std::string &Title) {
  std::printf("==== %s ====\n", Title.c_str());
}

} // namespace maobench

#endif // MAO_BENCH_BENCHUTIL_H
