//===- bench/bench_core.cpp - Throughput core: parse/pipeline/relax -----------===//
//
// The throughput trajectory for the arena-IR + zero-copy-parse work, in one
// binary and five headline metrics (all in BENCH_core.json):
//
//  - parse MB/s of the single-pass string_view lexer, on the repo's
//    examples corpus and on a larger synthetic corpus. The committed
//    BENCH_core.json is the reference to compare against.
//  - pipeline instructions/s/core: the standard peephole+sched pass line
//    at --mao-jobs=1 over the synthetic corpus.
//  - relaxation convergence: the wall-clock and passes of one relaxation
//    of the synthetic corpus.
//  - IR footprint: the unit arena's bytes per entry after parsing the
//    synthetic corpus (one list node per entry; the trajectory gate caps
//    it at 192).
//  - cross-jobs byte-identity: the emitted assembly at jobs 1/2/4 must be
//    identical (jobs_byte_identical is 1 when it holds; the tier-1
//    pipeline tests enforce the same invariant, this records it in the
//    trajectory).
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "BenchUtil.h"

#include "analysis/Relaxer.h"
#include "asm/AsmEmitter.h"
#include "support/FileIO.h"
#include "support/Stats.h"

#include <chrono>
#include <filesystem>

using namespace maobench;

namespace {

using Clock = std::chrono::steady_clock;

/// Best-of-N wall-clock of \p Fn in seconds (min absorbs scheduler noise
/// better than mean on a shared machine).
template <typename F> double bestSeconds(unsigned Reps, F &&Fn) {
  double Best = 1e300;
  for (unsigned I = 0; I < Reps; ++I) {
    const Clock::time_point T0 = Clock::now();
    Fn();
    Best = std::min(Best,
                    std::chrono::duration<double>(Clock::now() - T0).count());
  }
  return Best;
}

/// Every .s file under the examples directory, as (name, content) pairs.
/// Looked up relative to the working directory and one level up, so the
/// bench works from both the build tree and the repo root; falls back to
/// the synthetic corpus when the directory is absent.
std::vector<std::pair<std::string, std::string>>
loadExamples(int argc, char **argv) {
  namespace fs = std::filesystem;
  std::string Dir;
  const std::string_view Flag = "--examples=";
  for (int I = 1; I < argc; ++I) {
    std::string_view Arg = argv[I];
    if (Arg.substr(0, Flag.size()) == Flag)
      Dir = std::string(Arg.substr(Flag.size()));
  }
  if (Dir.empty())
    for (const char *Candidate : {"examples", "../examples"})
      if (fs::is_directory(Candidate)) {
        Dir = Candidate;
        break;
      }
  std::vector<std::pair<std::string, std::string>> Files;
  if (Dir.empty())
    return Files;
  for (const fs::directory_entry &Entry : fs::directory_iterator(Dir)) {
    if (Entry.path().extension() != ".s")
      continue;
    std::string Text;
    if (mao::readWholeFile(Entry.path().string(), Text) && !Text.empty())
      Files.emplace_back(Entry.path().filename().string(), std::move(Text));
  }
  std::sort(Files.begin(), Files.end());
  return Files;
}

/// Parses every corpus file \p Loops times and returns MB/s of input text
/// consumed.
double parseThroughputMbs(
    const std::vector<std::pair<std::string, std::string>> &Corpus,
    unsigned Loops) {
  double Bytes = 0;
  for (const auto &[Name, Text] : Corpus)
    Bytes += static_cast<double>(Text.size());
  const double Seconds = bestSeconds(3, [&] {
    for (unsigned I = 0; I < Loops; ++I)
      for (const auto &[Name, Text] : Corpus) {
        auto Unit = parseAssembly(Text);
        if (!Unit.ok()) {
          std::fprintf(stderr, "bench: parse of %s failed: %s\n",
                       Name.c_str(), Unit.message().c_str());
          std::exit(1);
        }
        benchmark::DoNotOptimize(Unit->entries().size());
      }
  });
  return Seconds > 0 ? Bytes * Loops / Seconds / (1024.0 * 1024.0) : 0.0;
}

} // namespace

int main(int argc, char **argv) {
  BenchReport Report("core");
  printHeader("Throughput core: parse / pipeline / relaxation trajectory");

  // --- Parse throughput. -----------------------------------------------
  auto Examples = loadExamples(argc, argv);
  const bool HaveExamples = !Examples.empty();
  if (!HaveExamples)
    std::printf("examples/ not found; using the synthetic corpus for the "
                "headline\n");

  WorkloadSpec Spec = googleCorpusProfile(0.05);
  std::vector<std::pair<std::string, std::string>> Synthetic;
  Synthetic.emplace_back("synthetic-corpus", generateWorkloadAssembly(Spec));
  const auto &Headline = HaveExamples ? Examples : Synthetic;
  // Small corpus => many loops; the big one gets few.
  const unsigned HeadlineLoops = HaveExamples ? 400 : 4;

  const double ExamplesMbs = parseThroughputMbs(Headline, HeadlineLoops);
  std::printf("examples parse:   %8.1f MB/s\n", ExamplesMbs);
  Report.set("examples_parse_mb_s", ExamplesMbs);

  const double SyntheticMbs = parseThroughputMbs(Synthetic, 4);
  std::printf("synthetic parse:  %8.1f MB/s\n", SyntheticMbs);
  Report.set("synthetic_parse_mb_s", SyntheticMbs);

  // --- Pipeline throughput at one core. --------------------------------
  linkAllPasses();
  ParseStats Stats;
  auto CorpusUnit = parseAssembly(Synthetic[0].second, &Stats);
  if (!CorpusUnit.ok()) {
    std::fprintf(stderr, "bench: corpus parse failed\n");
    return 1;
  }
  // --- IR footprint: arena bytes per parsed entry. ---------------------
  const double BytesPerEntry =
      static_cast<double>(CorpusUnit->arena().bytesAllocated()) /
      static_cast<double>(std::max<size_t>(1, CorpusUnit->entries().size()));
  std::printf("ir footprint:     %.1f arena bytes per entry (%zu entries)\n",
              BytesPerEntry, CorpusUnit->entries().size());
  Report.set("ir_bytes_per_entry", BytesPerEntry);

  std::vector<PassRequest> Requests;
  if (parseMaoOption("ZEE:REDTEST:REDMOV:ADDADD:LOOP16:SCHED", Requests))
    return 1;
  PipelineOptions OneCore;
  OneCore.Jobs = 1;
  const double PipelineSeconds = bestSeconds(3, [&] {
    MaoUnit Unit = CorpusUnit->clone();
    PipelineResult R = runPasses(Unit, Requests, OneCore);
    if (!R.Ok) {
      std::fprintf(stderr, "bench: pipeline failed: %s\n", R.Error.c_str());
      std::exit(1);
    }
  });
  const double InstsPerSecCore =
      PipelineSeconds > 0 ? Stats.Instructions / PipelineSeconds : 0.0;
  std::printf("pipeline:         %zu insts in %.1f ms at 1 core -> %.0f "
              "insts/s/core\n",
              Stats.Instructions, PipelineSeconds * 1e3, InstsPerSecCore);
  Report.set("pipeline_insts_per_s_per_core", InstsPerSecCore);

  // --- CFG builds per function under paper6 (deterministic). ------------
  {
    StatCounter &Builds =
        StatsRegistry::instance().counter("analysis.cfg_builds");
    MaoUnit Unit = CorpusUnit->clone();
    const uint64_t Before = Builds.value();
    PipelineResult R = runPasses(Unit, Requests, OneCore);
    const double PerFunction =
        static_cast<double>(Builds.value() - Before) /
        static_cast<double>(std::max<size_t>(1, Unit.functions().size()));
    if (!R.Ok) {
      std::fprintf(stderr, "bench: pipeline failed: %s\n", R.Error.c_str());
      return 1;
    }
    std::printf("cfg builds:       %.2f per function under paper6\n",
                PerFunction);
    Report.set("paper6_cfg_builds_per_function", PerFunction);
  }

  // --- Relaxation convergence. ------------------------------------------
  {
    MaoUnit Unit = CorpusUnit->clone();
    RelaxationResult Last;
    const double Seconds = bestSeconds(3, [&] { Last = relaxUnit(Unit); });
    if (!Last.Converged) {
      std::fprintf(stderr, "bench: relaxation did not converge\n");
      return 1;
    }
    std::printf("relax:            %8.3f ms to converge, %u iterations\n",
                Seconds * 1e3, Last.Iterations);
    Report.set("relax_converge_ms", Seconds * 1e3);
    Report.set("relax_iterations", Last.Iterations);
  }

  // --- Cross-jobs byte-identity. ----------------------------------------
  std::string Reference;
  bool Identical = true;
  for (unsigned Jobs : {1u, 2u, 4u}) {
    MaoUnit Unit = CorpusUnit->clone();
    PipelineOptions Options;
    Options.Jobs = Jobs;
    PipelineResult R = runPasses(Unit, Requests, Options);
    if (!R.Ok) {
      std::fprintf(stderr, "bench: pipeline (jobs=%u) failed\n", Jobs);
      return 1;
    }
    std::string Out = emitAssembly(Unit);
    if (Jobs == 1)
      Reference = std::move(Out);
    else
      Identical = Identical && Out == Reference;
  }
  std::printf("cross-jobs:       emitted assembly at jobs 1/2/4 %s\n",
              Identical ? "byte-identical" : "DIVERGED");
  Report.set("jobs_byte_identical", Identical ? 1.0 : 0.0);

  const bool Wrote = Report.write(benchJsonPath(argc, argv, Report.name()));
  return (Wrote && Identical) ? 0 : 1;
}
