//===- bench/bench_parallel_pipeline.cpp - Sharded pipeline scaling ----------==//
//
// Measures how the function-sharded pass executor scales with worker
// count: the same shardable pass line over the same multi-function corpus
// at 1, 2, and 4 workers. The acceptance bar for the sharding work is
// BM_ShardedSpeedup's speedup_x counter (jobs=1 wall-clock over jobs=4,
// measured interleaved so clock drift cannot skew the ratio) reaching at
// least 2.0 on a 4-core machine.
//
// Only the pass phase is timed — parsing is inherently sequential and
// would dilute the ratio; the driver pays it identically at every worker
// count. BM_ShardedPipeline gives the absolute per-worker-count numbers;
// BM_BarrierHeavyPipeline documents the other end of Amdahl's law with a
// pass line dominated by whole-unit barrier passes, which sharding cannot
// speed up.
//
//===----------------------------------------------------------------------==//

#include "BenchJson.h"

#include "asm/Parser.h"
#include "pass/MaoPass.h"
#include "support/Options.h"
#include "workload/Workload.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <vector>

using namespace mao;

namespace {

/// A corpus with enough independent functions to keep four workers busy
/// and enough pattern instances that every sharded pass does real work.
const std::string &corpusAssembly() {
  static const std::string Asm = [] {
    WorkloadSpec Spec;
    Spec.Name = "parallel-scaling";
    Spec.Seed = 3;
    Spec.Functions = 32;
    Spec.FillerPerFunction = 160;
    Spec.ZeroExtPatterns = 48;
    Spec.RedundantTests = 64;
    Spec.HarmlessTests = 48;
    Spec.RedundantLoads = 48;
    Spec.AddAddPairs = 32;
    Spec.SplitShortLoops = 8;
    Spec.AlignedShortLoops = 8;
    Spec.SchedFanoutLoops = 8;
    return generateWorkloadAssembly(Spec);
  }();
  return Asm;
}

std::vector<PassRequest> passLine(const std::string &Line) {
  std::vector<PassRequest> Requests;
  if (parseMaoOption(Line, Requests))
    Requests.clear();
  return Requests;
}

/// All-shardable line: the parallel fraction is the whole pipeline.
const char *const ShardableLine =
    "ZEE:REDTEST:REDMOV:ADDADD:DCE:CONSTFOLD:SCHED";

/// Barrier-heavy line: LOOP16/LSDOPT/BRALIGN relax the whole unit and run
/// sequentially between the shardable peepholes.
const char *const BarrierLine = "ZEE:LOOP16:REDTEST:LSDOPT:BRALIGN";

} // namespace

void runLine(benchmark::State &State, const char *Line) {
  linkAllPasses();
  auto Base = parseAssembly(corpusAssembly());
  if (!Base.ok()) {
    State.SkipWithError("parse failed");
    return;
  }
  const std::vector<PassRequest> Requests = passLine(Line);
  PipelineOptions Options;
  Options.Jobs = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    State.PauseTiming();
    MaoUnit Unit = Base->clone();
    State.ResumeTiming();
    PipelineResult R = runPasses(Unit, Requests, Options);
    if (!R.Ok)
      State.SkipWithError("pass failed");
    benchmark::DoNotOptimize(R.Counts);
  }
}

void BM_ShardedPipeline(benchmark::State &State) {
  runLine(State, ShardableLine);
}
BENCHMARK(BM_ShardedPipeline)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_BarrierHeavyPipeline(benchmark::State &State) {
  runLine(State, BarrierLine);
}
BENCHMARK(BM_BarrierHeavyPipeline)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// The acceptance metric in one number: alternates jobs=1 and jobs=4 runs
/// of the shardable line within a single benchmark and reports their
/// wall-clock ratio as "speedup_x". The sharding acceptance bar is
/// speedup_x >= 2.0 at four workers.
void BM_ShardedSpeedup(benchmark::State &State) {
  linkAllPasses();
  auto Base = parseAssembly(corpusAssembly());
  if (!Base.ok()) {
    State.SkipWithError("parse failed");
    return;
  }
  const std::vector<PassRequest> Requests = passLine(ShardableLine);
  using Clock = std::chrono::steady_clock;
  auto RunOne = [&](unsigned Jobs) {
    MaoUnit Unit = Base->clone();
    PipelineOptions Options;
    Options.Jobs = Jobs;
    Clock::time_point T0 = Clock::now();
    PipelineResult R = runPasses(Unit, Requests, Options);
    if (!R.Ok)
      State.SkipWithError("pass failed");
    benchmark::DoNotOptimize(R.Counts);
    return std::chrono::duration<double, std::milli>(Clock::now() - T0)
        .count();
  };
  double Ms1 = 0, Ms4 = 0;
  for (auto _ : State) {
    Ms1 += RunOne(1);
    Ms4 += RunOne(4);
  }
  State.counters["speedup_x"] = Ms4 > 0 ? Ms1 / Ms4 : 0.0;
}
BENCHMARK(BM_ShardedSpeedup)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  maobench::BenchReport Report("parallel_pipeline");
  return maobench::runCapturedBenchmarks(argc, argv, Report);
}
