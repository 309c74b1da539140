//===- bench/bench_synth.cpp - E22: superoptimizer rule synthesis -------------===//
//
// Throughput of the offline rule-synthesis loop (src/synth, the engine
// behind `mao --synth`): harvest windows from the workload generator's
// google-corpus profile, enumerate candidate replacements, prove them
// through the symbolic oracle plus the SemanticValidator recheck, and
// score the survivors on the Core-2 model. The headline metrics are the
// candidate throughput of the prover funnel and the rate at which fully
// verified rules come out the other end — the numbers that bound how big
// a corpus an overnight synthesis run can digest.
//
// Runs through the public facade (Session::synthesize) and additionally
// reports the funnel shape (windows, candidates, proven, verified,
// emitted) so a regression in any one stage is visible in the trajectory.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "BenchUtil.h"

#include <chrono>

using namespace maobench;

int main(int argc, char **argv) {
  BenchReport Report("synth");
  printHeader("E22: superoptimizer rule synthesis (mao --synth engine, "
              "workload corpus, Core-2 model, seed 1)");

  mao::api::Session Session;
  mao::api::SynthOptions Options;
  Options.IncludeWorkloads = true; // The generated google-corpus profile.
  Options.MaxWindow = 2;
  Options.MaxRules = 16;
  Options.Jobs = 0; // All hardware threads; the table is jobs-invariant.

  mao::api::SynthSummary Summary;
  using Clock = std::chrono::steady_clock;
  const Clock::time_point Start = Clock::now();
  if (mao::api::Status S = Session.synthesize(Options, Summary); !S.Ok) {
    std::fprintf(stderr, "bench: synthesis failed: %s\n", S.Message.c_str());
    return 1;
  }
  const double Seconds =
      std::chrono::duration<double>(Clock::now() - Start).count();

  std::printf("corpus %llu files  windows %llu (%llu unique)\n",
              (unsigned long long)Summary.CorpusFiles,
              (unsigned long long)Summary.WindowsHarvested,
              (unsigned long long)Summary.UniqueWindows);
  std::printf("funnel: %llu candidates -> %llu proven -> %llu verified -> "
              "%llu rules (%llu shard failures)\n",
              (unsigned long long)Summary.CandidatesTried,
              (unsigned long long)Summary.CandidatesProven,
              (unsigned long long)Summary.CandidatesVerified,
              (unsigned long long)Summary.RulesEmitted,
              (unsigned long long)Summary.ShardFailures);
  const double CandidatesPerS =
      Seconds > 0 ? Summary.CandidatesTried / Seconds : 0.0;
  const double ProvenPerS =
      Seconds > 0 ? Summary.CandidatesVerified / Seconds : 0.0;
  std::printf("throughput: %.0f candidates/s, %.1f rules proven/s "
              "(%.2f s total)\n",
              CandidatesPerS, ProvenPerS, Seconds);
  for (const mao::api::RuleInfo &R : Summary.Rules)
    std::printf("  %-24s support %-6llu %s\n", R.Name.c_str(),
                (unsigned long long)R.Support, R.Provenance.c_str());

  Report.set("candidates_per_s", CandidatesPerS);
  Report.set("rules_proven_per_s", ProvenPerS);
  Report.set("unique_windows", static_cast<double>(Summary.UniqueWindows));
  Report.set("candidates_tried",
             static_cast<double>(Summary.CandidatesTried));
  Report.set("candidates_proven",
             static_cast<double>(Summary.CandidatesProven));
  Report.set("candidates_verified",
             static_cast<double>(Summary.CandidatesVerified));
  Report.set("rules_emitted", static_cast<double>(Summary.RulesEmitted));
  Report.set("shard_failures", static_cast<double>(Summary.ShardFailures));
  return Report.write(benchJsonPath(argc, argv, Report.name())) ? 0 : 1;
}
