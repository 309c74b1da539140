//===- tune/Tuner.h - Simulator-guided autotuning search --------*- C++ -*-===//
///
/// \file
/// The `mao --tune` engine: a seeded, deterministic greedy hill-climb with
/// random restarts over the SearchSpace, scoring every candidate with the
/// micro-architectural simulator (uarch/Runner) under a chosen
/// ProcessorConfig and memoizing scores by assembled-bytes hash
/// (tune/ScoreCache). This turns the simulator from a validation prop into
/// the optimizer's engine: instead of trusting one fixed heuristic
/// pipeline, the tuner *measures* parameterizations and keeps the one with
/// the fewest simulated cycles.
///
/// Determinism contract: the whole run — candidates generated, winner
/// chosen, report written — is a pure function of (input unit, seed,
/// budget, config, entry). Candidate batches are generated sequentially
/// from the seeded RNG before any evaluation, evaluated into per-index
/// slots (fanned out over support/ThreadPool), and reduced in index order
/// with ties broken toward the lowest index, so `--mao-jobs` changes
/// wall-clock only.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_TUNE_TUNER_H
#define MAO_TUNE_TUNER_H

#include "ir/MaoUnit.h"
#include "support/Options.h"
#include "support/Status.h"
#include "tune/SearchSpace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mao {

/// Tuning-run configuration.
struct TuneOptions {
  /// Function to emulate and score. Empty: "bench_main" when the unit has
  /// it, else the unit's first function.
  std::string Entry;
  /// Processor model: "core2" or "opteron".
  std::string Config = "core2";
  /// Search seed.
  uint64_t Seed = 1;
  /// Let the search toggle the SYNTH (synthesized window-rule) pass as an
  /// extra axis. Off by default so tune trajectories stay stable.
  bool SynthAxis = false;
  /// Let the search toggle the HOTCOLD and BBREORDER code-layout passes
  /// as extra axes. Off by default for the same reason.
  bool LayoutAxis = false;
  /// Candidate-evaluation budget (total parameterizations scored,
  /// including the baseline and default pipeline).
  unsigned Budget = 64;
  /// Worker count for candidate fan-out (>= 1); results are identical for
  /// every value.
  unsigned Jobs = 1;
  /// Emulation step limit per candidate.
  uint64_t MaxSteps = 50'000'000;
  /// Score-cache byte budget (0 = unlimited; see ScoreCache::setByteBudget).
  uint64_t ScoreCacheBudgetBytes = 0;
};

/// Budget presets for --tune-budget.
unsigned tuneBudgetFromString(const std::string &Text);

/// One improvement step of the search, for the report's history.
struct TuneImprovement {
  unsigned Evaluation = 0; ///< 1-based index of the scoring that found it.
  uint64_t Cycles = 0;
  std::string Pipeline;
};

/// The outcome of a tuning run.
struct TuneResult {
  std::string Entry;
  std::string Config;
  uint64_t Seed = 0;
  unsigned Budget = 0;
  uint64_t BaselineCycles = 0; ///< Unoptimized input.
  uint64_t DefaultCycles = 0;  ///< The repo's default pipeline.
  uint64_t TunedCycles = 0;    ///< The winner.
  std::string TunedPipeline;   ///< Canonical --mao-passes spelling.
  std::vector<PassRequest> TunedRequests;
  unsigned Evaluations = 0; ///< Parameterizations scored.
  unsigned Restarts = 0;
  unsigned FailedCandidates = 0; ///< Pipeline/assembly/emulation failures.
  uint64_t ScoreCacheHits = 0;
  uint64_t ScoreCacheMisses = 0;
  std::vector<TuneImprovement> History;
};

/// Runs the search over \p Unit and applies the winning pipeline to it, so
/// the caller can emit the tuned assembly directly. The unit must have its
/// derived structure built (functions visible). On success the unit holds
/// the tuned code; on error it is unchanged.
ErrorOr<TuneResult> tuneUnit(MaoUnit &Unit, const TuneOptions &Options);

/// Renders the machine-readable report (the --tune-report payload).
std::string tuneReportJson(const TuneResult &Result);

} // namespace mao

#endif // MAO_TUNE_TUNER_H
