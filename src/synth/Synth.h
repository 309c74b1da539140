//===- synth/Synth.h - Superoptimizer peephole-rule synthesis ---*- C++ -*-===//
///
/// \file
/// The offline rule-synthesis loop behind `mao --synth` (Souper/Minotaur
/// style, see PAPERS.md): MAO discovers and proves its own peephole rules
/// instead of hand-writing them, closing the loop the paper's
/// extensibility story implies. Five stages, all deterministic:
///
///   harvest      - slide short windows over the straight-line reg/imm
///                  instructions of the corpus (example files plus the
///                  workload generator's hot blocks) and canonicalize each
///                  by register renaming into the window-rule template
///                  language of PeepholeRules.def.
///   canonicalize - dedupe windows by canonical text (support counts kept;
///                  the hash-consed symbolic DAG then identifies windows
///                  that compute the same function).
///   enumerate    - goal-directed candidate replacements: every strictly
///                  shorter sequence over the window's registers and
///                  constants from a small ALU vocabulary.
///   prove        - the symbolic oracle (check/SymbolicEval): pattern and
///                  candidate evaluate into one shared SymTable; equal
///                  node ids for every register output prove equivalence,
///                  differing flag outputs become a dead-flags guard.
///                  Every accepted rewrite is then re-verified through
///                  SemanticValidator on an embedding that makes the
///                  unguarded state observable (stores + setcc).
///   score        - simulated cycles of a hot loop around the window on
///                  the uarch model; only strict wins are emitted.
///
/// Windows fan out across the support/ThreadPool with per-window fault
/// containment (a throwing shard drops that window, never the run), and
/// results merge in index order: the emitted table is byte-identical for
/// every --mao-jobs value.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_SYNTH_SYNTH_H
#define MAO_SYNTH_SYNTH_H

#include "passes/PeepholeEngine.h"
#include "support/Status.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mao {
namespace synth {

/// Configuration of one synthesis run.
struct SynthOptions {
  /// Corpus sources as (name, assembly text) pairs.
  std::vector<std::pair<std::string, std::string>> Corpus;
  /// Also harvest the workload generator's google-corpus profile.
  bool IncludeWorkloads = true;
  /// Longest harvested window, in instructions (1..3).
  unsigned MaxWindow = 2;
  /// Cap on emitted rules (the best-supported wins are kept).
  unsigned MaxRules = 16;
  /// Recorded in rule provenance; the search itself is exhaustive and
  /// seed-independent.
  uint64_t Seed = 1;
  /// Worker count for the window fan-out; results are identical for every
  /// value (>= 1; 0 is treated as 1).
  unsigned Jobs = 1;
  /// Processor model for scoring: "core2" or "opteron".
  std::string Config = "core2";
  /// Scoring-harness loop trip count.
  uint64_t LoopIterations = 256;
};

/// One emitted rule plus the evidence that justified it.
struct SynthRule {
  PeepholeRule Rule;
  uint64_t Support = 0;      ///< Corpus windows matching the pattern.
  uint64_t CyclesBefore = 0; ///< Scoring-harness cycles of the pattern.
  uint64_t CyclesAfter = 0;  ///< Cycles of the replacement (strictly less).
};

/// Funnel counters of one run.
struct SynthStats {
  uint64_t CorpusFiles = 0;
  uint64_t WindowsHarvested = 0; ///< All windows, including duplicates.
  uint64_t UniqueWindows = 0;
  uint64_t CandidatesTried = 0;
  uint64_t CandidatesProven = 0;    ///< Passed the symbolic oracle.
  uint64_t CandidatesVerified = 0;  ///< Also passed SemanticValidator.
  uint64_t RulesScored = 0;         ///< Windows that reached the simulator.
  uint64_t RulesEmitted = 0;
  uint64_t ShardFailures = 0; ///< Windows dropped by fault containment.
};

/// Outcome of one synthesis run.
struct SynthResult {
  std::vector<SynthRule> Rules; ///< Winners in canonical (emitted) order.
  SynthStats Stats;
  /// The rendered PeepholeRules.def holding the winners.
  std::string TableText;
};

/// Runs the full pipeline. Fails only on unusable options; an empty corpus
/// or a corpus with no provable windows yields an empty rule list.
ErrorOr<SynthResult> synthesizeRules(const SynthOptions &Options);

//===----------------------------------------------------------------------===//
// Pipeline stages, exposed for SynthTest and maofuzz --synth.
//===----------------------------------------------------------------------===//

/// One canonicalized window with its corpus support.
struct HarvestedWindow {
  std::vector<TemplateInsn> Insns;
  uint64_t Support = 0;
};

/// Harvests and canonicalizes windows from \p Corpus (sorted by canonical
/// text, deduped). \p Stats (optional) accumulates the funnel counters.
std::vector<HarvestedWindow>
harvestWindows(const std::vector<std::pair<std::string, std::string>> &Corpus,
               unsigned MaxWindow, SynthStats *Stats);

/// Enumerates the candidate replacements for \p Window in deterministic
/// order: strictly shorter sequences over its registers and constants.
std::vector<std::vector<TemplateInsn>>
enumerateCandidates(const std::vector<TemplateInsn> &Window);

/// The symbolic oracle: true when \p Candidate computes the same final
/// registers as \p Window (no stores/calls/control flow on either side),
/// with \p DeadFlags receiving the status flags whose values differ (the
/// rewrite is sound only where those flags are dead).
bool proveWindowRewrite(const std::vector<TemplateInsn> &Window,
                        const std::vector<TemplateInsn> &Candidate,
                        uint8_t &DeadFlags);

/// Re-verifies a compiled window rule end to end with SemanticValidator:
/// both sides are embedded in a function that stores every bound register
/// and captures every unguarded flag with setcc before returning, so the
/// validator's liveness rules observe exactly what the rule claims to
/// preserve. (AF has no setcc and is covered by the symbolic oracle.)
MaoStatus verifyRuleWithValidator(const PeepholeRule &R);

/// Re-proves every rule of the active table (oracle plus validator; the
/// derived guard must be covered by the committed guard).
/// This is the CI gate over the committed PeepholeRules.def.
MaoStatus verifyActiveSynthRules(std::string *Detail);

/// Simulated cycles of the scoring harness (a hot loop around \p Seq) on
/// \p Config. Deterministic.
ErrorOr<uint64_t> scoreWindowCycles(const std::vector<TemplateInsn> &Seq,
                                    const std::string &Config,
                                    uint64_t Iterations);

} // namespace synth
} // namespace mao

#endif // MAO_SYNTH_SYNTH_H
