//===- pass/MaoPass.h - Pass base classes and registry ----------*- C++ -*-===//
///
/// \file
/// The pass model from paper Sec. III-A: "MAO supports two types of passes:
/// function specific passes, which get invoked for every identified function
/// in an assembly file, and passes which process the full IR". A pass is a
/// class with a Go() entry point, registered under a name with
/// REGISTER_FUNC_PASS / REGISTER_UNIT_PASS, invoked (and ordered) from the
/// command line, and given a per-invocation option map. Every pass inherits
/// a standard tracing facility and a transformation counter (the "number of
/// optimizations performed" column of the paper's Fig. 7).
///
//===----------------------------------------------------------------------===//

#ifndef MAO_PASS_MAOPASS_H
#define MAO_PASS_MAOPASS_H

#include "analysis/Relaxer.h"
#include "ir/MaoUnit.h"
#include "ir/Verifier.h"
#include "support/Diag.h"
#include "support/Options.h"
#include "support/Status.h"
#include "support/Trace.h"

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace mao {

/// Base class of all passes.
class MaoPass {
public:
  /// The pass copies \p Options: a constructed pass is self-contained and
  /// outlives the map it was created from (sharded execution gets its
  /// per-shard isolation for free).
  /// A pass with no explicit trace[N] option inherits the global trace
  /// level (--mao-trace-level), so infrastructure-wide tracing reaches
  /// every pass without per-pass spellings.
  MaoPass(const char *Name, const MaoOptionMap *Options, MaoUnit *Unit)
      : Name(Name), Options(Options ? *Options : MaoOptionMap()), Unit(Unit),
        Tracer(Name, Options && Options->has("trace")
                         ? static_cast<int>(Options->getInt("trace", 0))
                         : TraceContext::global().level()) {}
  virtual ~MaoPass();

  /// Main entry point; returns false to abort the pipeline.
  virtual bool go() = 0;

  const std::string &name() const { return Name; }
  MaoUnit &unit() { return *Unit; }
  MaoOptionMap &options() { return Options; }

  /// Standard tracing facility (level filtered by the "trace" option).
  void trace(int Level, const char *Fmt, ...) const
      __attribute__((format(printf, 3, 4)));
  /// The level trace() filters against.
  int traceLevel() const { return Tracer.level(); }

  /// Number of code transformations this pass performed (Fig. 7 columns).
  unsigned transformationCount() const { return Transformations; }

  /// Why go() returned false, when the pass said so through fail().
  const std::string &failureReason() const { return FailureReason; }

protected:
  void countTransformation(unsigned N = 1) { Transformations += N; }

  /// Records \p Why as the reason this run failed; the pass runner puts it
  /// in the one failure diagnostic. Returns false, for `return fail(...)`.
  bool fail(std::string Why) {
    FailureReason = std::move(Why);
    return false;
  }

private:
  std::string Name;
  MaoOptionMap Options;
  MaoUnit *Unit;
  TraceContext Tracer;
  unsigned Transformations = 0;
  std::string FailureReason;
};

/// Thrown by a pass that cannot write an output the user named (the ASM
/// pass's o[FILE]). No --mao-on-error policy contains it: the output is
/// lost, not the unit, so the pipeline stops with this message.
struct OutputWriteError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A pass invoked once per identified function.
class MaoFunctionPass : public MaoPass {
public:
  MaoFunctionPass(const char *Name, const MaoOptionMap *Options, MaoUnit *Unit,
                  MaoFunction *Fn)
      : MaoPass(Name, Options, Unit), Fn(Fn) {}

  MaoFunction &function() { return *Fn; }

  /// The maintained relaxation layout of the unit, built on first use. A
  /// pass that relaxes through it must make every edit of the request
  /// through it too (UnitLayout::insertBefore/erase). The pass runner lends
  /// every function of a non-shardable pass's request the same layout
  /// (shareRequestState), so the walk is built once per request; a pass
  /// constructed and run on its own, or a shardable one, builds its own.
  UnitLayout &layout();

  /// Called by the pass runner before go() of a non-shardable pass: \p
  /// Layout is the request's lazily built layout, \p Diags its diagnostics
  /// engine (may be null).
  void shareRequestState(std::unique_ptr<UnitLayout> &Layout,
                         DiagEngine *Diags) {
    LayoutSlot = &Layout;
    RequestDiags = Diags;
  }

  /// Called by the pass runner before go() of a shardable pass: its
  /// warnings are appended to \p Out, which the runner reports in function
  /// order once every shard is done, so they read the same for every
  /// worker count.
  void deferDiagnostics(std::vector<Diagnostic> *Out) { Deferred = Out; }

protected:
  /// Reports that a fixpoint loop stopped after \p Rounds rounds with
  /// work left: a warning naming the pass and function and one
  /// "pipeline.round_cap_hits" count.
  void reportRoundCap(unsigned Rounds);

  /// Reports that the pass left this function alone because it has an
  /// indirect jump no jump table resolves: a warning naming the pass and
  /// function and one "pipeline.unresolved_skips" count.
  void reportUnresolvedSkip();

private:
  /// Sends a warning to the request's diagnostics (directly, or deferred
  /// for a shard), or to trace level 0 when the pass runs without any.
  void warn(DiagCode Code, const std::string &Message);

  MaoFunction *Fn;
  std::unique_ptr<UnitLayout> OwnLayout;
  std::unique_ptr<UnitLayout> *LayoutSlot = &OwnLayout;
  DiagEngine *RequestDiags = nullptr;
  std::vector<Diagnostic> *Deferred = nullptr;
};

/// A pass invoked once for the whole IR.
class MaoUnitPass : public MaoPass {
public:
  using MaoPass::MaoPass;
};

/// Global registry mapping pass names to factories.
class PassRegistry {
public:
  using FunctionPassFactory = std::function<std::unique_ptr<MaoFunctionPass>(
      MaoOptionMap *, MaoUnit *, MaoFunction *)>;
  using UnitPassFactory =
      std::function<std::unique_ptr<MaoUnitPass>(MaoOptionMap *, MaoUnit *)>;

  static PassRegistry &instance();

  /// \p Shardable declares that the pass honours the sharding contract
  /// (DESIGN.md, "Sharded pass pipeline"): it only edits entries strictly
  /// inside its own function's ranges, never inserts at or before a range
  /// begin, inserts or erases no label (other shards read labelMap()),
  /// never calls rebuildStructure()/makeUniqueLabel(), and reads
  /// unit-level tables only. Shardable passes may run their functions on
  /// the worker pool (--mao-jobs > 1); every other function pass runs them
  /// inline, sharing one layout per request. Both get per-function failure
  /// isolation.
  void registerFunctionPass(const std::string &Name,
                            FunctionPassFactory Factory,
                            bool Shardable = false);
  void registerUnitPass(const std::string &Name, UnitPassFactory Factory);

  bool isFunctionPass(const std::string &Name) const;
  bool isUnitPass(const std::string &Name) const;
  bool isShardable(const std::string &Name) const;
  bool knows(const std::string &Name) const {
    return isFunctionPass(Name) || isUnitPass(Name);
  }

  std::unique_ptr<MaoFunctionPass> makeFunctionPass(const std::string &Name,
                                                    MaoOptionMap *Options,
                                                    MaoUnit *Unit,
                                                    MaoFunction *Fn) const;
  std::unique_ptr<MaoUnitPass> makeUnitPass(const std::string &Name,
                                            MaoOptionMap *Options,
                                            MaoUnit *Unit) const;

  /// Names of all registered passes, sorted.
  std::vector<std::string> allPassNames() const;

  /// What a registered pass is, for listPasses() consumers.
  enum class PassKind : uint8_t { Function, ShardedFunction, Unit };

  /// One row of the public pass catalogue.
  struct PassInfo {
    std::string Name;
    PassKind Kind = PassKind::Function;
  };

  /// The full pass catalogue, sorted by name, with each pass's execution
  /// kind.
  std::vector<PassInfo> listPasses() const;

  /// Validates a pass request against the registry: unknown names get a
  /// did-you-mean error (computed over allPassNames()). This is the single
  /// name-resolution point for --mao-passes, the tuner, and the facade.
  MaoStatus validate(const std::string &Name) const;

  /// Parses the registry-validated pipeline spelling "a,b(c=1,d=2)" into
  /// pass requests appended to \p Out. Syntax errors come from
  /// parsePassListSyntax; name errors from validate(). Pass names are
  /// case-insensitive here (the classic --mao= spelling is exact).
  MaoStatus parsePipeline(const std::string &Spec,
                          std::vector<PassRequest> &Out) const;

private:
  struct FunctionPassEntry {
    FunctionPassFactory Factory;
    bool Shardable = false;
  };
  std::map<std::string, FunctionPassEntry> FunctionPasses;
  std::map<std::string, UnitPassFactory> UnitPasses;
};

template <typename PassT>
bool registerFunctionPassImpl(const char *Name, bool Shardable = false) {
  PassRegistry::instance().registerFunctionPass(
      Name,
      [](MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn) {
        return std::make_unique<PassT>(Options, Unit, Fn);
      },
      Shardable);
  return true;
}

template <typename PassT>
bool registerUnitPassImpl(const char *Name) {
  PassRegistry::instance().registerUnitPass(
      Name, [](MaoOptionMap *Options, MaoUnit *Unit) {
        return std::make_unique<PassT>(Options, Unit);
      });
  return true;
}

/// Registers a function pass under NAME (paper Sec. III-A).
#define REGISTER_FUNC_PASS(NAME, CLASS)                                       \
  static const bool MaoRegisteredFunc_##CLASS [[maybe_unused]] =              \
      ::mao::registerFunctionPassImpl<CLASS>(NAME);

/// Registers a function pass that honours the sharding contract and may
/// run its per-function invocations concurrently (see
/// PassRegistry::registerFunctionPass).
#define REGISTER_SHARDED_FUNC_PASS(NAME, CLASS)                               \
  static const bool MaoRegisteredFunc_##CLASS [[maybe_unused]] =              \
      ::mao::registerFunctionPassImpl<CLASS>(NAME, /*Shardable=*/true);

/// Registers a whole-IR pass under NAME.
#define REGISTER_UNIT_PASS(NAME, CLASS)                                       \
  static const bool MaoRegisteredUnit_##CLASS [[maybe_unused]] =              \
      ::mao::registerUnitPassImpl<CLASS>(NAME);

/// What the pipeline does when a pass fails (throws, returns false,
/// produces verifier-invalid IR, or exceeds its wall-clock budget).
enum class OnErrorPolicy : uint8_t {
  Abort,    ///< Stop the pipeline (legacy behaviour).
  Rollback, ///< Restore the pre-pass snapshot, run the remaining passes.
  Skip,     ///< Keep whatever state the pass left, run the remaining passes.
};

/// How one pass invocation ended.
enum class PassStatus : uint8_t {
  Ok,         ///< Ran to completion, verifier clean (when enabled).
  Failed,     ///< Failed under the Abort policy; pipeline stopped here.
  RolledBack, ///< Failed; its edits were undone from the snapshot.
  Skipped,    ///< Failed under the Skip policy; edits (if any) were kept.
};

const char *passStatusName(PassStatus Status);

/// Per-pass outcome record (one per requested pass, in invocation order).
struct PassOutcome {
  std::string PassName;
  PassStatus Status = PassStatus::Ok;
  /// Transformations performed (0 when rolled back: the edits are gone).
  unsigned Transformations = 0;
  /// Wall-clock time spent in the pass, excluding snapshot/verify overhead.
  double WallMs = 0.0;
  /// Wall-clock time spent in the post-pass structural verifier.
  double VerifyMs = 0.0;
  /// Wall-clock time spent in the semantic validation hook.
  double ValidateMs = 0.0;
  /// Instruction-count and encoded-byte deltas across the pass, measured
  /// on the committed state (0 for a rolled-back pass). Only populated
  /// under PipelineOptions::CollectStats.
  long InstructionDelta = 0;
  long ByteDelta = 0;
  /// Human-readable failure detail; empty on success.
  std::string Detail;
};

/// Result of running a pass pipeline.
struct [[nodiscard]] PipelineResult {
  bool Ok = true;
  std::string Error;
  /// Pass name (in invocation order) -> total transformation count.
  std::vector<std::pair<std::string, unsigned>> Counts;
  /// Detailed per-pass outcomes (same order as the requests).
  std::vector<PassOutcome> Outcomes;

  /// Number of passes that did not finish with PassStatus::Ok.
  unsigned failureCount() const;
};

/// Execution policy for runPasses.
struct PipelineOptions {
  OnErrorPolicy OnError = OnErrorPolicy::Abort;
  /// Run the IR verifier after every pass; a verifier failure counts as a
  /// pass failure and triggers the on-error policy.
  bool VerifyAfterEachPass = false;
  /// Verifier configuration for the per-pass check. Defaults to the cheap
  /// label invariants (VerifierOptions::fast()) so per-pass verification
  /// costs one entry-list walk; drivers run the full configuration once
  /// after the pipeline, where encodability and layout are checked a
  /// single time. Set to VerifierOptions() for full checking per pass.
  VerifierOptions PerPassVerify = VerifierOptions::fast();
  /// Per-pass wall-clock budget in milliseconds (0 = unlimited). Checked
  /// after each function for function passes and after go() for unit
  /// passes; a pass that exceeds it counts as failed. (A pass that never
  /// returns cannot be preempted.)
  long PassTimeoutMs = 0;
  /// Worker count for shardable function passes (>= 1). With N > 1 a
  /// worker pool runs the per-function invocations of shardable passes
  /// concurrently; unit passes and non-shardable function passes are
  /// unaffected (they act as barriers). Results are bit-identical for
  /// every value of Jobs: every pass takes the same code path, and only
  /// whether the pool runs its functions depends on Jobs.
  unsigned Jobs = 1;
  /// Structured diagnostics destination; may be null.
  DiagEngine *Diags = nullptr;
  /// Optional per-pass semantic validation hook (--mao-validate=semantic,
  /// implemented by check/SemanticValidator). When set, the runner snapshots
  /// the unit before each pass and calls the hook with the pre-pass and
  /// post-pass units after the pass (and the structural verifier, when
  /// enabled) succeed. A non-ok status counts as a pass failure with
  /// DiagCode::CheckSemanticDiverged and triggers the on-error policy, so a
  /// semantics-changing pass is rolled back or skipped like any other
  /// failure.
  std::function<MaoStatus(MaoUnit &Before, MaoUnit &After,
                          const std::string &PassName)>
      SemanticCheck;
  /// Measure per-pass instruction/byte footprint deltas and publish
  /// pipeline counters to the StatsRegistry (--mao-report / --stats). The
  /// footprint walk prices each instruction from its entry's length memo,
  /// encoding the unmemoized ones outside the fault-injection draw
  /// sequence (like the verifier), so enabling stats never perturbs
  /// injected faults.
  bool CollectStats = false;
};

/// Runs the requested passes over \p Unit in command-line order under the
/// given execution policy. Function passes run each function as its own
/// shard (concurrently when the pass is shardable and Jobs > 1) with
/// failures isolated per function: one function's failure is rolled back
/// or skipped without discarding the edits the other functions made.
/// Whole-unit passes and non-shardable function passes are barriers
/// between parallel regions.
///
/// Under OnErrorPolicy::Rollback a failing pass (exception, go()==false,
/// verifier failure, or timeout) has its edits undone — the unit is left
/// byte-identical to its pre-pass state — and the remaining passes still
/// run. Rollback is implemented as checkpoint + replay: the unit is cloned
/// once before the first pass, and restoring re-clones that checkpoint and
/// re-runs the passes that committed since. Passes are deterministic (any
/// randomness is seeded through pass options), so the replay reproduces
/// the pre-pass state exactly, while the common all-passes-succeed path
/// pays for one snapshot per pipeline instead of one per pass. Fault
/// injection is suspended and the wall-clock budget waived during replay:
/// the replayed passes already succeeded once, and re-injecting into the
/// recovery path would make rollback itself fallible.
PipelineResult runPasses(MaoUnit &Unit,
                         const std::vector<PassRequest> &Requests,
                         const PipelineOptions &Options);

/// Legacy entry point: OnErrorPolicy::Abort, no verification.
PipelineResult runPasses(MaoUnit &Unit,
                         const std::vector<PassRequest> &Requests);

/// Forces registration of all built-in passes (the static registrars live
/// in the mao_passes library; call this from executables that link it).
void linkAllPasses();

} // namespace mao

#endif // MAO_PASS_MAOPASS_H
