//===- pass/MaoPass.cpp - Pass base classes and registry ---------------------==//

#include "pass/MaoPass.h"

#include "analysis/Relaxer.h"
#include "ir/Verifier.h"
#include "support/FaultInjection.h"
#include "support/OptionRegistry.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "support/Timeline.h"
#include "x86/Encoder.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>

using namespace mao;

MaoPass::~MaoPass() = default;

void MaoPass::trace(int Level, const char *Fmt, ...) const {
  va_list Args;
  va_start(Args, Fmt);
  Tracer.vtrace(Level, Fmt, Args);
  va_end(Args);
}

UnitLayout &MaoFunctionPass::layout() {
  if (!*LayoutSlot)
    *LayoutSlot = std::make_unique<UnitLayout>(unit());
  return **LayoutSlot;
}

void MaoFunctionPass::reportRoundCap(unsigned Rounds) {
  static StatCounter &Hits =
      StatsRegistry::instance().counter("pipeline.round_cap_hits");
  Hits.add();
  const std::string Message = "function " + function().name() +
                              ": stopped after " + std::to_string(Rounds) +
                              " rounds with work left";
  if (RequestDiags)
    RequestDiags->warning(DiagCode::PassRoundCap, Message, {}, name());
  else
    trace(0, "%s", Message.c_str());
}

PassRegistry &PassRegistry::instance() {
  static PassRegistry Registry;
  return Registry;
}

void PassRegistry::registerFunctionPass(const std::string &Name,
                                        FunctionPassFactory Factory,
                                        bool Shardable) {
  FunctionPasses[Name] = {std::move(Factory), Shardable};
}

void PassRegistry::registerUnitPass(const std::string &Name,
                                    UnitPassFactory Factory) {
  UnitPasses[Name] = std::move(Factory);
}

bool PassRegistry::isFunctionPass(const std::string &Name) const {
  return FunctionPasses.count(Name) != 0;
}

bool PassRegistry::isUnitPass(const std::string &Name) const {
  return UnitPasses.count(Name) != 0;
}

bool PassRegistry::isShardable(const std::string &Name) const {
  auto It = FunctionPasses.find(Name);
  return It != FunctionPasses.end() && It->second.Shardable;
}

std::unique_ptr<MaoFunctionPass>
PassRegistry::makeFunctionPass(const std::string &Name, MaoOptionMap *Options,
                               MaoUnit *Unit, MaoFunction *Fn) const {
  auto It = FunctionPasses.find(Name);
  assert(It != FunctionPasses.end() && "unknown function pass");
  return It->second.Factory(Options, Unit, Fn);
}

std::unique_ptr<MaoUnitPass>
PassRegistry::makeUnitPass(const std::string &Name, MaoOptionMap *Options,
                           MaoUnit *Unit) const {
  auto It = UnitPasses.find(Name);
  assert(It != UnitPasses.end() && "unknown unit pass");
  return It->second(Options, Unit);
}

std::vector<std::string> PassRegistry::allPassNames() const {
  std::vector<std::string> Names;
  Names.reserve(FunctionPasses.size() + UnitPasses.size());
  for (const auto &[Name, Factory] : FunctionPasses)
    Names.push_back(Name);
  for (const auto &[Name, Factory] : UnitPasses)
    Names.push_back(Name);
  std::sort(Names.begin(), Names.end());
  return Names;
}

std::vector<PassRegistry::PassInfo> PassRegistry::listPasses() const {
  std::vector<PassInfo> Out;
  Out.reserve(FunctionPasses.size() + UnitPasses.size());
  for (const auto &[Name, Entry] : FunctionPasses)
    Out.push_back({Name, Entry.Shardable ? PassKind::ShardedFunction
                                         : PassKind::Function});
  for (const auto &[Name, Factory] : UnitPasses)
    Out.push_back({Name, PassKind::Unit});
  std::sort(Out.begin(), Out.end(),
            [](const PassInfo &A, const PassInfo &B) { return A.Name < B.Name; });
  return Out;
}

MaoStatus PassRegistry::validate(const std::string &Name) const {
  if (knows(Name))
    return MaoStatus::success();
  std::string Message = "unknown pass '" + Name + "'";
  std::string Suggestion = suggestNearest(Name, allPassNames());
  if (!Suggestion.empty())
    Message += "; did you mean '" + Suggestion + "'?";
  return MaoStatus::error(Message);
}

ErrorOr<std::unique_ptr<MaoPass>>
PassRegistry::create(const std::string &Name, const MaoOptionMap &Params,
                     MaoUnit *Unit, MaoFunction *Fn) const {
  if (MaoStatus S = validate(Name))
    return S;
  // Factories take a mutable pointer for historical reasons; the pass copies
  // the map in its constructor, so handing out Scratch's address is safe.
  MaoOptionMap Scratch = Params;
  if (isUnitPass(Name))
    return ErrorOr<std::unique_ptr<MaoPass>>(
        makeUnitPass(Name, &Scratch, Unit));
  if (!Fn)
    return MaoStatus::error("pass '" + Name +
                            "' is a function pass; create() needs a function");
  return ErrorOr<std::unique_ptr<MaoPass>>(
      makeFunctionPass(Name, &Scratch, Unit, Fn));
}

MaoStatus PassRegistry::parsePipeline(const std::string &Spec,
                                      std::vector<PassRequest> &Out) const {
  std::vector<PassRequest> Parsed;
  if (MaoStatus S = parsePassListSyntax(Spec, Parsed))
    return S;
  for (PassRequest &Req : Parsed) {
    // Pass names are canonically uppercase; the registry spelling is
    // case-insensitive, so fold before validating — unknown names then
    // get did-you-mean suggestions in canonical case too.
    std::transform(Req.PassName.begin(), Req.PassName.end(),
                   Req.PassName.begin(),
                   [](unsigned char C) { return std::toupper(C); });
    if (MaoStatus S = validate(Req.PassName))
      return S;
  }
  Out.insert(Out.end(), std::make_move_iterator(Parsed.begin()),
             std::make_move_iterator(Parsed.end()));
  return MaoStatus::success();
}

const char *mao::passStatusName(PassStatus Status) {
  switch (Status) {
  case PassStatus::Ok:
    return "ok";
  case PassStatus::Failed:
    return "failed";
  case PassStatus::RolledBack:
    return "rolled-back";
  case PassStatus::Skipped:
    return "skipped";
  }
  return "unknown";
}

unsigned PipelineResult::failureCount() const {
  unsigned N = 0;
  for (const PassOutcome &O : Outcomes)
    if (O.Status != PassStatus::Ok)
      ++N;
  return N;
}

namespace {

/// Thrown internally when a pass exceeds its wall-clock budget.
struct PassTimeoutError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

using Clock = std::chrono::steady_clock;

double elapsedMs(Clock::time_point Since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Since)
      .count();
}

/// Instruction-count and encoded-size footprint of a unit, for per-pass
/// deltas under PipelineOptions::CollectStats.
struct UnitFootprint {
  long Instructions = 0;
  long Bytes = 0;
};

/// Prices every instruction entry from its length memo. Like the
/// verifier's encoding check, unmemoized instructions are measured with
/// encodeInstructionNoInject so the fault injector's per-site draw
/// sequence is identical whether or not stats collection is on —
/// observability must never change what a fault-injected run does.
UnitFootprint measureFootprint(MaoUnit &Unit) {
  UnitFootprint F;
  LengthMemoTally Tally;
  std::vector<uint8_t> Bytes;
  for (MaoEntry &Entry : Unit.entries()) {
    const MaoEntry &E = Entry; // Reading must not drop the memo.
    if (!E.isInstruction())
      continue;
    ++F.Instructions;
    const Instruction &Insn = E.instruction();
    if (Insn.isOpaque()) {
      F.Bytes += OpaqueInstructionSizeEstimate;
      continue;
    }
    if (unsigned Memo = E.lengthMemo()) {
      ++Tally.Hits;
      F.Bytes += Memo;
      continue;
    }
    Bytes.clear();
    MaoStatus Encoded = encodeInstructionNoInject(Insn, 0, nullptr, Bytes);
    if (Encoded.ok()) {
      ++Tally.Misses;
      Entry.setLengthMemo(static_cast<unsigned>(Bytes.size()));
      F.Bytes += static_cast<long>(Bytes.size());
    } else {
      // Unencodable content (mid-pipeline scratch state): keep the walk
      // total-defined with the opaque estimate instead of asserting.
      F.Bytes += OpaqueInstructionSizeEstimate;
    }
  }
  Tally.flush();
  return F;
}

/// Re-derives the unit's sections and functions when the previous pass
/// inserted, erased or moved entries: an erase can free the entry a
/// function or section range begins at, and the next pass must not walk
/// from it. Called by both executors before a pass reads the views, so the
/// main loop, rollback replays and partial re-runs all see fresh views.
void refreshStructure(MaoUnit &Unit) {
  if (Unit.structureEdited())
    Unit.rebuildStructure();
}

/// Runs one pass request over the unit; returns the transformation count.
/// Throws PassTimeoutError / propagates pass exceptions; returns through
/// \p FailedFn the function a function pass failed on (empty otherwise).
ErrorOr<unsigned> executeRequest(MaoUnit &Unit, const PassRequest &Req,
                                 const PipelineOptions &Options,
                                 std::string &FailedFn) {
  PassRegistry &Registry = PassRegistry::instance();
  MaoOptionMap PassOptions = Req.Options; // Mutable copy for the pass.
  Clock::time_point Start = Clock::now();
  refreshStructure(Unit);

  if (FaultInjector::instance().shouldFail(FaultSite::PassRunner))
    throw std::runtime_error("injected pass-runner fault");

  auto CheckBudget = [&]() {
    if (Options.PassTimeoutMs > 0 &&
        elapsedMs(Start) > static_cast<double>(Options.PassTimeoutMs))
      throw PassTimeoutError("pass " + Req.PassName +
                             " exceeded its wall-clock budget of " +
                             std::to_string(Options.PassTimeoutMs) + " ms");
  };

  unsigned Count = 0;
  if (Registry.isUnitPass(Req.PassName)) {
    auto Pass = Registry.makeUnitPass(Req.PassName, &PassOptions, &Unit);
    bool Ok = Pass->go();
    CheckBudget();
    if (!Ok)
      return MaoStatus::error("pass " + Req.PassName + " failed");
    Count = Pass->transformationCount();
  } else if (Registry.isFunctionPass(Req.PassName)) {
    // One maintained layout per request, built by the first function that
    // asks for it and kept current by the edits of every later one.
    std::unique_ptr<UnitLayout> Layout;
    for (MaoFunction &Fn : Unit.functions()) {
      auto Pass =
          Registry.makeFunctionPass(Req.PassName, &PassOptions, &Unit, &Fn);
      Pass->shareRequestState(Layout, Options.Diags);
      bool Ok = Pass->go();
      Count += Pass->transformationCount();
      CheckBudget();
      if (!Ok) {
        FailedFn = Fn.name();
        return MaoStatus::error("pass " + Req.PassName +
                                " failed on function " + Fn.name());
      }
    }
  } else {
    return MaoStatus::error("unknown pass: " + Req.PassName);
  }
  return Count;
}

/// One failed shard of a sharded function pass: the function it ran over
/// and why it failed. Collected in function-index order.
struct ShardFailure {
  size_t FnIndex;
  std::string FnName;
  std::string Detail;
  DiagCode Code = DiagCode::PassFailed;
};

/// Runs one *shardable* function-pass request: every function is an
/// independent shard, executed inline when \p Pool is null (or has one
/// worker) and on the pool otherwise. Both paths are the same code over
/// the same per-shard state, which is what makes the results bit-identical
/// across worker counts: entry IDs come from the shard's pre-reserved
/// block, transformation counts and failures are buffered per shard and
/// merged in function order after the implicit barrier.
///
/// Unlike the sequential executor, a failing shard does not stop the
/// request: all shards run, and failures come back through \p Failures so
/// the caller can apply its on-error policy per function. Functions whose
/// index is in \p SkipFns are not run at all (the partial-commit replay
/// path). Throws PassTimeoutError when the wall-clock budget expires and
/// runtime_error for an injected runner fault, mirroring executeRequest.
unsigned executeSharded(MaoUnit &Unit, const PassRequest &Req,
                        const PipelineOptions &Options, ThreadPool *Pool,
                        const std::set<size_t> &SkipFns,
                        std::vector<ShardFailure> &Failures) {
  Clock::time_point Start = Clock::now();

  if (FaultInjector::instance().shouldFail(FaultSite::PassRunner))
    throw std::runtime_error("injected pass-runner fault");

  auto BudgetExceeded = [&]() {
    return Options.PassTimeoutMs > 0 &&
           elapsedMs(Start) > static_cast<double>(Options.PassTimeoutMs);
  };

  refreshStructure(Unit);
  std::vector<MaoFunction> &Fns = Unit.functions();
  const size_t N = Fns.size();
  const uint32_t IdBase = Unit.reserveIdBlocks(N, MaoUnit::ShardIdBlockSize);

  struct Shard {
    unsigned Count = 0;
    bool Failed = false;
    bool TimedOut = false;
    std::string Detail;
    DiagCode Code = DiagCode::PassFailed;
  };
  std::vector<Shard> Shards(N); // Disjoint per-index writes; no locking.

  auto RunShard = [&](size_t I) {
    if (SkipFns.count(I))
      return;
    Shard &S = Shards[I];
    if (BudgetExceeded()) {
      S.TimedOut = true; // Don't start new work past the budget.
      return;
    }
    // Per-shard option map: passes read (and may cache into) their map,
    // so sharing one copy across threads would race.
    TimelineSpan Span("shard", Timeline::active()
                                   ? Req.PassName + ":" + Fns[I].name()
                                   : std::string());
    MaoOptionMap ShardOptions = Req.Options;
    ScopedShardIds Ids(Unit, IdBase + I * MaoUnit::ShardIdBlockSize,
                       IdBase + (I + 1) * MaoUnit::ShardIdBlockSize);
    try {
      auto Pass = PassRegistry::instance().makeFunctionPass(
          Req.PassName, &ShardOptions, &Unit, &Fns[I]);
      bool Ok = Pass->go();
      S.Count = Pass->transformationCount();
      if (!Ok) {
        S.Failed = true;
        S.Detail =
            "pass " + Req.PassName + " failed on function " + Fns[I].name();
      }
    } catch (const std::exception &E) {
      S.Failed = true;
      S.Code = DiagCode::PassException;
      S.Detail = "pass " + Req.PassName +
                 " threw an exception on function " + Fns[I].name() + ": " +
                 E.what();
    }
  };

  if (Pool && Pool->workerCount() > 1)
    Pool->parallelFor(N, RunShard);
  else
    for (size_t I = 0; I < N; ++I)
      RunShard(I);

  unsigned Count = 0;
  bool TimedOut = false;
  for (size_t I = 0; I < N; ++I) {
    Count += Shards[I].Count;
    TimedOut |= Shards[I].TimedOut;
    if (Shards[I].Failed)
      Failures.push_back(
          {I, Fns[I].name(), Shards[I].Detail, Shards[I].Code});
  }
  if (TimedOut || BudgetExceeded())
    throw PassTimeoutError("pass " + Req.PassName +
                           " exceeded its wall-clock budget of " +
                           std::to_string(Options.PassTimeoutMs) + " ms");
  return Count;
}

} // namespace

namespace {

/// One committed request plus, for sharded passes that survived a partial
/// failure, the function indices whose shards were rolled back — replay
/// must skip exactly those to reproduce the partial commit.
struct CommittedReq {
  const PassRequest *Req;
  std::set<size_t> SkipFns;
};

/// Restores \p Unit to the state after the last committed pass:
/// materializes the pre-pipeline checkpoint (from the provider on first
/// use, when one is configured), re-clones it, and re-runs the committed
/// requests (sharded requests replay through the sharded executor with
/// their recorded skip set, so partial commits reproduce exactly). The
/// replayed passes are deterministic and already ran to a verified-clean
/// state once, so the replay reproduces it exactly; fault injection is
/// suspended and the wall-clock budget waived so the recovery path cannot
/// itself fail artificially. Returns an error only if the provider or a
/// replayed pass misbehaves on re-execution — a runner bug or a broken
/// provider, not a pass failure.
MaoStatus rollbackToCheckpoint(MaoUnit &Unit, MaoUnit &Checkpoint,
                               bool &HaveCheckpoint,
                               const std::vector<CommittedReq> &Committed,
                               const PipelineOptions &Options,
                               ThreadPool *Pool) {
  FaultInjector::ScopedSuspend NoInjection;
  if (Options.CollectStats)
    StatsRegistry::instance().counter("pipeline.replays").add();
  if (!HaveCheckpoint) {
    ErrorOr<MaoUnit> CheckpointOr = Options.CheckpointProvider();
    if (!CheckpointOr.ok())
      return MaoStatus::error("rollback checkpoint provider failed: " +
                              CheckpointOr.message());
    Checkpoint = std::move(*CheckpointOr);
    // A re-parse comes back in the default mode; the replay must lay out
    // the way the live unit does.
    Checkpoint.setRelaxMode(Unit.relaxMode());
    HaveCheckpoint = true;
  }
  Unit = Checkpoint.clone();
  PipelineOptions ReplayOptions = Options;
  ReplayOptions.PassTimeoutMs = 0;
  PassRegistry &Registry = PassRegistry::instance();
  for (const CommittedReq &C : Committed) {
    const PassRequest *Req = C.Req;
    try {
      if (Registry.isShardable(Req->PassName)) {
        std::vector<ShardFailure> ReFailures;
        executeSharded(Unit, *Req, ReplayOptions, Pool, C.SkipFns,
                       ReFailures);
        if (!ReFailures.empty())
          return MaoStatus::error("rollback replay of pass " +
                                  Req->PassName + " failed: " +
                                  ReFailures.front().Detail);
      } else {
        std::string FailedFn;
        ErrorOr<unsigned> CountOr =
            executeRequest(Unit, *Req, ReplayOptions, FailedFn);
        if (!CountOr.ok())
          return MaoStatus::error("rollback replay of pass " +
                                  Req->PassName + " failed: " +
                                  CountOr.message());
      }
    } catch (const std::exception &E) {
      return MaoStatus::error("rollback replay of pass " + Req->PassName +
                              " threw: " + E.what());
    }
  }
  return MaoStatus::success();
}

} // namespace

PipelineResult mao::runPasses(MaoUnit &Unit,
                              const std::vector<PassRequest> &Requests,
                              const PipelineOptions &Options) {
  PipelineResult Result;
  const bool Transactional = Options.OnError == OnErrorPolicy::Rollback;
  PassRegistry &Registry = PassRegistry::instance();

  // Worker pool for shardable passes. Only built when more than one worker
  // is requested: with one worker the sharded executor runs its (identical)
  // inline loop, so Jobs=1 costs no thread machinery at all.
  std::unique_ptr<ThreadPool> Pool;
  if (Options.Jobs > 1)
    Pool = std::make_unique<ThreadPool>(Options.Jobs);

  // Checkpoint-replay transaction scheme: one snapshot of the pre-pipeline
  // unit plus the list of requests that committed since. See the runPasses
  // contract in the header. With a CheckpointProvider the snapshot is not
  // even taken until a rollback actually needs it.
  MaoUnit Checkpoint;
  bool HaveCheckpoint = false;
  std::vector<CommittedReq> Committed;
  if (Transactional && !Requests.empty() && !Options.CheckpointProvider) {
    Checkpoint = Unit.clone();
    HaveCheckpoint = true;
  }

  // Footprint baseline plus outcome finalizer for --mao-report: deltas are
  // measured on committed state (after any rollback/replay resolved), so
  // they are a property of the pipeline's decisions, not its scheduling.
  const bool Collect = Options.CollectStats;
  StatsRegistry &Stats = StatsRegistry::instance();
  UnitFootprint Prev;
  if (Collect)
    Prev = measureFootprint(Unit);
  auto Finish = [&](PassOutcome &O) {
    if (!Collect)
      return;
    UnitFootprint Cur = measureFootprint(Unit);
    O.InstructionDelta = Cur.Instructions - Prev.Instructions;
    O.ByteDelta = Cur.Bytes - Prev.Bytes;
    Prev = Cur;
    Stats.counter("pipeline.passes_run").add();
    Stats.counter("pipeline.transformations").add(O.Transformations);
    Stats.histogram("pipeline.pass_transformations")
        .record(O.Transformations);
    switch (O.Status) {
    case PassStatus::Ok:
      Stats.counter("pipeline.passes_ok").add();
      break;
    case PassStatus::Failed:
      Stats.counter("pipeline.failures").add();
      break;
    case PassStatus::RolledBack:
      Stats.counter("pipeline.rollbacks").add();
      break;
    case PassStatus::Skipped:
      Stats.counter("pipeline.skips").add();
      break;
    }
    Stats.counter("time.pipeline.pass_us")
        .add(static_cast<uint64_t>(O.WallMs * 1000.0));
    Stats.counter("time.pipeline.verify_us")
        .add(static_cast<uint64_t>(O.VerifyMs * 1000.0));
    Stats.counter("time.pipeline.validate_us")
        .add(static_cast<uint64_t>(O.ValidateMs * 1000.0));
  };

  for (const PassRequest &Req : Requests) {
    PassOutcome Outcome;
    Outcome.PassName = Req.PassName;

    // Pre-pass snapshot for the semantic validation hook. Taken per pass
    // (unlike the rollback checkpoint, which is per pipeline) because the
    // hook compares each pass's input against its output.
    MaoUnit PrePass;
    bool HavePrePass = false;
    if (Options.SemanticCheck) {
      PrePass = Unit.clone();
      HavePrePass = true;
    }

    Clock::time_point Start = Clock::now();
    std::string FailureDetail;
    DiagCode FailureCode = DiagCode::PassFailed;
    bool Failed = false;
    const bool Sharded = Registry.isShardable(Req.PassName);
    std::vector<ShardFailure> ShardFailures;

    std::string FailedFn;
    {
      TimelineSpan PassSpan("pass", Req.PassName);
      try {
        if (Sharded) {
          // Shardable pass: all functions run (inline or on the pool);
          // failures are per shard and handled below, so a bad function
          // cannot abort its siblings mid-request.
          Outcome.Transformations = executeSharded(
              Unit, Req, Options, Pool.get(), /*SkipFns=*/{}, ShardFailures);
          if (!ShardFailures.empty()) {
            Failed = true;
            if (Collect)
              Stats.counter("pipeline.shard_failures")
                  .add(ShardFailures.size());
            FailureDetail = "pass " + Req.PassName + " failed on " +
                            std::to_string(ShardFailures.size()) +
                            " function(s): ";
            for (size_t I = 0; I < ShardFailures.size(); ++I) {
              if (I)
                FailureDetail += "; ";
              FailureDetail += ShardFailures[I].FnName;
            }
          }
        } else {
          ErrorOr<unsigned> CountOr =
              executeRequest(Unit, Req, Options, FailedFn);
          if (CountOr.ok()) {
            Outcome.Transformations = *CountOr;
          } else {
            Failed = true;
            FailureDetail = CountOr.message();
            if (!Registry.knows(Req.PassName))
              FailureCode = DiagCode::PassUnknown;
          }
        }
      } catch (const PassTimeoutError &E) {
        Failed = true;
        ShardFailures.clear(); // Timeout fails the whole request.
        FailureDetail = E.what();
        FailureCode = DiagCode::PassTimeout;
      } catch (const std::exception &E) {
        Failed = true;
        ShardFailures.clear();
        FailureDetail =
            "pass " + Req.PassName + " threw an exception: " + E.what();
        FailureCode = DiagCode::PassException;
      }
    }
    Outcome.WallMs = elapsedMs(Start);

    // Post-pass consistency check: a pass that corrupted the IR counts as
    // failed even if it reported success.
    if (!Failed && Options.VerifyAfterEachPass) {
      TimelineSpan VerifySpan("verify", Req.PassName);
      Clock::time_point VerifyStart = Clock::now();
      VerifierReport Report =
          verifyUnit(Unit, Options.PerPassVerify, Options.Diags, Req.PassName);
      Outcome.VerifyMs = elapsedMs(VerifyStart);
      if (!Report.clean()) {
        Failed = true;
        FailureDetail = "verifier failed after pass " + Req.PassName + ": " +
                        Report.firstMessage();
        FailureCode = Report.Issues.front().Code;
      }
    }

    // Semantic validation: prove the pass preserved observable behaviour.
    // Runs after the structural verifier so the validator only ever sees
    // structurally sound IR.
    if (!Failed && Options.SemanticCheck && HavePrePass) {
      TimelineSpan ValidateSpan("validate", Req.PassName);
      Clock::time_point ValidateStart = Clock::now();
      try {
        MaoStatus Check = Options.SemanticCheck(PrePass, Unit, Req.PassName);
        Outcome.ValidateMs = elapsedMs(ValidateStart);
        if (!Check.ok()) {
          Failed = true;
          ShardFailures.clear();
          FailureDetail = Check.message();
          FailureCode = DiagCode::CheckSemanticDiverged;
        }
      } catch (const std::exception &E) {
        Failed = true;
        ShardFailures.clear();
        FailureDetail = std::string("semantic validator threw after pass ") +
                        Req.PassName + ": " + E.what();
        FailureCode = DiagCode::CheckSemanticDiverged;
      }
    }

    if (!Failed) {
      if (Transactional)
        Committed.push_back({&Req, {}});
      Outcome.Status = PassStatus::Ok;
      Finish(Outcome);
      Result.Counts.emplace_back(Req.PassName, Outcome.Transformations);
      Result.Outcomes.push_back(std::move(Outcome));
      continue;
    }

    Outcome.Detail = FailureDetail;
    if (Options.Diags) {
      // Shard failures were buffered by the workers; emit them here, on
      // the orchestrating thread, in function order — diagnostics output
      // is deterministic no matter how the shards were scheduled.
      for (const ShardFailure &F : ShardFailures)
        Options.Diags->error(F.Code, F.Detail, {}, Req.PassName);
      if (ShardFailures.empty())
        Options.Diags->error(FailureCode, FailureDetail, {}, Req.PassName);
    }

    switch (Options.OnError) {
    case OnErrorPolicy::Abort:
      Outcome.Status = PassStatus::Failed;
      Finish(Outcome);
      Result.Outcomes.push_back(std::move(Outcome));
      Result.Ok = false;
      Result.Error = FailureDetail;
      return Result;
    case OnErrorPolicy::Rollback: {
      auto HardStop = [&](const std::string &Why) {
        // The transaction machinery cannot guarantee the unit's state
        // (a committed pass did not reproduce, or the recovery re-run
        // misbehaved), so stop hard.
        Outcome.Status = PassStatus::Failed;
        Outcome.Detail += "; " + Why;
        Finish(Outcome);
        Result.Outcomes.push_back(std::move(Outcome));
        Result.Ok = false;
        Result.Error = Why;
      };
      MaoStatus Restored =
          rollbackToCheckpoint(Unit, Checkpoint, HaveCheckpoint, Committed,
                               Options, Pool.get());
      if (!Restored.ok()) {
        HardStop(Restored.message());
        return Result;
      }
      Outcome.Status = PassStatus::RolledBack;
      Outcome.Transformations = 0;
      if (!ShardFailures.empty()) {
        // Partial commit: the failing functions' shards are gone with the
        // rollback, but the surviving shards' edits should not be — re-run
        // the request with the failed functions skipped. The surviving
        // shards already succeeded once and passes are deterministic, so
        // this reapplies exactly their edits; injection is suspended and
        // the budget waived like any other replay.
        std::set<size_t> SkipFns;
        for (const ShardFailure &F : ShardFailures)
          SkipFns.insert(F.FnIndex);
        PipelineOptions ReRun = Options;
        ReRun.PassTimeoutMs = 0;
        unsigned Count = 0;
        std::vector<ShardFailure> ReFailures;
        try {
          FaultInjector::ScopedSuspend NoInjection;
          Count = executeSharded(Unit, Req, ReRun, Pool.get(), SkipFns,
                                 ReFailures);
        } catch (const std::exception &E) {
          HardStop("partial re-run of pass " + Req.PassName +
                   " threw: " + E.what());
          return Result;
        }
        if (!ReFailures.empty()) {
          HardStop("partial re-run of pass " + Req.PassName +
                   " failed: " + ReFailures.front().Detail);
          return Result;
        }
        bool PartialClean = true;
        if (Options.VerifyAfterEachPass) {
          VerifierReport Report = verifyUnit(Unit, Options.PerPassVerify,
                                             Options.Diags, Req.PassName);
          if (!Report.clean()) {
            // The surviving shards only verified in combination with the
            // failed ones before; alone they are invalid, so drop the
            // whole pass.
            PartialClean = false;
            MaoStatus Dropped =
                rollbackToCheckpoint(Unit, Checkpoint, HaveCheckpoint,
                                     Committed, Options, Pool.get());
            if (!Dropped.ok()) {
              HardStop(Dropped.message());
              return Result;
            }
          }
        }
        if (PartialClean) {
          Committed.push_back({&Req, std::move(SkipFns)});
          Outcome.Transformations = Count;
        }
      }
      break;
    }
    case OnErrorPolicy::Skip:
      Outcome.Status = PassStatus::Skipped;
      break;
    }
    Finish(Outcome);
    Result.Counts.emplace_back(Req.PassName, Outcome.Transformations);
    Result.Outcomes.push_back(std::move(Outcome));
  }
  return Result;
}

PipelineResult mao::runPasses(MaoUnit &Unit,
                              const std::vector<PassRequest> &Requests) {
  return runPasses(Unit, Requests, PipelineOptions());
}
