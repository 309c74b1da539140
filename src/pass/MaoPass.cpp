//===- pass/MaoPass.cpp - Pass base classes and registry ---------------------==//

#include "pass/MaoPass.h"

#include "analysis/Relaxer.h"
#include "ir/Verifier.h"
#include "pass/FunctionAnalyses.h"
#include "support/FaultInjection.h"
#include "support/OptionRegistry.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "support/Timeline.h"
#include "x86/Encoder.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <exception>
#include <memory>
#include <set>
#include <stdexcept>

using namespace mao;

MaoPass::~MaoPass() = default;

void MaoPass::trace(int Level, const char *Fmt, ...) const {
  va_list Args;
  va_start(Args, Fmt);
  Tracer.vtrace(Level, Fmt, Args, TraceBuffer);
  va_end(Args);
}

UnitLayout &MaoFunctionPass::layout() {
  if (!*LayoutSlot)
    *LayoutSlot = std::make_unique<UnitLayout>(unit(), RequestDiags);
  return **LayoutSlot;
}

void MaoFunctionPass::warn(DiagCode Code, const std::string &Message) {
  if (RequestDiags)
    RequestDiags->warning(Code, Message, {}, name());
  else if (Deferred)
    Deferred->push_back({DiagSeverity::Warning, Code, {}, name(), Message});
  else
    trace(0, "%s", Message.c_str());
}

void MaoFunctionPass::reportRoundCap(unsigned Rounds) {
  static StatCounter &Hits =
      StatsRegistry::instance().counter("pipeline.round_cap_hits");
  Hits.add();
  warn(DiagCode::PassRoundCap, "function " + function().name() +
                                   ": stopped after " +
                                   std::to_string(Rounds) +
                                   " rounds with work left");
}

void MaoFunctionPass::reportUnresolvedSkip() {
  static StatCounter &Skips =
      StatsRegistry::instance().counter("pipeline.unresolved_skips");
  Skips.add();
  warn(DiagCode::PassUnresolvedIndirect,
       "function " + function().name() +
           ": skipped, it has an indirect jump no jump table resolves");
}

PassRegistry &PassRegistry::instance() {
  static PassRegistry Registry;
  return Registry;
}

void PassRegistry::registerPass(const std::string &Name, PassKind Kind,
                                Factory Make) {
  Passes[Name] = {Kind, std::move(Make)};
}

const PassRegistry::Entry *PassRegistry::find(const std::string &Name) const {
  auto It = Passes.find(Name);
  return It == Passes.end() ? nullptr : &It->second;
}

std::vector<PassRegistry::PassInfo> PassRegistry::listPasses() const {
  std::vector<PassInfo> Out;
  Out.reserve(Passes.size());
  for (const auto &[Name, E] : Passes)
    Out.push_back({Name, E.Kind});
  return Out;
}

MaoStatus PassRegistry::validate(const std::string &Name) const {
  if (find(Name))
    return MaoStatus::success();
  std::vector<std::string> Names;
  for (const auto &[Known, E] : Passes)
    Names.push_back(Known);
  std::string Message = "unknown pass '" + Name + "'";
  std::string Suggestion = suggestNearest(Name, Names);
  if (!Suggestion.empty())
    Message += "; did you mean '" + Suggestion + "'?";
  return MaoStatus::error(Message);
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

/// The per-pass verifier: verifyUnit, then, when the configuration checks
/// structure (--mao-verify), every kept CFG and current liveness against a
/// fresh build.
VerifierReport verifyAfterPass(MaoUnit &Unit, const PipelineOptions &Options,
                               const std::string &PassName) {
  VerifierReport Report =
      verifyUnit(Unit, Options.PerPassVerify, Options.Diags, PassName);
  if (Report.clean() && Options.PerPassVerify.CheckStructure)
    Report = verifyKeptAnalyses(Unit, Options.Diags, PassName);
  return Report;
}

/// One function a function-pass request failed on, and why. Collected in
/// function-index order.
struct FunctionFailure {
  size_t FnIndex;
  std::string Detail;
  DiagCode Code = DiagCode::PassFailed;
};

/// Runs one pass request over the unit and returns its transformation
/// count. This is the only place a pass is constructed and run. A unit
/// pass runs once; it fails the request by returning false, and so does an
/// unknown pass name.
///
/// A function pass runs every function as its own shard: transformation
/// counts, failures, and a shardable pass's trace lines and warnings are
/// buffered per function and merged in function order. A failing function
/// does not stop the request. Every function runs, and failures come back
/// through \p Failures so the caller can apply its on-error policy per
/// function. Functions whose index is in \p SkipFns
/// are not run at all (the partial-commit replay path).
///
/// Registration decides the rest. A shardable pass runs on \p Pool when it
/// has more than one worker. Any other function pass runs inline, and all
/// its functions share the request's one UnitLayout and Options.Diags
/// (MaoFunctionPass::shareRequestState). Neither choice reads Jobs, which
/// is what makes the results bit-identical across worker counts.
///
/// Throws PassTimeoutError when the wall-clock budget expires and
/// runtime_error for an injected runner fault.
ErrorOr<unsigned> executePass(MaoUnit &Unit, const PassRequest &Req,
                              const PipelineOptions &Options, ThreadPool *Pool,
                              const std::set<size_t> &SkipFns,
                              std::vector<FunctionFailure> &Failures) {
  Clock::time_point Start = Clock::now();

  if (FaultInjector::instance().shouldFail(FaultSite::PassRunner))
    throw std::runtime_error("injected pass-runner fault");

  auto BudgetExceeded = [&]() {
    return Options.PassTimeoutMs > 0 &&
           elapsedMs(Start) > static_cast<double>(Options.PassTimeoutMs);
  };
  auto Timeout = [&]() {
    return PassTimeoutError("pass " + Req.PassName +
                            " exceeded its wall-clock budget of " +
                            std::to_string(Options.PassTimeoutMs) + " ms");
  };

  const PassRegistry::Entry *Entry =
      PassRegistry::instance().find(Req.PassName);
  if (!Entry)
    return MaoStatus::error("unknown pass: " + Req.PassName);
  if (Entry->Kind == PassRegistry::PassKind::Unit) {
    auto Pass = Entry->Make(&Req.Options, &Unit, nullptr);
    bool Ok = Pass->go();
    if (BudgetExceeded())
      throw Timeout();
    if (!Ok)
      return MaoStatus::error("pass " + Req.PassName + " failed");
    return Pass->transformationCount();
  }
  const bool Shardable = Entry->Kind == PassRegistry::PassKind::ShardedFunction;
  std::vector<MaoFunction> &Fns = Unit.functions();
  const size_t N = Fns.size();
  // A non-shardable pass's functions share one maintained layout, built by
  // the first function that asks for it and kept current by the edits of
  // every later one.
  std::unique_ptr<UnitLayout> Layout;

  struct Shard {
    unsigned Count = 0;
    bool Failed = false;
    bool TimedOut = false;
    std::string Detail;
    DiagCode Code = DiagCode::PassFailed;
    std::string Trace;
    std::vector<Diagnostic> Warnings;
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
    TimelineSpan Span("shard", Timeline::active()
                                   ? Req.PassName + ":" + Fns[I].name()
                                   : std::string());
    try {
      // Every shard reads the request's one option map; no pass writes it.
      std::unique_ptr<MaoPass> Made =
          Entry->Make(&Req.Options, &Unit, &Fns[I]);
      auto &Pass = static_cast<MaoFunctionPass &>(*Made);
      if (!Shardable) {
        Pass.shareRequestState(Layout, Options.Diags);
      } else {
        Pass.bufferTrace(&S.Trace);
        if (Options.Diags)
          Pass.deferDiagnostics(&S.Warnings);
      }
      bool Ok = Pass.go();
      S.Count = Pass.transformationCount();
      if (!Ok) {
        S.Failed = true;
        S.Detail =
            "pass " + Req.PassName + " failed on function " + Fns[I].name();
        if (!Pass.failureReason().empty())
          S.Detail += ": " + Pass.failureReason();
      }
    } catch (const std::exception &E) {
      S.Failed = true;
      S.Code = DiagCode::PassException;
      S.Detail = "pass " + Req.PassName +
                 " threw an exception on function " + Fns[I].name() + ": " +
                 E.what();
    }
    // A function that threw inside a layout call can leave the shared
    // layout out of step with the unit (relax() clears its dirty flag
    // before it recomputes), so the next function builds a fresh one.
    if (S.Failed && !Shardable)
      Layout.reset();
  };

  if (Shardable && Pool && Pool->workerCount() > 1)
    Pool->parallelFor(N, RunShard);
  else
    for (size_t I = 0; I < N; ++I)
      RunShard(I);

  // Trace lines first, as an inline run writes them during its shards,
  // then the warnings it reports after them.
  for (const Shard &S : Shards)
    if (!S.Trace.empty())
      lockedLogWrite(S.Trace);
  unsigned Count = 0;
  bool TimedOut = false;
  for (size_t I = 0; I < N; ++I) {
    Count += Shards[I].Count;
    TimedOut |= Shards[I].TimedOut;
    for (Diagnostic &D : Shards[I].Warnings)
      Options.Diags->report(std::move(D));
    if (Shards[I].Failed)
      Failures.push_back({I, Shards[I].Detail, Shards[I].Code});
  }
  if (TimedOut || BudgetExceeded())
    throw Timeout();
  return Count;
}

/// One committed request plus, for a function pass that survived a
/// partial failure, the function indices it was rolled back on — replay
/// must skip exactly those to reproduce the partial commit.
struct CommittedReq {
  const PassRequest *Req;
  std::set<size_t> SkipFns;
};

/// Restores \p Unit to the state after the last committed pass: re-clones
/// the pre-pipeline \p Checkpoint and re-runs the committed requests, each
/// with its recorded skip set, so partial commits reproduce exactly. The
/// replayed passes are deterministic and already ran to a verified-clean
/// state once, so the replay reproduces it exactly; fault injection is
/// suspended and the wall-clock budget waived so the recovery path cannot
/// itself fail artificially. Returns an error only if a replayed pass
/// misbehaves on re-execution — a runner bug, not a pass failure.
MaoStatus rollbackToCheckpoint(MaoUnit &Unit, const MaoUnit &Checkpoint,
                               const std::vector<CommittedReq> &Committed,
                               const PipelineOptions &Options,
                               ThreadPool *Pool) {
  FaultInjector::ScopedSuspend NoInjection;
  if (Options.CollectStats)
    StatsRegistry::instance().counter("pipeline.replays").add();
  Unit = Checkpoint.clone();
  PipelineOptions ReplayOptions = Options;
  ReplayOptions.PassTimeoutMs = 0;
  for (const CommittedReq &C : Committed) {
    const std::string Failed = "rollback replay of pass " + C.Req->PassName;
    try {
      std::vector<FunctionFailure> ReFailures;
      ErrorOr<unsigned> CountOr = executePass(Unit, *C.Req, ReplayOptions,
                                              Pool, C.SkipFns, ReFailures);
      if (!CountOr.ok())
        return MaoStatus::error(Failed + " failed: " + CountOr.message());
      if (!ReFailures.empty())
        return MaoStatus::error(Failed + " failed: " +
                                ReFailures.front().Detail);
    } catch (const std::exception &E) {
      return MaoStatus::error(Failed + " threw: " + E.what());
    }
  }
  return MaoStatus::success();
}

} // namespace

PipelineResult mao::runPasses(MaoUnit &Unit,
                              const std::vector<PassRequest> &Requests,
                              const PipelineOptions &Options) {
  PipelineResult Result;

  // Worker pool for shardable passes. Only built when more than one worker
  // is requested: with one worker the executor runs its (identical) inline
  // loop, so Jobs=1 costs no thread machinery at all.
  std::unique_ptr<ThreadPool> Pool;
  if (Options.Jobs > 1)
    Pool = std::make_unique<ThreadPool>(Options.Jobs);

  // Checkpoint-replay transaction scheme: one snapshot of the pre-pipeline
  // unit plus the list of requests that committed since. See the runPasses
  // contract in the header.
  const bool Transactional = Options.OnError == OnErrorPolicy::Rollback;
  MaoUnit Checkpoint;
  std::vector<CommittedReq> Committed;
  if (Transactional && !Requests.empty())
    Checkpoint = Unit.clone();

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
    if (Options.SemanticCheck)
      PrePass = Unit.clone();

    Clock::time_point Start = Clock::now();
    std::string FailureDetail;
    DiagCode FailureCode = DiagCode::PassFailed;
    bool Failed = false;
    // The verifier reports its issues through Options.Diags itself.
    bool Reported = false;
    // A lost output stops the pipeline whatever the policy, and its caller
    // reports it: no rollback brings the output back.
    bool LostOutput = false;
    std::vector<FunctionFailure> FnFailures;

    {
      TimelineSpan PassSpan("pass", Req.PassName);
      try {
        // Every function runs; a failing function is handled per function
        // below, so it cannot abort its siblings mid-request.
        ErrorOr<unsigned> CountOr = executePass(
            Unit, Req, Options, Pool.get(), /*SkipFns=*/{}, FnFailures);
        if (!CountOr.ok()) {
          Failed = true;
          FailureDetail = CountOr.message();
          if (!PassRegistry::instance().find(Req.PassName))
            FailureCode = DiagCode::PassUnknown;
        } else {
          Outcome.Transformations = *CountOr;
        }
        if (!FnFailures.empty()) {
          Failed = true;
          if (Collect)
            Stats.counter("pipeline.shard_failures").add(FnFailures.size());
          for (const FunctionFailure &F : FnFailures)
            FailureDetail += (FailureDetail.empty() ? "" : "; ") + F.Detail;
        }
      } catch (const OutputWriteError &E) {
        Failed = true;
        LostOutput = true;
        FnFailures.clear();
        FailureDetail = E.what();
        FailureCode = DiagCode::DriverFileError;
      } catch (const PassTimeoutError &E) {
        Failed = true;
        FnFailures.clear(); // Timeout fails the whole request.
        FailureDetail = E.what();
        FailureCode = DiagCode::PassTimeout;
      } catch (const std::exception &E) {
        Failed = true;
        FnFailures.clear();
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
      VerifierReport Report = verifyAfterPass(Unit, Options, Req.PassName);
      Outcome.VerifyMs = elapsedMs(VerifyStart);
      if (!Report.clean()) {
        Failed = true;
        FailureDetail = "verifier failed after pass " + Req.PassName + ": " +
                        Report.firstMessage();
        FailureCode = Report.Issues.front().Code;
        Reported = true;
      }
    }

    // Semantic validation: prove the pass preserved observable behaviour.
    // Runs after the structural verifier so the validator only ever sees
    // structurally sound IR.
    if (!Failed && Options.SemanticCheck) {
      TimelineSpan ValidateSpan("validate", Req.PassName);
      Clock::time_point ValidateStart = Clock::now();
      try {
        MaoStatus Check = Options.SemanticCheck(PrePass, Unit, Req.PassName);
        Outcome.ValidateMs = elapsedMs(ValidateStart);
        if (!Check.ok()) {
          Failed = true;
          FailureDetail = Check.message();
          FailureCode = DiagCode::CheckSemanticDiverged;
        }
      } catch (const std::exception &E) {
        Failed = true;
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

    // The one report of this failure: the verifier's own issues, or a
    // diagnostic per failed function, or one for the pass. Function
    // failures were buffered by the shards; emit them here, on the
    // orchestrating thread, in function order — diagnostics output is
    // deterministic no matter how the shards were scheduled. Result.Error
    // repeats it for callers without a sink.
    Outcome.Detail = FailureDetail;
    if (Options.Diags && !Reported) {
      for (const FunctionFailure &F : FnFailures)
        Options.Diags->error(F.Code, F.Detail, {}, Req.PassName);
      if (FnFailures.empty())
        Options.Diags->error(FailureCode, FailureDetail, {}, Req.PassName);
    }

    switch (LostOutput ? OnErrorPolicy::Abort : Options.OnError) {
    case OnErrorPolicy::Abort:
      Outcome.Status = PassStatus::Failed;
      Finish(Outcome);
      Result.Outcomes.push_back(std::move(Outcome));
      Result.Ok = false;
      Result.Error = FailureDetail;
      return Result;
    case OnErrorPolicy::Rollback: {
      // The transaction machinery cannot guarantee the unit's state when a
      // committed pass does not reproduce, so stop hard.
      auto HardStop = [&](const std::string &Why) {
        if (Options.Diags)
          Options.Diags->error(DiagCode::PassFailed, Why, {}, Req.PassName);
        Outcome.Status = PassStatus::Failed;
        Outcome.Detail += "; " + Why;
        Finish(Outcome);
        Result.Outcomes.push_back(std::move(Outcome));
        Result.Ok = false;
        Result.Error = Why;
        return std::move(Result);
      };
      if (MaoStatus Restored = rollbackToCheckpoint(Unit, Checkpoint,
                                                    Committed, Options,
                                                    Pool.get());
          !Restored.ok())
        return HardStop(Restored.message());
      Outcome.Status = PassStatus::RolledBack;
      Outcome.Transformations = 0;
      if (FnFailures.empty())
        break;
      // Partial commit: the failing functions' edits are gone with the
      // rollback, but the other functions' edits should not be — re-run
      // the request with the failed functions skipped. Those functions
      // already succeeded once and passes are deterministic, so this
      // reapplies their edits; injection is suspended and the budget
      // waived like any other replay.
      std::set<size_t> SkipFns;
      for (const FunctionFailure &F : FnFailures)
        SkipFns.insert(F.FnIndex);
      PipelineOptions ReRun = Options;
      ReRun.PassTimeoutMs = 0;
      std::vector<FunctionFailure> ReFailures;
      ErrorOr<unsigned> CountOr = [&]() -> ErrorOr<unsigned> {
        FaultInjector::ScopedSuspend NoInjection;
        try {
          return executePass(Unit, Req, ReRun, Pool.get(), SkipFns,
                             ReFailures);
        } catch (const std::exception &E) {
          return MaoStatus::error(E.what());
        }
      }();
      // The surviving functions must also stand alone: a function of a
      // non-shardable pass may have read its failed neighbour's edits, and
      // any function's edits may only have verified in combination with
      // them. If not, drop the whole pass.
      if (CountOr.ok() && ReFailures.empty() &&
          (!Options.VerifyAfterEachPass ||
           verifyAfterPass(Unit, Options, Req.PassName).clean())) {
        Committed.push_back({&Req, std::move(SkipFns)});
        Outcome.Transformations = *CountOr;
      } else if (MaoStatus Dropped = rollbackToCheckpoint(
                     Unit, Checkpoint, Committed, Options, Pool.get());
                 !Dropped.ok()) {
        return HardStop(Dropped.message());
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
  // A rollback replays passes after their verification: check the kept
  // CFGs once more at the end.
  if (Options.VerifyAfterEachPass && Options.PerPassVerify.CheckStructure &&
      !Requests.empty()) {
    VerifierReport Report =
        verifyKeptAnalyses(Unit, Options.Diags, "pipeline");
    if (!Report.clean()) {
      Result.Ok = false;
      Result.Error = Report.firstMessage();
    }
  }
  return Result;
}
