//===- tests/ParallelPipelineTest.cpp - Sharded pass pipeline tests ----------==//
//
// Exercises the per-function pass executor: bit-identical output across
// worker counts (the pipeline's core determinism guarantee), per-shard
// failure isolation under every on-error policy, and the ThreadPool
// primitive itself.
//
//===----------------------------------------------------------------------===//

#include "asm/AsmEmitter.h"
#include "asm/Parser.h"
#include "ir/Verifier.h"
#include "pass/MaoPass.h"
#include "support/Options.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace mao;

namespace {

MaoUnit parseOk(const std::string &Text) {
  linkAllPasses();
  auto UnitOr = parseAssembly(Text);
  EXPECT_TRUE(UnitOr.ok()) << UnitOr.message();
  return std::move(*UnitOr);
}

/// Strips every NOP in the function; on functions whose name starts with
/// "bad" it throws *after* the first removal, leaving a half-done edit
/// behind — the scenario the per-function transaction machinery must
/// contain.
class NopStripPass : public MaoFunctionPass {
public:
  NopStripPass(const char *Name, const MaoOptionMap *Options, MaoUnit *Unit,
               MaoFunction *Fn)
      : MaoFunctionPass(Name, Options, Unit, Fn) {}
  bool go() override {
    const bool Bad = function().name().rfind("bad", 0) == 0;
    std::vector<EntryIter> Doomed;
    for (auto It = function().begin(), E = function().end(); It != E; ++It)
      if (It->isInstruction() && It->instruction().isNop())
        Doomed.push_back(It.underlying());
    for (EntryIter It : Doomed) {
      unit().erase(It);
      countTransformation();
      if (Bad)
        throw std::runtime_error("injected shard failure in " +
                                 function().name());
    }
    return true;
  }
};

class ShardNopStripPass : public NopStripPass {
public:
  ShardNopStripPass(const MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : NopStripPass("TESTSHARDNOP", Options, Unit, Fn) {}
};
REGISTER_SHARDED_FUNC_PASS("TESTSHARDNOP", ShardNopStripPass)

/// The same pass registered without the sharding contract: it runs inline
/// at every worker count, through the same executor.
class InlineNopStripPass : public NopStripPass {
public:
  InlineNopStripPass(const MaoOptionMap *Options, MaoUnit *Unit,
                     MaoFunction *Fn)
      : NopStripPass("TESTINLINENOP", Options, Unit, Fn) {}
};
REGISTER_FUNC_PASS("TESTINLINENOP", InlineNopStripPass)

/// Strips NOPs like TESTINLINENOP, but fails on f3 while `bad` still has a
/// NOP: f3's outcome depends on its neighbour's edits, which only a
/// non-shardable pass may read.
class NeighbourReadingPass : public NopStripPass {
public:
  NeighbourReadingPass(const MaoOptionMap *Options, MaoUnit *Unit,
                       MaoFunction *Fn)
      : NopStripPass("TESTNEIGHBOUR", Options, Unit, Fn) {}
  bool go() override {
    if (function().name() == "f3")
      for (const MaoEntry &E : *unit().findFunction("bad"))
        if (E.isInstruction() && E.instruction().isNop())
          return false;
    return NopStripPass::go();
  }
};
REGISTER_FUNC_PASS("TESTNEIGHBOUR", NeighbourReadingPass)

// Three functions, one NOP each; the middle one fails mid-edit.
const char *const IsolationAsm = R"(	.text
	.type f1, @function
f1:
	movq %rax, %rbx
	nop
	ret
	.size f1, .-f1
	.type bad, @function
bad:
	nop
	addq $1, %rax
	ret
	.size bad, .-bad
	.type f3, @function
f3:
	nop
	ret
	.size f3, .-f3
)";

unsigned countNops(const MaoUnit &Unit) {
  unsigned N = 0;
  for (const MaoEntry &E : Unit.entries())
    if (E.isInstruction() && E.instruction().isNop())
      ++N;
  return N;
}

/// A pipeline run's observable behaviour: the emitted assembly plus the
/// per-pass statuses and transformation counts.
struct RunSnapshot {
  bool Ok = false;
  std::string Asm;
  std::vector<PassStatus> Statuses;
  std::vector<unsigned> Counts;
};

RunSnapshot runWithJobs(const std::string &Source, const std::string &PassLine,
                        unsigned Jobs,
                        OnErrorPolicy Policy = OnErrorPolicy::Rollback) {
  MaoUnit Unit = parseOk(Source);
  std::vector<PassRequest> Requests;
  EXPECT_TRUE(parseMaoOption(PassLine, Requests).ok());

  PipelineOptions Options;
  Options.OnError = Policy;
  Options.VerifyAfterEachPass = Policy != OnErrorPolicy::Abort;
  Options.Jobs = Jobs;
  Options.CollectStats = true; // Stats must not perturb sharded runs.

  PipelineResult Result = runPasses(Unit, Requests, Options);
  RunSnapshot Snap;
  Snap.Ok = Result.Ok;
  Snap.Asm = emitAssembly(Unit);
  for (const PassOutcome &Outcome : Result.Outcomes) {
    Snap.Statuses.push_back(Outcome.Status);
    Snap.Counts.push_back(Outcome.Transformations);
  }
  return Snap;
}

/// A multi-function corpus with instances of every sharded pass's target
/// pattern, so the determinism comparison exercises real edits (including
/// entry insertions and deletions) in every shard.
std::string parallelCorpus() {
  WorkloadSpec Spec;
  Spec.Name = "parallel-corpus";
  Spec.Seed = 11;
  Spec.Functions = 12;
  Spec.FillerPerFunction = 40;
  Spec.ZeroExtPatterns = 8;
  Spec.RedundantTests = 10;
  Spec.HarmlessTests = 8;
  Spec.RedundantLoads = 8;
  Spec.AddAddPairs = 6;
  Spec.SplitShortLoops = 3;
  Spec.AlignedShortLoops = 2;
  return generateWorkloadAssembly(Spec);
}

} // namespace

//===----------------------------------------------------------------------===//
// ThreadPool primitive.
//===----------------------------------------------------------------------===//

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.workerCount(), 4u);
  std::vector<std::atomic<unsigned>> Hits(257);
  for (auto &H : Hits)
    H = 0;
  Pool.parallelFor(Hits.size(), [&](size_t I) { ++Hits[I]; });
  for (const auto &H : Hits)
    EXPECT_EQ(H.load(), 1u);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.workerCount(), 1u);
  unsigned Sum = 0; // Unsynchronized on purpose: must run on this thread.
  Pool.parallelFor(100, [&](size_t I) { Sum += static_cast<unsigned>(I); });
  EXPECT_EQ(Sum, 4950u);
}

TEST(ThreadPool, ExceptionPropagatesAfterDrain) {
  ThreadPool Pool(4);
  std::atomic<unsigned> Ran{0};
  EXPECT_THROW(Pool.parallelFor(64,
                                [&](size_t I) {
                                  ++Ran;
                                  if (I == 13)
                                    throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The barrier still drained the range: no task is left running.
  EXPECT_EQ(Ran.load(), 64u);
}

//===----------------------------------------------------------------------===//
// Determinism across worker counts.
//===----------------------------------------------------------------------===//

TEST(ParallelPipeline, OutputIdenticalAcrossWorkerCounts) {
  const std::string Source = parallelCorpus();
  // Sharded peepholes and NOP passes interleaved with a whole-unit barrier
  // (LOOP16 relaxes the full unit and must see every shard's edits).
  const std::string Line =
      "NOPIN=seed[7],density[25]:ZEE:REDTEST:REDMOV:ADDADD:LOOP16:"
      "NOPKILL:SCHED";

  RunSnapshot Jobs1 = runWithJobs(Source, Line, 1);
  ASSERT_TRUE(Jobs1.Ok);
  for (unsigned Jobs : {2u, 4u}) {
    RunSnapshot JobsN = runWithJobs(Source, Line, Jobs);
    ASSERT_TRUE(JobsN.Ok);
    EXPECT_EQ(JobsN.Asm, Jobs1.Asm) << "jobs=" << Jobs;
    EXPECT_EQ(JobsN.Statuses, Jobs1.Statuses) << "jobs=" << Jobs;
    EXPECT_EQ(JobsN.Counts, Jobs1.Counts) << "jobs=" << Jobs;
  }
  // The pass line did real work; identical-but-untouched would be vacuous.
  unsigned Total = 0;
  for (unsigned C : Jobs1.Counts)
    Total += C;
  EXPECT_GT(Total, 0u);
}

/// Churns the arena from every shard at once: for each instruction the
/// pass inserts a scratch NOP and erases it again, cycling list nodes
/// through the arena's free bins while other shards allocate, then lands
/// one real NOP at the function head so the run has observable output.
/// Under TSAN this is the allocation contract test for the arena-backed
/// entry list.
class ShardArenaChurnPass : public MaoFunctionPass {
public:
  ShardArenaChurnPass(const MaoOptionMap *Options, MaoUnit *Unit,
                      MaoFunction *Fn)
      : MaoFunctionPass("TESTARENACHURN", Options, Unit, Fn) {}
  bool go() override {
    std::vector<EntryIter> Insns;
    for (auto It = function().begin(), E = function().end(); It != E; ++It)
      if (It->isInstruction())
        Insns.push_back(It.underlying());
    for (EntryIter It : Insns) {
      EntryIter Scratch = unit().insertBefore(
          It, MaoEntry::makeInstruction(parseInstructionLine("nop")));
      unit().erase(Scratch);
    }
    if (!Insns.empty()) {
      unit().insertBefore(Insns.front(),
                          MaoEntry::makeInstruction(parseInstructionLine(
                              "nop")));
      countTransformation();
    }
    return true;
  }
};
REGISTER_SHARDED_FUNC_PASS("TESTARENACHURN", ShardArenaChurnPass)

TEST(ParallelPipeline, ArenaChurnCleanAndIdenticalAcrossJobs) {
  const std::string Source = parallelCorpus();
  RunSnapshot Jobs1 = runWithJobs(Source, "TESTARENACHURN", 1);
  ASSERT_TRUE(Jobs1.Ok);
  for (unsigned Jobs : {2u, 4u}) {
    RunSnapshot JobsN = runWithJobs(Source, "TESTARENACHURN", Jobs);
    ASSERT_TRUE(JobsN.Ok);
    EXPECT_EQ(JobsN.Asm, Jobs1.Asm) << "jobs=" << Jobs;
    EXPECT_EQ(JobsN.Counts, Jobs1.Counts) << "jobs=" << Jobs;
  }
  unsigned Total = 0;
  for (unsigned C : Jobs1.Counts)
    Total += C;
  EXPECT_GT(Total, 0u);
}

/// Traces one line per function, the first one after a delay: on the
/// pool its line comes last unless the runner buffers trace lines per
/// shard and writes them in function order.
class TraceOrderPass : public MaoFunctionPass {
public:
  TraceOrderPass(const MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : MaoFunctionPass("TESTTRACEORDER", Options, Unit, Fn) {}
  bool go() override {
    if (&function() == &unit().functions().front())
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    trace(0, "%s", function().name().c_str());
    return true;
  }
};
REGISTER_SHARDED_FUNC_PASS("TESTTRACEORDER", TraceOrderPass)

TEST(ParallelPipeline, TraceLinesInFunctionOrderAcrossJobs) {
  std::string Source = "\t.text\n", Want;
  for (unsigned I = 0; I < 8; ++I) {
    const std::string F = "f" + std::to_string(I);
    Source += "\t.type " + F + ", @function\n" + F + ":\n\tret\n";
    Want += "[TESTTRACEORDER] " + F + "\n";
  }
  for (unsigned Jobs : {1u, 4u}) {
    MaoUnit Unit = parseOk(Source);
    std::vector<PassRequest> Requests;
    ASSERT_TRUE(parseMaoOption("TESTTRACEORDER", Requests).ok());
    PipelineOptions Options;
    Options.Jobs = Jobs;
    std::string Log;
    LogWriter Prev =
        setLogWriter([&](const std::string &Text) { Log += Text; });
    PipelineResult Result = runPasses(Unit, Requests, Options);
    setLogWriter(std::move(Prev));
    ASSERT_TRUE(Result.Ok) << Result.Error;
    EXPECT_EQ(Log, Want) << "jobs=" << Jobs;
  }
}

TEST(ParallelPipeline, NopKillAtSplitRunStartIdenticalAcrossJobs) {
  // Every function is split by a .rodata excursion, and its re-entered
  // .text run starts with a nop. NOPKILL erases it from its shard, which
  // moves the Begin of a shared section run (no shard reads sections()).
  // The views stay current, and jobs=4 gives the bytes of jobs=1.
  std::string Source = "\t.text\n";
  for (unsigned I = 0; I < 8; ++I) {
    const std::string N = std::to_string(I), F = "f" + N;
    Source += "\t.type " + F + ", @function\n" + F + ":\n";
    Source += "\tmovl $" + N + ", %eax\n\tjmp .LR" + N + "\n";
    Source += "\t.section .rodata\n.LC" + N + ":\n\t.long " + N + "\n";
    Source += "\t.text\n\tnop\n\taddl $1, %eax\n.LR" + N + ":\n\tret\n";
    Source += "\t.size " + F + ", .-" + F + "\n";
  }
  std::string Reference;
  for (unsigned Jobs : {1u, 4u}) {
    MaoUnit Unit = parseOk(Source);
    std::vector<PassRequest> Requests;
    ASSERT_TRUE(parseMaoOption("NOPKILL:SCHED", Requests).ok());
    PipelineOptions Options;
    Options.Jobs = Jobs;
    PipelineResult Result = runPasses(Unit, Requests, Options);
    ASSERT_TRUE(Result.Ok) << Result.Error;
    EXPECT_EQ(Result.Counts[0].second, 8u);
    VerifierReport Report = verifyUnit(Unit);
    EXPECT_TRUE(Report.clean()) << "jobs=" << Jobs << ": "
                                << Report.firstMessage();
    const std::string Asm = emitAssembly(Unit);
    if (Jobs == 1)
      Reference = Asm;
    else
      EXPECT_EQ(Asm, Reference);
  }
}

TEST(ParallelPipeline, RepeatedParallelRunsAreStable) {
  // Scheduling nondeterminism must never leak: the same parallel run twice
  // produces the same bytes (this would flake, not fail reliably, if shard
  // scheduling influenced results — it still documents the invariant).
  const std::string Source = parallelCorpus();
  const std::string Line = "ZEE:REDTEST:REDMOV:ADDADD:SCHED";
  RunSnapshot First = runWithJobs(Source, Line, 4);
  RunSnapshot Second = runWithJobs(Source, Line, 4);
  ASSERT_TRUE(First.Ok);
  ASSERT_TRUE(Second.Ok);
  EXPECT_EQ(First.Asm, Second.Asm);
}

//===----------------------------------------------------------------------===//
// Per-shard failure isolation.
//===----------------------------------------------------------------------===//

TEST(ParallelPipeline, ShardFailureRollsBackOnlyThatFunction) {
  for (unsigned Jobs : {1u, 4u}) {
    MaoUnit Unit = parseOk(IsolationAsm);
    PipelineOptions Options;
    Options.OnError = OnErrorPolicy::Rollback;
    Options.VerifyAfterEachPass = true;
    Options.Jobs = Jobs;

    std::vector<PassRequest> Requests(1);
    Requests[0].PassName = "TESTSHARDNOP";
    PipelineResult Result = runPasses(Unit, Requests, Options);
    ASSERT_TRUE(Result.Ok) << Result.Error;
    ASSERT_EQ(Result.Outcomes.size(), 1u);
    EXPECT_EQ(Result.Outcomes[0].Status, PassStatus::RolledBack);
    EXPECT_NE(Result.Outcomes[0].Detail.find("bad"), std::string::npos);
    // The surviving shards' edits were reapplied: f1 and f3 lost their
    // NOPs, the failing function's half-done edit was rolled back.
    EXPECT_EQ(Result.Outcomes[0].Transformations, 2u);
    EXPECT_EQ(countNops(Unit), 1u);
    const std::string After = emitAssembly(Unit);
    EXPECT_NE(After.find("bad"), std::string::npos);
    EXPECT_TRUE(verifyUnit(Unit).clean());
  }
}

TEST(ParallelPipeline, ShardFailureUnderSkipKeepsPartialEdits) {
  for (unsigned Jobs : {1u, 4u}) {
    MaoUnit Unit = parseOk(IsolationAsm);
    PipelineOptions Options;
    Options.OnError = OnErrorPolicy::Skip;
    Options.VerifyAfterEachPass = true;
    Options.Jobs = Jobs;

    std::vector<PassRequest> Requests(1);
    Requests[0].PassName = "TESTSHARDNOP";
    PipelineResult Result = runPasses(Unit, Requests, Options);
    ASSERT_TRUE(Result.Ok) << Result.Error;
    EXPECT_EQ(Result.Outcomes[0].Status, PassStatus::Skipped);
    // Skip documents that whatever state the shards left is kept — here
    // even the failing shard's edit happened before it threw.
    EXPECT_EQ(countNops(Unit), 0u);
  }
}

TEST(ParallelPipeline, ShardFailureUnderAbortStopsPipeline) {
  for (unsigned Jobs : {1u, 4u}) {
    MaoUnit Unit = parseOk(IsolationAsm);
    PipelineOptions Options;
    Options.OnError = OnErrorPolicy::Abort;
    Options.Jobs = Jobs;

    std::vector<PassRequest> Requests(2);
    Requests[0].PassName = "TESTSHARDNOP";
    Requests[1].PassName = "ZEE";
    PipelineResult Result = runPasses(Unit, Requests, Options);
    EXPECT_FALSE(Result.Ok);
    ASSERT_EQ(Result.Outcomes.size(), 1u);
    EXPECT_EQ(Result.Outcomes[0].Status, PassStatus::Failed);
    EXPECT_NE(Result.Error.find("bad"), std::string::npos);
  }
}

TEST(ParallelPipeline, ShardFailureBehaviourIdenticalAcrossJobs) {
  // The isolation scenario itself must be jobs-invariant: rollback + rerun
  // with one worker and with four produce byte-identical units.
  RunSnapshot Jobs1 = runWithJobs(IsolationAsm, "TESTSHARDNOP:ZEE", 1);
  RunSnapshot Jobs4 = runWithJobs(IsolationAsm, "TESTSHARDNOP:ZEE", 4);
  ASSERT_TRUE(Jobs1.Ok);
  ASSERT_TRUE(Jobs4.Ok);
  EXPECT_EQ(Jobs1.Asm, Jobs4.Asm);
  EXPECT_EQ(Jobs1.Statuses, Jobs4.Statuses);
  EXPECT_EQ(Jobs1.Counts, Jobs4.Counts);
}

TEST(ParallelPipeline, AllFunctionsFailingDropsWholePass) {
  // When every shard fails there is nothing to partially commit: the pass
  // rolls back to a no-op and the pipeline continues.
  const char *const AllBadAsm = R"(	.text
	.type bad1, @function
bad1:
	nop
	ret
	.size bad1, .-bad1
	.type bad2, @function
bad2:
	nop
	ret
	.size bad2, .-bad2
)";
  for (unsigned Jobs : {1u, 4u}) {
    MaoUnit Unit = parseOk(AllBadAsm);
    const std::string Before = emitAssembly(Unit);
    PipelineOptions Options;
    Options.OnError = OnErrorPolicy::Rollback;
    Options.VerifyAfterEachPass = true;
    Options.Jobs = Jobs;

    std::vector<PassRequest> Requests(1);
    Requests[0].PassName = "TESTSHARDNOP";
    PipelineResult Result = runPasses(Unit, Requests, Options);
    ASSERT_TRUE(Result.Ok) << Result.Error;
    EXPECT_EQ(Result.Outcomes[0].Status, PassStatus::RolledBack);
    EXPECT_EQ(Result.Outcomes[0].Transformations, 0u);
    EXPECT_EQ(emitAssembly(Unit), Before);
  }
}

TEST(ParallelPipeline, NonShardablePassFailsPerFunctionLikeAShardedOne) {
  // Shardability only decides whether the pool may run a pass's functions;
  // a non-shardable pass gets the same per-function failure isolation.
  // Under rollback only `bad` loses its edit, under skip the functions
  // after it still run, and under abort the pipeline stops after the
  // request — the same statuses, counts and bytes as TESTSHARDNOP, at
  // every worker count.
  for (OnErrorPolicy Policy :
       {OnErrorPolicy::Rollback, OnErrorPolicy::Skip, OnErrorPolicy::Abort}) {
    const RunSnapshot Sharded =
        runWithJobs(IsolationAsm, "TESTSHARDNOP:ZEE", 1, Policy);
    for (unsigned Jobs : {1u, 4u}) {
      const RunSnapshot Inline =
          runWithJobs(IsolationAsm, "TESTINLINENOP:ZEE", Jobs, Policy);
      EXPECT_EQ(Inline.Ok, Sharded.Ok) << "jobs=" << Jobs;
      EXPECT_EQ(Inline.Asm, Sharded.Asm) << "jobs=" << Jobs;
      EXPECT_EQ(Inline.Statuses, Sharded.Statuses) << "jobs=" << Jobs;
      EXPECT_EQ(Inline.Counts, Sharded.Counts) << "jobs=" << Jobs;
    }
    ASSERT_FALSE(Sharded.Statuses.empty());
    switch (Policy) {
    case OnErrorPolicy::Rollback:
      EXPECT_EQ(Sharded.Statuses[0], PassStatus::RolledBack);
      EXPECT_EQ(Sharded.Counts[0], 2u);
      EXPECT_EQ(countNops(parseOk(Sharded.Asm)), 1u);
      break;
    case OnErrorPolicy::Skip:
      EXPECT_EQ(Sharded.Statuses[0], PassStatus::Skipped);
      EXPECT_EQ(countNops(parseOk(Sharded.Asm)), 0u);
      break;
    case OnErrorPolicy::Abort:
      EXPECT_FALSE(Sharded.Ok);
      EXPECT_EQ(Sharded.Statuses,
                std::vector<PassStatus>{PassStatus::Failed});
      EXPECT_EQ(countNops(parseOk(Sharded.Asm)), 0u);
      break;
    }
  }
}

TEST(ParallelPipeline, PartialCommitThatFailsAloneDropsWholePass) {
  // `bad` strips its NOP and throws, which lets f3 pass. The partial
  // re-run skips `bad`, so f3 now fails: the surviving functions do not
  // stand alone, and the whole pass is dropped.
  const std::string Before = emitAssembly(parseOk(IsolationAsm));
  for (unsigned Jobs : {1u, 4u}) {
    RunSnapshot Snap = runWithJobs(IsolationAsm, "TESTNEIGHBOUR:ZEE", Jobs);
    ASSERT_TRUE(Snap.Ok);
    EXPECT_EQ(Snap.Statuses,
              (std::vector<PassStatus>{PassStatus::RolledBack,
                                       PassStatus::Ok}));
    EXPECT_EQ(Snap.Counts[0], 0u);
    EXPECT_EQ(Snap.Asm, Before) << "jobs=" << Jobs;
  }
}
