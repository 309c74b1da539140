//===- tests/PipelineTest.cpp - Transactional pass runner tests ---------------==//
//
// Exercises the robustness machinery end to end: failing passes (exception,
// verifier-invalid IR, go()==false, wall-clock budget) under each on-error
// policy, with the rollback cases asserting byte-identical restoration of
// the pre-pass unit, plus determinism of the fault injector.
//
//===----------------------------------------------------------------------===//

#include "asm/AsmEmitter.h"
#include "asm/Parser.h"
#include "check/Lint.h"
#include "ir/Verifier.h"
#include "pass/MaoPass.h"
#include "support/FaultInjection.h"
#include "support/Options.h"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>

using namespace mao;

namespace {

// The add/test/je run is REDTEST's paper pattern: the add already set
// ZF/SF/PF for %rbx, so the self-test is removable. A healthy pass in the
// pipeline must have something to transform.
const char *const TestAsm = R"(	.text
	.type f, @function
f:
	movq %rax, %rbx
	addq $1, %rbx
	testq %rbx, %rbx
	je .L1
	addq $2, %rax
.L1:
	ret
	.size f, .-f
)";

MaoUnit parseOk(const std::string &Text) {
  linkAllPasses(); // The built-in passes (REDTEST, ZEE, ...) must register.
  auto UnitOr = parseAssembly(Text);
  EXPECT_TRUE(UnitOr.ok());
  return std::move(*UnitOr);
}

/// Mutates the function (erases its first instruction) and then throws:
/// the edit must vanish under the rollback policy.
class ThrowingPass : public MaoFunctionPass {
public:
  ThrowingPass(MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : MaoFunctionPass("TESTTHROW", Options, Unit, Fn) {}
  bool go() override {
    for (auto It = function().begin(); It != function().end(); ++It)
      if (It->isInstruction()) {
        unit().erase(It.underlying());
        countTransformation();
        break;
      }
    throw std::runtime_error("pass blew up mid-edit");
  }
};
REGISTER_FUNC_PASS("TESTTHROW", ThrowingPass)

/// Reports success but leaves verifier-invalid IR behind (a duplicate
/// definition of the function's entry label).
class CorruptingPass : public MaoFunctionPass {
public:
  CorruptingPass(MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : MaoFunctionPass("TESTBADIR", Options, Unit, Fn) {}
  bool go() override {
    unit().append(MaoEntry::makeLabel(function().name()));
    countTransformation();
    return true;
  }
};
REGISTER_FUNC_PASS("TESTBADIR", CorruptingPass)

/// Burns wall-clock time; used to trip the per-pass budget.
class SleepingPass : public MaoFunctionPass {
public:
  SleepingPass(MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : MaoFunctionPass("TESTSLEEP", Options, Unit, Fn) {}
  bool go() override {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return true;
  }
};
REGISTER_FUNC_PASS("TESTSLEEP", SleepingPass)

/// Fails the classic way: go() returns false without mutating anything.
class FailingPass : public MaoFunctionPass {
public:
  FailingPass(MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : MaoFunctionPass("TESTFALSE", Options, Unit, Fn) {}
  bool go() override { return false; }
};
REGISTER_FUNC_PASS("TESTFALSE", FailingPass)

std::vector<PassRequest> requests(std::initializer_list<const char *> Names) {
  std::vector<PassRequest> Out;
  for (const char *Name : Names) {
    PassRequest Req;
    Req.PassName = Name;
    Out.push_back(Req);
  }
  return Out;
}

PipelineOptions rollbackOptions() {
  PipelineOptions Options;
  Options.OnError = OnErrorPolicy::Rollback;
  Options.VerifyAfterEachPass = true;
  return Options;
}

} // namespace

TEST(Pipeline, RollbackOnException) {
  MaoUnit Unit = parseOk(TestAsm);
  const std::string Before = emitAssembly(Unit);

  PipelineResult Result =
      runPasses(Unit, requests({"TESTTHROW"}), rollbackOptions());
  ASSERT_TRUE(Result.Ok) << Result.Error;
  ASSERT_EQ(Result.Outcomes.size(), 1u);
  EXPECT_EQ(Result.Outcomes[0].Status, PassStatus::RolledBack);
  EXPECT_EQ(Result.Outcomes[0].Transformations, 0u);
  EXPECT_NE(Result.Outcomes[0].Detail.find("exception"), std::string::npos);

  // The acceptance bar: the unit is byte-identical to the pre-pass state.
  EXPECT_EQ(emitAssembly(Unit), Before);
  EXPECT_TRUE(verifyUnit(Unit).clean());
}

TEST(Pipeline, RollbackOnVerifierFailure) {
  MaoUnit Unit = parseOk(TestAsm);
  const std::string Before = emitAssembly(Unit);

  PipelineResult Result =
      runPasses(Unit, requests({"TESTBADIR"}), rollbackOptions());
  ASSERT_TRUE(Result.Ok) << Result.Error;
  ASSERT_EQ(Result.Outcomes.size(), 1u);
  EXPECT_EQ(Result.Outcomes[0].Status, PassStatus::RolledBack);
  EXPECT_NE(Result.Outcomes[0].Detail.find("verifier"), std::string::npos);
  EXPECT_EQ(emitAssembly(Unit), Before);
}

TEST(Pipeline, RemainingPassesRunAfterRollback) {
  MaoUnit Unit = parseOk(TestAsm);

  PipelineResult Result = runPasses(
      Unit, requests({"TESTTHROW", "REDTEST", "TESTBADIR", "ZEE"}),
      rollbackOptions());
  ASSERT_TRUE(Result.Ok) << Result.Error;
  ASSERT_EQ(Result.Outcomes.size(), 4u);
  EXPECT_EQ(Result.Outcomes[0].Status, PassStatus::RolledBack);
  EXPECT_EQ(Result.Outcomes[1].Status, PassStatus::Ok);
  EXPECT_EQ(Result.Outcomes[2].Status, PassStatus::RolledBack);
  EXPECT_EQ(Result.Outcomes[3].Status, PassStatus::Ok);
  EXPECT_EQ(Result.failureCount(), 2u);
  // The healthy pass between the failing ones really transformed: the
  // duplicated redundant test is gone.
  ASSERT_EQ(Result.Counts.size(), 4u);
  EXPECT_EQ(Result.Counts[1].first, "REDTEST");
  EXPECT_GT(Result.Counts[1].second, 0u);
  EXPECT_TRUE(verifyUnit(Unit).clean());
}

TEST(Pipeline, RollbackUsesLazyCheckpointProvider) {
  MaoUnit Unit = parseOk(TestAsm);
  const std::string Before = emitAssembly(Unit);

  // With a provider the runner takes no eager snapshot: the provider is
  // consulted exactly once, on the first rollback, and later rollbacks
  // reuse the materialized checkpoint.
  unsigned ProviderCalls = 0;
  PipelineOptions Options = rollbackOptions();
  Options.CheckpointProvider = [&ProviderCalls]() -> ErrorOr<MaoUnit> {
    ++ProviderCalls;
    auto UnitOr = parseAssembly(TestAsm);
    EXPECT_TRUE(UnitOr.ok());
    return UnitOr;
  };

  PipelineResult Result = runPasses(
      Unit, requests({"REDTEST", "TESTTHROW", "TESTBADIR"}), Options);
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_EQ(ProviderCalls, 1u);
  ASSERT_EQ(Result.Outcomes.size(), 3u);
  EXPECT_EQ(Result.Outcomes[0].Status, PassStatus::Ok);
  EXPECT_EQ(Result.Outcomes[1].Status, PassStatus::RolledBack);
  EXPECT_EQ(Result.Outcomes[2].Status, PassStatus::RolledBack);
  // Both rollbacks land on the post-REDTEST state: REDTEST's edit
  // survives, the failing passes' edits do not.
  MaoUnit Expected = parseOk(TestAsm);
  PipelineResult Ref = runPasses(Expected, requests({"REDTEST"}),
                                 rollbackOptions());
  ASSERT_TRUE(Ref.Ok);
  EXPECT_NE(emitAssembly(Unit), Before);
  EXPECT_EQ(emitAssembly(Unit), emitAssembly(Expected));
  EXPECT_TRUE(verifyUnit(Unit).clean());
}

TEST(Pipeline, SkipPolicyKeepsPartialEdits) {
  MaoUnit Unit = parseOk(TestAsm);
  const std::string Before = emitAssembly(Unit);

  PipelineOptions Options;
  Options.OnError = OnErrorPolicy::Skip;
  Options.VerifyAfterEachPass = true;
  PipelineResult Result = runPasses(Unit, requests({"TESTBADIR"}), Options);
  ASSERT_TRUE(Result.Ok) << Result.Error;
  ASSERT_EQ(Result.Outcomes.size(), 1u);
  EXPECT_EQ(Result.Outcomes[0].Status, PassStatus::Skipped);
  // Skip documents that the corrupt state is kept.
  EXPECT_NE(emitAssembly(Unit), Before);
  EXPECT_FALSE(verifyUnit(Unit).clean());
}

TEST(Pipeline, AbortPolicyStopsPipeline) {
  MaoUnit Unit = parseOk(TestAsm);

  PipelineResult Result =
      runPasses(Unit, requests({"TESTFALSE", "REDTEST"}));
  EXPECT_FALSE(Result.Ok);
  ASSERT_EQ(Result.Outcomes.size(), 1u);
  EXPECT_EQ(Result.Outcomes[0].Status, PassStatus::Failed);
  EXPECT_NE(Result.Error.find("TESTFALSE"), std::string::npos);
}

TEST(Pipeline, TimeoutTriggersPolicy) {
  MaoUnit Unit = parseOk(TestAsm);
  const std::string Before = emitAssembly(Unit);

  PipelineOptions Options = rollbackOptions();
  Options.PassTimeoutMs = 5;
  PipelineResult Result = runPasses(Unit, requests({"TESTSLEEP"}), Options);
  ASSERT_TRUE(Result.Ok) << Result.Error;
  ASSERT_EQ(Result.Outcomes.size(), 1u);
  EXPECT_EQ(Result.Outcomes[0].Status, PassStatus::RolledBack);
  EXPECT_NE(Result.Outcomes[0].Detail.find("budget"), std::string::npos);
  EXPECT_GE(Result.Outcomes[0].WallMs, 5.0);
  EXPECT_EQ(emitAssembly(Unit), Before);
}

TEST(Pipeline, UnknownPassFollowsPolicy) {
  MaoUnit Unit = parseOk(TestAsm);
  PipelineResult Result =
      runPasses(Unit, requests({"NOSUCHPASS", "REDTEST"}), rollbackOptions());
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_EQ(Result.Outcomes[0].Status, PassStatus::RolledBack);
  EXPECT_EQ(Result.Outcomes[1].Status, PassStatus::Ok);
}

TEST(Pipeline, LintExitCodeContract) {
  // The documented mao --lint contract: 0 clean, 1 findings (any warning
  // or error), 2 internal error.
  LintResult Clean;
  EXPECT_EQ(lintExitCode(Clean), 0);

  LintResult Warned;
  Warned.Warnings = 1;
  EXPECT_EQ(lintExitCode(Warned), 1);

  LintResult Errored;
  Errored.Errors = 2;
  EXPECT_EQ(lintExitCode(Errored), 1);

  LintResult NotesOnly;
  NotesOnly.Notes = 3;
  EXPECT_EQ(lintExitCode(NotesOnly), 0); // Notes are advisory.

  LintResult Internal;
  Internal.Warnings = 5; // Internal error dominates any findings.
  Internal.InternalError = true;
  EXPECT_EQ(lintExitCode(Internal), 2);
}

TEST(Pipeline, LintRunMatchesContract) {
  DiagEngine Diags;

  // Clean input -> 0.
  MaoUnit Clean = parseOk("\t.text\n\t.type f, @function\nf:\n"
                          "\tmovq %rdi, %rax\n\tret\n\t.size f, .-f\n");
  EXPECT_EQ(lintExitCode(lintUnit(Clean, LintOptions(), Diags)), 0);

  // A use-before-def finding -> 1; --lint-werror keeps it 1 but promotes
  // the severity to Error.
  const char *Dirty = "\t.text\n\t.type f, @function\nf:\n"
                      "\tmovq %r10, %rax\n\tret\n\t.size f, .-f\n";
  MaoUnit Warn = parseOk(Dirty);
  LintResult Plain = lintUnit(Warn, LintOptions(), Diags);
  EXPECT_EQ(lintExitCode(Plain), 1);
  EXPECT_GE(Plain.Warnings, 1u);
  EXPECT_EQ(Plain.Errors, 0u);

  MaoUnit Werror = parseOk(Dirty);
  LintOptions Opts;
  Opts.WarningsAsErrors = true;
  LintResult Promoted = lintUnit(Werror, Opts, Diags);
  EXPECT_EQ(lintExitCode(Promoted), 1);
  EXPECT_EQ(Promoted.Warnings, 0u);
  EXPECT_GE(Promoted.Errors, 1u);
}

TEST(Pipeline, CommandLineParsesCheckFlags) {
  auto CmdOr = parseCommandLine({"--lint", "--lint-werror",
                                 "--mao-validate=semantic",
                                 "--mao-sarif=out.sarif", "in.s"});
  ASSERT_TRUE(CmdOr.ok()) << CmdOr.message();
  EXPECT_TRUE(CmdOr->Lint);
  EXPECT_TRUE(CmdOr->LintWerror);
  EXPECT_EQ(CmdOr->Validate, "semantic");
  EXPECT_EQ(CmdOr->SarifPath, "out.sarif");

  EXPECT_FALSE(parseCommandLine({"--mao-validate=bogus", "in.s"}).ok());
  EXPECT_FALSE(parseCommandLine({"--mao-sarif=", "in.s"}).ok());
}

TEST(Pipeline, FaultInjectionIsDeterministic) {
  // Same spec and seed must produce the same per-pass outcome sequence,
  // independent of any draws made before configure() re-arms the streams.
  auto Run = [](uint64_t Seed) {
    EXPECT_TRUE(
        FaultInjector::instance().configure("pass:500", Seed).ok());
    MaoUnit Unit = parseOk(TestAsm);
    PipelineResult Result = runPasses(
        Unit,
        requests({"REDTEST", "REDTEST", "REDTEST", "REDTEST", "REDTEST",
                  "REDTEST", "REDTEST", "REDTEST"}),
        rollbackOptions());
    EXPECT_TRUE(Result.Ok) << Result.Error;
    std::vector<PassStatus> Statuses;
    for (const PassOutcome &Outcome : Result.Outcomes)
      Statuses.push_back(Outcome.Status);
    return Statuses;
  };

  std::vector<PassStatus> First = Run(42);
  std::vector<PassStatus> Second = Run(42);
  FaultInjector::instance().reset();
  EXPECT_EQ(First, Second);
  // At 500 permille over eight draws, seed 42 must inject at least once;
  // a never-firing injector would make the determinism check vacuous.
  unsigned Failures = 0;
  for (PassStatus S : First)
    if (S != PassStatus::Ok)
      ++Failures;
  EXPECT_GT(Failures, 0u);
}

TEST(Pipeline, InjectedFaultsAreContained) {
  // Under rollback, injected pass-runner faults must leave a verifier-clean
  // unit behind regardless of which passes they hit.
  EXPECT_TRUE(FaultInjector::instance().configure("pass:300", 7).ok());
  MaoUnit Unit = parseOk(TestAsm);
  PipelineResult Result = runPasses(
      Unit, requests({"ZEE", "REDTEST", "REDMOV", "ADDADD", "LOOP16"}),
      rollbackOptions());
  FaultInjector::instance().reset();
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_TRUE(verifyUnit(Unit).clean());
}

// ADDADD folds the two adds after the .text re-entry, erasing the entry
// that begins the function's second range. Every later pass must read
// views rebuilt after that erase, not walk from the freed node.
TEST(Pipeline, PassAfterEraseAtRangeStartSeesRebuiltViews) {
  const char *const Asm = R"(	.text
	.globl	f
	.type	f, @function
f:
	movl	$1, %eax
	jmp	.L2
	.section	.rodata
.LC0:
	.long	5
	.text
	addl	$3, %eax
	addl	$4, %eax
.L2:
	ret
	.size	f, .-f
)";
  for (const char *Pipeline :
       {"ADDADD,SCHED", "ADDADD,LOOP16",
        "ZEE,REDTEST,REDMOV,ADDADD,LOOP16,SCHED"}) {
    std::string Reference;
    for (unsigned Jobs : {1u, 4u}) {
      MaoUnit Unit = parseOk(Asm);
      std::vector<PassRequest> Requests;
      ASSERT_TRUE(
          PassRegistry::instance().parsePipeline(Pipeline, Requests).ok());
      PipelineOptions Options;
      Options.Jobs = Jobs;
      PipelineResult Result = runPasses(Unit, Requests, Options);
      ASSERT_TRUE(Result.Ok) << Pipeline << ": " << Result.Error;
      for (const auto &[Name, Count] : Result.Counts)
        EXPECT_TRUE(Name != "ADDADD" || Count == 1u)
            << Pipeline << ": ADDADD must fold the pair";
      VerifierReport Report = verifyUnit(Unit);
      EXPECT_TRUE(Report.clean()) << Pipeline << ": " << Report.firstMessage();
      const std::string Out = emitAssembly(Unit);
      if (Jobs == 1)
        Reference = Out;
      else
        EXPECT_EQ(Out, Reference) << Pipeline << " at jobs=" << Jobs;
    }
  }
}
