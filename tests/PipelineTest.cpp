//===- tests/PipelineTest.cpp - Transactional pass runner tests ---------------==//
//
// Exercises the robustness machinery end to end: failing passes (exception,
// verifier-invalid IR, go()==false, wall-clock budget) under each on-error
// policy, with the rollback cases asserting byte-identical restoration of
// the pre-pass unit, plus determinism of the fault injector.
//
//===----------------------------------------------------------------------===//

#include "GasOracle.h"
#include "TestCorpus.h"
#include "asm/AsmEmitter.h"
#include "asm/Parser.h"
#include "check/Lint.h"
#include "ir/Verifier.h"
#include "mao/CommandLine.h"
#include "mao/Mao.h"
#include "pass/FunctionAnalyses.h"
#include "pass/MaoPass.h"
#include "support/FaultInjection.h"
#include "support/Options.h"
#include "support/Stats.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>
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
  ThrowingPass(const MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
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
  CorruptingPass(const MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : MaoFunctionPass("TESTBADIR", Options, Unit, Fn) {}
  bool go() override {
    unit().entries().push_back(MaoEntry::makeLabel(function().name()));
    countTransformation();
    return true;
  }
};
REGISTER_FUNC_PASS("TESTBADIR", CorruptingPass)

/// Burns wall-clock time; used to trip the per-pass budget.
class SleepingPass : public MaoFunctionPass {
public:
  SleepingPass(const MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
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
  FailingPass(const MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
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

/// \p F functions, the first \p P of which hold one short loop that
/// straddles a 16-byte line and that LOOP16 pads.
std::string shortLoopFunctions(unsigned F, unsigned P) {
  std::string Text = "\t.text\n";
  for (unsigned I = 0; I < F; ++I) {
    const std::string Fn = "f" + std::to_string(I);
    const std::string L = ".LL" + std::to_string(I);
    Text += "\t.type " + Fn + ", @function\n" + Fn + ":\n";
    // The 8-byte loop sits at 5 (one decode line) or at 14 (two).
    Text += "\tmovl $100, %ecx\n";
    if (I < P)
      Text += "\tnop9\n";
    Text += L + ":\n\taddl $1, %eax\n\tsubl $1, %ecx\n\tjne " + L + "\n";
    Text += "\tret\n\t.size " + Fn + ", .-" + Fn + "\n";
    Text += "\t.p2align 4\n";
  }
  return Text;
}

TEST(Pipeline, Loop16BuildsOneLayoutAndRelaxesOncePerPad) {
  // F functions, P of which hold one straddling short loop: one layout
  // per request, one relaxation up front and one after each pad (P + 1).
  // A function that inserted nothing leaves the layout clean, so its first
  // round reuses the previous relaxation instead of walking the unit
  // again (the whole-unit relaxer paid F + P walks here).
  const unsigned F = 5, P = 3;
  MaoUnit Unit = parseOk(shortLoopFunctions(F, P));
  StatsRegistry &Stats = StatsRegistry::instance();
  Stats.reset();
  PassRequest Req;
  Req.PassName = "LOOP16";
  PipelineResult R = runPasses(Unit, {Req});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Counts[0].second, P);
  EXPECT_EQ(Stats.counter("relax.layouts_built").value(), 1u);
  EXPECT_EQ(Stats.counter("relax.relaxations").value(), P + 1);
  EXPECT_GE(Stats.counter("relax.iterations").value(), P + 1);
  EXPECT_GT(Stats.counter("relax.slots_walked").value(), 0u);
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

TEST(Pipeline, RollbackReplayOfLoop16AlignsTheLoopInGasObject) {
  // LOOP16 pads the .L3 loop at the layout gas produces, so .L3 lands on a
  // 16-byte boundary in gas's object; the replay of the committed LOOP16
  // after a rollback reproduces that output.
  const std::string Text = alignedLoopAsm();
  MaoUnit Alone = parseOk(Text);
  ASSERT_TRUE(runPasses(Alone, requests({"LOOP16"}), rollbackOptions()).Ok);
  const std::string Expected = emitAssembly(Alone);
  ASSERT_NE(Expected, emitAssembly(parseOk(Text)));

  MaoUnit Unit = parseOk(Text);
  PipelineResult Result =
      runPasses(Unit, requests({"LOOP16", "TESTTHROW"}), rollbackOptions());
  ASSERT_TRUE(Result.Ok) << Result.Error;
  ASSERT_EQ(Result.Outcomes.size(), 2u);
  EXPECT_EQ(Result.Outcomes[1].Status, PassStatus::RolledBack);
  EXPECT_EQ(emitAssembly(Unit), Expected);

  if (!haveBinutils())
    GTEST_SKIP() << "binutils not installed";
  std::map<std::string, GasSection> Gas;
  std::string Error;
  ASSERT_TRUE(assembleWithGas(gasDialect(Expected), Gas, &Error)) << Error;
  ASSERT_EQ(Gas[".text"].Labels.count(".L3"), 1u);
  EXPECT_EQ(Gas[".text"].Labels[".L3"] % 16, 0) << Expected;
}

TEST(Pipeline, SemanticValidationAcceptsDeadLabelsAndInvertedBranches) {
  // DCE leaves a dead block's label on the block after it, and BBREORDER
  // inverts a jcc and swaps its successors. Neither changes behaviour, so
  // the validator must pass both at every worker count.
  const std::pair<const char *, const char *> Runs[] = {
      {"dce", "layout_reorder.s"}, {"bbreorder", "tune_lsd.s"}};
  for (const auto &[Pass, File] : Runs)
    for (unsigned Jobs : {1u, 4u}) {
      mao::api::Session Session;
      mao::api::Program Program;
      ASSERT_TRUE(
          Session.parseFile(std::string(MAO_EXAMPLES_DIR) + "/" + File, Program)
              .Ok);
      std::vector<mao::api::PassSpec> Pipeline;
      ASSERT_TRUE(mao::api::Session::parsePipelineSpec(Pass, Pipeline).Ok);
      mao::api::OptimizeOptions Options;
      Options.Validate = "semantic";
      Options.Jobs = Jobs;
      const mao::api::OptimizeResult Result =
          Session.optimize(Program, Pipeline, Options);
      EXPECT_TRUE(Result.Ok) << Pass << " at jobs " << Jobs << ": "
                             << Result.Error;
      EXPECT_GT(Result.TotalTransformations, 0u) << Pass;
    }
}

TEST(Pipeline, RollbackReplaysLoop16AcrossFunctions) {
  // TESTTHROW fails on every function, so its rollback restores the
  // checkpoint and replays LOOP16 over all five functions: the result must
  // be LOOP16 alone, at every worker count.
  const std::string Text = shortLoopFunctions(5, 3);
  MaoUnit Alone = parseOk(Text);
  ASSERT_TRUE(runPasses(Alone, requests({"LOOP16"}), rollbackOptions()).Ok);
  const std::string Expected = emitAssembly(Alone);
  ASSERT_NE(Expected, emitAssembly(parseOk(Text)));
  for (unsigned Jobs : {1u, 4u}) {
    MaoUnit Unit = parseOk(Text);
    PipelineOptions Options = rollbackOptions();
    Options.Jobs = Jobs;
    PipelineResult Result =
        runPasses(Unit, requests({"LOOP16", "TESTTHROW"}), Options);
    ASSERT_TRUE(Result.Ok) << Result.Error;
    ASSERT_EQ(Result.Outcomes.size(), 2u);
    EXPECT_EQ(Result.Outcomes[0].Status, PassStatus::Ok);
    EXPECT_EQ(Result.Outcomes[0].Transformations, 3u);
    EXPECT_EQ(Result.Outcomes[1].Status, PassStatus::RolledBack);
    EXPECT_EQ(Result.Outcomes[1].Transformations, 0u);
    EXPECT_EQ(emitAssembly(Unit), Expected) << "jobs=" << Jobs;
  }
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
  EXPECT_TRUE(CmdOr->RunLint);
  EXPECT_TRUE(CmdOr->Lint.WarningsAsErrors);
  EXPECT_EQ(CmdOr->Optimize.Validate, "semantic");
  EXPECT_EQ(CmdOr->Session.SarifPath, "out.sarif");

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
// views the erase kept current, not walk from the freed node.
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

std::vector<PassRequest> pipeline(const std::string &Spec) {
  std::vector<PassRequest> Requests;
  MaoStatus S = PassRegistry::instance().parsePipeline(Spec, Requests);
  EXPECT_TRUE(S.ok()) << Spec << ": " << S.message();
  return Requests;
}

// The full verifier after every pass compares the views each pass left
// behind with a fresh derivation, so a pass whose edits a view does not
// follow fails here, at either worker count.
TEST(Pipeline, FullVerifierAfterEveryPassFindsCurrentViews) {
  linkAllPasses();
  const char *const Pipelines[] = {
      "ZEE,REDTEST,REDMOV,ADDADD,LOOP16,SCHED",
      "ZEE,REDTEST,REDMOV,SCHED,ADDADD",
      "LOOP16,LSDOPT,BRALIGN,INSTRUMENT",
      "ALIGNSEL(loops=4)",
      "BBREORDER",
      "HOTCOLD",
      "DCE,BBREORDER",
      "NOPIN,NOPKILL"};
  for (const auto &[Name, Text] : exampleAndSpecCorpus()) {
    for (const char *Spec : Pipelines) {
      std::string Reference;
      for (unsigned Jobs : {1u, 4u}) {
        MaoUnit Unit = parseOk(Text);
        PipelineOptions Options;
        Options.Jobs = Jobs;
        Options.VerifyAfterEachPass = true;
        Options.PerPassVerify = VerifierOptions();
        PipelineResult R = runPasses(Unit, pipeline(Spec), Options);
        ASSERT_TRUE(R.Ok) << Name << " " << Spec << " jobs=" << Jobs << ": "
                          << R.Error;
        const std::string Out = emitAssembly(Unit);
        if (Jobs == 1)
          Reference = Out;
        else
          EXPECT_EQ(Out, Reference) << Name << " " << Spec;
      }
    }
  }
}

// The runner compares every kept CFG, and its liveness where that is
// current, with a fresh build after each pass when the verifier checks
// structure (--mao-verify), and once more at the pipeline's end: over the
// corpus, at both worker counts, and under rollback with injected pass
// failures whose restores replay passes.
TEST(Pipeline, KeptCFGsMatchAFreshBuildAfterEveryPass) {
  linkAllPasses();
  const char *const Pipelines[] = {
      "ZEE,REDTEST,REDMOV,ADDADD,LOOP16,SCHED",
      "ZEE,REDTEST,REDMOV,SCHED,ADDADD",
      "LOOP16,LSDOPT,BRALIGN",
      "DCE,BBREORDER,NOPKILL,CONSTFOLD"};
  VerifierOptions Structure = VerifierOptions::fast();
  Structure.CheckStructure = true;
  for (const auto &[Name, Text] : exampleAndSpecCorpus()) {
    for (const char *Spec : Pipelines) {
      for (const bool Rollback : {false, true}) {
        for (unsigned Jobs : {1u, 4u}) {
          MaoUnit Unit = parseOk(Text);
          DiagEngine Diags;
          CollectingDiagSink Sink;
          Diags.addSink(&Sink);
          PipelineOptions Options;
          Options.Jobs = Jobs;
          Options.VerifyAfterEachPass = true;
          Options.PerPassVerify = Structure;
          Options.Diags = &Diags;
          if (Rollback) {
            Options.OnError = OnErrorPolicy::Rollback;
            ASSERT_TRUE(
                FaultInjector::instance().configure("pass:300", 7).ok());
          }
          PipelineResult R = runPasses(Unit, pipeline(Spec), Options);
          FaultInjector::instance().reset();
          const std::string Where = Name + " " + Spec + " jobs=" +
                                    std::to_string(Jobs) +
                                    (Rollback ? " rollback" : "");
          ASSERT_TRUE(R.Ok) << Where << ": " << R.Error;
          for (const Diagnostic &D : Sink.diagnostics())
            EXPECT_NE(D.Code, DiagCode::VerifyStaleCFG)
                << Where << ": " << D.Message;
          // Every function, its kept CFG refreshed now, too.
          for (MaoFunction &Fn : Unit.functions())
            keptCFG(Fn);
          VerifierReport Report = verifyKeptAnalyses(Unit, nullptr, Where);
          EXPECT_TRUE(Report.clean()) << Where << ": " << Report.firstMessage();
        }
      }
    }
  }
}

// A write through an Instruction& taken before the CFG was kept goes past
// the epochs; verify-stale-cfg reports the stale CFG it leaves.
TEST(Pipeline, VerifierReportsAStaleKeptCFG) {
  MaoUnit Unit = parseOk("\t.text\n\t.type f, @function\nf:\n"
                         "\tje .LA\n\tret\n.LA:\n\tret\n.LB:\n\tret\n"
                         "\t.size f, .-f\n");
  MaoFunction &Fn = Unit.functions()[0];
  MaoEntry *Je = nullptr;
  for (MaoEntry &E : Unit.entries())
    if (E.isInstruction() && !Je)
      Je = &E;
  ASSERT_NE(Je, nullptr);
  Instruction &Held = Je->instruction();
  keptCFG(Fn);
  EXPECT_TRUE(verifyKeptAnalyses(Unit, nullptr, "test").clean());
  Held.Ops[0] = Operand::makeSymbol(".LB");
  VerifierReport Report = verifyKeptAnalyses(Unit, nullptr, "test");
  ASSERT_FALSE(Report.clean());
  EXPECT_EQ(Report.Issues.front().Code, DiagCode::VerifyStaleCFG);
  EXPECT_STREQ(diagCodeName(DiagCode::VerifyStaleCFG), "verify-stale-cfg");
  EXPECT_NE(Report.firstMessage().find("function f"), std::string::npos)
      << Report.firstMessage();
}

// A payload move is no edit, so one that changes what a block reads, but
// not its control flow, leaves the kept liveness stale; verify-stale-cfg
// reports it.
TEST(Pipeline, VerifierReportsStaleKeptLiveness) {
  MaoUnit Unit = parseOk("\t.text\n\t.type f, @function\nf:\n"
                         "\tmovl $1, %eax\n\tret\n\t.size f, .-f\n");
  MaoFunction &Fn = Unit.functions()[0];
  MaoEntry *Mov = nullptr;
  for (MaoEntry &E : Unit.entries())
    if (E.isInstruction() && !Mov)
      Mov = &E;
  ASSERT_NE(Mov, nullptr);
  MaoEntry ReadsEbx = MaoEntry::makeInstruction(
      makeInstr(Mnemonic::MOV, Width::L, Operand::makeReg(Reg::EBX),
                Operand::makeReg(Reg::EAX)));
  keptLiveness(Fn);
  EXPECT_TRUE(verifyKeptAnalyses(Unit, nullptr, "test").clean());
  Mov->takeInstruction(ReadsEbx); // %ebx is now live-in.
  VerifierReport Report = verifyKeptAnalyses(Unit, nullptr, "test");
  ASSERT_FALSE(Report.clean());
  EXPECT_EQ(Report.Issues.front().Code, DiagCode::VerifyStaleCFG);
  EXPECT_NE(Report.firstMessage().find("register live-in"), std::string::npos)
      << Report.firstMessage();
}

// A .set/.equ alias defines its symbol: a reference to it resolves, and
// assigning one symbol twice is no duplicate label.
TEST(Pipeline, VerifierResolvesSetAliases) {
  MaoUnit Unit = parseOk("\t.text\n\t.type f, @function\nf:\n"
                         "\tleaq .LC29(%rip), %rax\n"
                         "\tleaq .LC30(%rip), %rcx\n\tret\n"
                         "\t.size f, .-f\n\t.section .rodata\n"
                         ".LC8:\n\t.string \"x\"\n"
                         "\t.set .LC29,.LC8\n\t.set .LC29,.LC8\n"
                         "\t.equ .LC30, .LC8+1\n");
  VerifierReport Report = verifyUnit(Unit);
  EXPECT_TRUE(Report.clean()) << Report.firstMessage();
}

// A rollback restore replaces the views, and the kept analyses go with
// them: no function of the restored unit holds one.
TEST(Pipeline, RollbackRestoreDropsTheKeptCFGs) {
  linkAllPasses();
  MaoUnit Unit = parseOk(TestAsm);
  for (MaoFunction &Fn : Unit.functions())
    keptCFG(Fn);
  ASSERT_TRUE(FaultInjector::instance().configure("pass:1000", 1).ok());
  PipelineResult R = runPasses(Unit, requests({"ZEE"}), rollbackOptions());
  FaultInjector::instance().reset();
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.Outcomes.front().Status, PassStatus::RolledBack);
  for (const MaoFunction &Fn : Unit.functions())
    EXPECT_TRUE(Fn.Kept == nullptr) << Fn.name();
}

// A moveRange that moves a whole function is outside the edit contract:
// without the rebuild HOTCOLD does, the function view is stale, and the
// verifier reports it instead of repairing it.
TEST(Pipeline, VerifierReportsViewLeftStaleByFunctionMove) {
  MaoUnit Unit = parseOk("\t.text\n"
                         "\t.type f, @function\nf:\n\tret\n\t.size f, .-f\n"
                         "\t.type g, @function\ng:\n\tret\n\t.size g, .-g\n");
  EntryIter F = Unit.functions()[0].ranges().front().Begin;
  EntryIter GType = std::next(Unit.functions()[0].ranges().front().End);
  Unit.moveRange(GType, Unit.entries().end(), std::prev(F));
  VerifierReport Stale = verifyUnit(Unit);
  ASSERT_FALSE(Stale.clean());
  EXPECT_EQ(Stale.Issues.front().Code, DiagCode::VerifyStaleView)
      << Stale.firstMessage();
  EXPECT_NE(Stale.firstMessage().find("function"), std::string::npos)
      << Stale.firstMessage();
  Unit.rebuildStructure();
  EXPECT_TRUE(verifyUnit(Unit).clean());
}

// Parse derives the views once; the paper's pipeline keeps them current
// through its edits without deriving again, at either worker count.
TEST(Pipeline, Paper6DerivesTheViewsOnceAtParse) {
  linkAllPasses();
  StatCounter &Builds = StatsRegistry::instance().counter("ir.structure_builds");
  const std::string Text = generateWorkloadAssembly(spec2000IntProfiles()[0]);
  for (unsigned Jobs : {1u, 4u}) {
    Builds.reset();
    MaoUnit Unit = parseOk(Text);
    PipelineOptions Options;
    Options.Jobs = Jobs;
    PipelineResult R =
        runPasses(Unit, pipeline("ZEE,REDTEST,REDMOV,ADDADD,LOOP16,SCHED"),
                  Options);
    ASSERT_TRUE(R.Ok) << R.Error;
    unsigned Edits = 0;
    for (const auto &[Name, Count] : R.Counts)
      Edits += Count;
    EXPECT_GT(Edits, 0u);
    EXPECT_EQ(Builds.value(), 1u) << "jobs=" << Jobs;
  }
}

TEST(Pipeline, HotColdFunctionMoveAddsOneDerivation) {
  linkAllPasses();
  StatCounter &Builds = StatsRegistry::instance().counter("ir.structure_builds");
  MaoUnit Unit = parseOk("\t.text\n"
                         "\t.globl f\n\t.type f, @function\nf:\n"
                         "\tcall g\n\tret\n\t.size f, .-f\n"
                         "\t.type cold, @function\ncold:\n"
                         "\tret\n\t.size cold, .-cold\n"
                         "\t.type g, @function\ng:\n"
                         "\tret\n\t.size g, .-g\n");
  Builds.reset();
  PipelineResult R = runPasses(Unit, pipeline("HOTCOLD"));
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.Counts[0].second, 1u);
  EXPECT_EQ(Builds.value(), 1u);
  EXPECT_TRUE(verifyUnit(Unit).clean());
}
