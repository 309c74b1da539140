//===- tests/ApiTest.cpp - Public facade (mao/Mao.h) tests ----------------===//
//
// Exercises the stable embedder surface end to end: Parse -> Optimize ->
// Emit, plus assembly, verification, linting, equivalence validation,
// measurement, tuning, and the registry-backed catalogue/spec parsing.
// Everything here goes through mao::api only — the test deliberately
// includes no internal header, proving the facade is self-sufficient.
//
//===----------------------------------------------------------------------===//

#include "mao/Mao.h"

#include <gtest/gtest.h>

namespace {

const char *kKernel =
    "\t.text\n\t.globl bench_main\n\t.type bench_main, @function\n"
    "bench_main:\n"
    "\tpushq %rbp\n\tmovq %rsp, %rbp\n"
    "\tmovl $100, %ecx\n"
    "\txorl %eax, %eax\n"
    ".LLOOP:\n"
    "\taddl $2, %eax\n"
    "\ttestl %eax, %eax\n" // Redundant: flags already set by addl.
    "\tsubl $1, %ecx\n"
    "\tjne .LLOOP\n"
    "\tmovl $0, %eax\n\tleave\n\tret\n"
    "\t.size bench_main, .-bench_main\n";

TEST(Api, ParseOptimizeEmitRoundTrip) {
  mao::api::Session Session;
  mao::api::Program Program;
  mao::api::ParseInfo Info;
  mao::api::Status S = Session.parseText(kKernel, "t.s", Program, &Info);
  ASSERT_TRUE(S.Ok) << S.Message;
  EXPECT_TRUE(Program.valid());
  EXPECT_EQ(Program.functionCount(), 1u);
  EXPECT_EQ(Info.Functions, 1u);
  EXPECT_GT(Info.Instructions, 5u);

  std::vector<mao::api::PassSpec> Pipeline;
  ASSERT_TRUE(mao::api::Session::parsePipelineSpec("redtest", Pipeline).Ok);
  mao::api::OptimizeResult Result =
      Session.optimize(Program, Pipeline, mao::api::OptimizeOptions());
  ASSERT_TRUE(Result.Ok) << Result.Error;
  ASSERT_EQ(Result.Outcomes.size(), 1u);
  EXPECT_EQ(Result.Outcomes[0].Pass, "REDTEST");
  EXPECT_EQ(Result.Outcomes[0].Status, "ok");
  EXPECT_EQ(Result.TotalTransformations, 1u); // The redundant testl.

  std::string Emitted = Session.emitToString(Program);
  EXPECT_EQ(Emitted.find("testl"), std::string::npos);
  EXPECT_NE(Emitted.find("bench_main"), std::string::npos);
  EXPECT_TRUE(Session.verify(Program).Ok);
}

TEST(Api, CloneIsIndependentAndEquivalent) {
  mao::api::Session Session;
  mao::api::Program Program;
  ASSERT_TRUE(Session.parseText(kKernel, "t.s", Program).Ok);
  mao::api::Program Clone = Program.clone();
  EXPECT_TRUE(Session.validateEquivalence(Program, Clone).Ok);

  // Optimizing the clone does not touch the original.
  std::vector<mao::api::PassSpec> Pipeline;
  ASSERT_TRUE(mao::api::Session::parsePipelineSpec("redtest", Pipeline).Ok);
  ASSERT_TRUE(
      Session.optimize(Clone, Pipeline, mao::api::OptimizeOptions()).Ok);
  EXPECT_NE(Session.emitToString(Program).find("testl"), std::string::npos);
  EXPECT_EQ(Session.emitToString(Clone).find("testl"), std::string::npos);
  // Removing a redundant test preserves semantics.
  EXPECT_TRUE(Session.validateEquivalence(Program, Clone).Ok);
}

TEST(Api, AssembleProducesTextBytes) {
  mao::api::Session Session;
  mao::api::Program Program;
  ASSERT_TRUE(Session.parseText(kKernel, "t.s", Program).Ok);
  mao::api::AssembledBytes Bytes;
  ASSERT_TRUE(Session.assemble(Program, Bytes).Ok);
  ASSERT_TRUE(Bytes.count(".text"));
  EXPECT_GT(Bytes[".text"].size(), 10u);
}

TEST(Api, MeasureReportsCycles) {
  mao::api::Session Session;
  mao::api::Program Program;
  ASSERT_TRUE(Session.parseText(kKernel, "t.s", Program).Ok);
  mao::api::MeasureSummary Summary;
  mao::api::Status S =
      Session.measure(Program, mao::api::MeasureRequest(), Summary);
  ASSERT_TRUE(S.Ok) << S.Message;
  EXPECT_GT(Summary.Cycles, 0u);
  EXPECT_GT(Summary.Instructions, 0u);
  EXPECT_GT(Summary.CondBranches, 0u);

  // Unknown config is a clean error, not a crash.
  mao::api::MeasureRequest Bad;
  Bad.Config = "z80";
  EXPECT_FALSE(Session.measure(Program, Bad, Summary).Ok);
}

TEST(Api, TuneAppliesWinnerAndReports) {
  mao::api::Session Session;
  mao::api::Program Program;
  ASSERT_TRUE(Session.parseText(kKernel, "t.s", Program).Ok);
  mao::api::TuneRequest Request;
  Request.Budget = "small";
  mao::api::TuneSummary Tune;
  mao::api::Status S = Session.tune(Program, Request, Tune);
  ASSERT_TRUE(S.Ok) << S.Message;
  EXPECT_GT(Tune.BaselineCycles, 0u);
  EXPECT_LE(Tune.TunedCycles, Tune.DefaultCycles);
  EXPECT_GT(Tune.Evaluations, 2u);
  EXPECT_NE(Tune.ReportJson.find("\"tuned_pipeline\""), std::string::npos);
  // The tuned program still verifies and emits.
  EXPECT_TRUE(Session.verify(Program).Ok);
  EXPECT_FALSE(Session.emitToString(Program).empty());
}

TEST(Api, LintFlagsFindingsWithoutCrashing) {
  mao::api::Session::Config Config;
  Config.StderrDiagnostics = false;
  mao::api::Session Session(Config);
  mao::api::Program Program;
  ASSERT_TRUE(Session.parseText(kKernel, "t.s", Program).Ok);
  mao::api::LintSummary Lint = Session.lint(Program, mao::api::LintRequest());
  EXPECT_FALSE(Lint.InternalError);
  EXPECT_EQ(Lint.Errors, 0u);
}

TEST(Api, CatalogueAndSpecParsing) {
  std::vector<mao::api::PassCatalogEntry> Catalog =
      mao::api::Session::listPasses();
  ASSERT_GT(Catalog.size(), 10u);
  bool SawZee = false, SawAsm = false;
  for (const mao::api::PassCatalogEntry &Entry : Catalog) {
    if (Entry.Name == "ZEE")
      SawZee = true;
    if (Entry.Name == "ASM") {
      SawAsm = true;
      EXPECT_EQ(Entry.Kind, "unit");
    }
  }
  EXPECT_TRUE(SawZee);
  EXPECT_TRUE(SawAsm);

  // Registry spelling with options, case-insensitive names.
  std::vector<mao::api::PassSpec> Pipeline;
  mao::api::Status S = mao::api::Session::parsePipelineSpec(
      "zee,sched(window=8)", Pipeline);
  ASSERT_TRUE(S.Ok) << S.Message;
  ASSERT_EQ(Pipeline.size(), 2u);
  EXPECT_EQ(Pipeline[0].Name, "ZEE");
  EXPECT_EQ(Pipeline[1].Name, "SCHED");
  ASSERT_EQ(Pipeline[1].Options.size(), 1u);
  EXPECT_EQ(Pipeline[1].Options[0].first, "window");
  EXPECT_EQ(Pipeline[1].Options[0].second, "8");

  // Unknown names produce did-you-mean errors.
  std::vector<mao::api::PassSpec> Bad;
  mao::api::Status E = mao::api::Session::parsePipelineSpec("zeee", Bad);
  EXPECT_FALSE(E.Ok);
  EXPECT_NE(E.Message.find("ZEE"), std::string::npos);

  // Classic spelling still parses.
  std::vector<mao::api::PassSpec> Classic;
  ASSERT_TRUE(
      mao::api::Session::parseClassicSpec("ZEE:SCHED=window[8]", Classic).Ok);
  ASSERT_EQ(Classic.size(), 2u);
  EXPECT_EQ(Classic[1].Options[0].second, "8");

  EXPECT_GE(mao::api::Session::hardwareJobs(), 1u);
  EXPECT_NE(mao::api::Session::driverHelp().find("--tune"),
            std::string::npos);
}

TEST(Api, RollbackPolicyContainsInjectedPassFailure) {
  mao::api::Session::Config Config;
  Config.StderrDiagnostics = false;
  mao::api::Session Session(Config);
  mao::api::Program Program;
  ASSERT_TRUE(Session.parseText(kKernel, "t.s", Program).Ok);
  // An earlier optimize edits the program, so the rollback below must
  // restore this state, not the parsed source.
  std::vector<mao::api::PassSpec> Earlier;
  ASSERT_TRUE(mao::api::Session::parsePipelineSpec("redtest", Earlier).Ok);
  ASSERT_TRUE(Session.optimize(Program, Earlier, {}).Ok);
  std::string Before = Session.emitToString(Program);
  ASSERT_EQ(Before.find("testl"), std::string::npos);

  std::vector<mao::api::PassSpec> Pipeline;
  ASSERT_TRUE(mao::api::Session::parsePipelineSpec("zee", Pipeline).Ok);

  // Arm the deterministic fault injector so the pass fails every time;
  // under the rollback policy the failure must be contained and the
  // program restored byte-identically.
  ASSERT_TRUE(Session.armFaultInjection("pass:1000", 1).Ok);
  mao::api::OptimizeOptions Options;
  Options.OnError = "rollback";
  mao::api::OptimizeResult Result =
      Session.optimize(Program, Pipeline, Options);
  // Disarm before asserting (the injector is process-global).
  ASSERT_TRUE(Session.armFaultInjection("pass:0", 1).Ok);
  EXPECT_TRUE(Result.Ok);
  EXPECT_EQ(Result.Failures, 1u);
  ASSERT_EQ(Result.Outcomes.size(), 1u);
  EXPECT_EQ(Result.Outcomes[0].Status, "rolled-back");
  // Rollback restored the pre-pass bytes.
  EXPECT_EQ(Session.emitToString(Program), Before);
}

TEST(Api, InvalidProgramIsACleanError) {
  mao::api::Session Session;
  mao::api::Program Program; // Never parsed.
  EXPECT_FALSE(Program.valid());
  EXPECT_FALSE(Session.verify(Program).Ok);
  EXPECT_FALSE(Session.emitToFile(Program, "/dev/null").Ok);
  mao::api::OptimizeResult R =
      Session.optimize(Program, {}, mao::api::OptimizeOptions());
  EXPECT_FALSE(R.Ok);
  mao::api::TuneSummary Tune;
  EXPECT_FALSE(Session.tune(Program, mao::api::TuneRequest(), Tune).Ok);
}

} // namespace
