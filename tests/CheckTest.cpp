//===- tests/CheckTest.cpp - MaoCheck validator + linter tests ----------------==//
//
// Covers the static-analysis subsystem end to end:
//  - the semantic translation validator (identity, real divergences, and the
//    liveness gating that keeps dead-code removal validatable),
//  - its wiring into the transactional pass runner (a deliberately broken
//    pass is caught, rolled back, and reported with pass/function/block in
//    both the text and SARIF sinks),
//  - differential testing of the symbolic evaluator against sim/Emulator on
//    constant-seeded straight-line code,
//  - the linter rules and the SARIF rendering of their findings.
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "asm/AsmEmitter.h"
#include "asm/Parser.h"
#include "check/Lint.h"
#include "check/SemanticValidator.h"
#include "check/SymbolicEval.h"
#include "pass/MaoPass.h"
#include "sim/Emulator.h"
#include "support/Diag.h"

#include <cstdio>
#include <gtest/gtest.h>

using namespace mao;

namespace {

MaoUnit parseOk(const std::string &Text) {
  linkAllPasses();
  auto UnitOr = parseAssembly(Text);
  EXPECT_TRUE(UnitOr.ok()) << UnitOr.message();
  return std::move(*UnitOr);
}

std::string wrapFunction(const char *Name, const std::string &Body) {
  std::string Out = "\t.text\n\t.globl\t";
  Out += Name;
  Out += "\n\t.type\t";
  Out += Name;
  Out += ", @function\n";
  Out += Name;
  Out += ":\n";
  Out += Body;
  Out += "\t.size\t";
  Out += Name;
  Out += ", .-";
  Out += Name;
  Out += "\n";
  return Out;
}

/// All instructions of one function, in entry order (straight-line tests).
std::vector<const Instruction *> functionInsns(const MaoFunction &Fn) {
  std::vector<const Instruction *> Out;
  for (auto It = Fn.begin(); It != Fn.end(); ++It)
    if (It->isInstruction())
      Out.push_back(&It->instruction());
  return Out;
}

/// Erases the first instruction whose mnemonic is \p Mn from \p Unit.
bool eraseFirst(MaoUnit &Unit, Mnemonic Mn) {
  for (auto It = Unit.entries().begin(); It != Unit.entries().end(); ++It)
    if (It->isInstruction() && It->instruction().Mn == Mn) {
      Unit.erase(It);
      return true;
    }
  return false;
}

// The REDTEST paper pattern plus an independent second function; gives the
// validator two functions and a conditional branch to chew on.
const char *const TwoFnAsm = R"(	.text
	.type f, @function
f:
	movq %rdi, %rbx
	addq $1, %rbx
	testq %rbx, %rbx
	je .L1
	addq $2, %rax
.L1:
	movq %rbx, %rax
	ret
	.size f, .-f
	.type g, @function
g:
	leaq 4(%rdi,%rsi,2), %rax
	subq $3, %rax
	ret
	.size g, .-g
)";

} // namespace

//===----------------------------------------------------------------------===//
// Semantic validator: direct unit tests.
//===----------------------------------------------------------------------===//

TEST(SemanticValidator, IdentityIsEquivalent) {
  MaoUnit Unit = parseOk(TwoFnAsm);
  MaoUnit Clone = Unit.clone();
  ValidationReport Report = validateSemantics(Unit, Clone);
  EXPECT_TRUE(Report.Equivalent) << Report.firstMessage();
  EXPECT_EQ(Report.FunctionsChecked, 2u);
  EXPECT_GE(Report.BlocksChecked, 3u);
  EXPECT_EQ(Report.BlocksFallback, 0u);
}

TEST(SemanticValidator, DetectsDroppedInstruction) {
  MaoUnit Unit = parseOk(TwoFnAsm);
  MaoUnit Broken = Unit.clone();
  ASSERT_TRUE(eraseFirst(Broken, Mnemonic::SUB)); // g's subq $3, %rax
  ValidationReport Report = validateSemantics(Unit, Broken);
  ASSERT_FALSE(Report.Equivalent);
  EXPECT_EQ(Report.Divergences[0].Function, "g");
  EXPECT_NE(Report.firstMessage().find("rax"), std::string::npos)
      << Report.firstMessage();
}

TEST(SemanticValidator, DetectsChangedImmediate) {
  const std::string A = wrapFunction("f", "\tmovq %rdi, %rax\n"
                                          "\taddq $8, %rax\n"
                                          "\tret\n");
  const std::string B = wrapFunction("f", "\tmovq %rdi, %rax\n"
                                          "\taddq $9, %rax\n"
                                          "\tret\n");
  MaoUnit UA = parseOk(A);
  MaoUnit UB = parseOk(B);
  ValidationReport Report = validateSemantics(UA, UB);
  ASSERT_FALSE(Report.Equivalent);
  EXPECT_EQ(Report.Divergences[0].Function, "f");
  EXPECT_EQ(Report.Divergences[0].Block, "f"); // Entry block, labelled f.
}

TEST(SemanticValidator, DetectsDroppedStore) {
  const std::string A = wrapFunction("f", "\tmovq %rsi, (%rdi)\n"
                                          "\tmovq $0, %rax\n"
                                          "\tret\n");
  const std::string B = wrapFunction("f", "\tmovq $0, %rax\n"
                                          "\tret\n");
  MaoUnit UA = parseOk(A);
  MaoUnit UB = parseOk(B);
  ValidationReport Report = validateSemantics(UA, UB);
  ASSERT_FALSE(Report.Equivalent);
  EXPECT_NE(Report.firstMessage().find("store"), std::string::npos)
      << Report.firstMessage();
}

TEST(SemanticValidator, AcceptsEquivalentRewrites) {
  // The rewrites MAO's peephole passes actually perform must be provable:
  // add/add collapsing, redundant-test removal (the add already set the
  // flags the test recomputes), and dead-store-to-register elimination.
  const std::string A = wrapFunction("f", "\taddq $2, %rdi\n"
                                          "\taddq $3, %rdi\n"
                                          "\tmovq %rdi, %rax\n"
                                          "\ttestq %rax, %rax\n"
                                          "\tjne .Lx\n"
                                          "\taddq $1, %rax\n"
                                          ".Lx:\n"
                                          "\tret\n");
  const std::string B = wrapFunction("f", "\taddq $5, %rdi\n"
                                          "\tmovq %rdi, %rax\n"
                                          "\tjne .Lx\n"
                                          "\taddq $1, %rax\n"
                                          ".Lx:\n"
                                          "\tret\n");
  MaoUnit UA = parseOk(A);
  MaoUnit UB = parseOk(B);
  ValidationReport Report = validateSemantics(UA, UB);
  EXPECT_TRUE(Report.Equivalent) << Report.firstMessage();
}

TEST(SemanticValidator, DetectsSwappedBranchTargets) {
  const std::string A = wrapFunction("f", "\ttestq %rdi, %rdi\n"
                                          "\tje .La\n"
                                          "\tmovq $1, %rax\n"
                                          "\tret\n"
                                          ".La:\n"
                                          "\tmovq $2, %rax\n"
                                          "\tret\n");
  const std::string B = wrapFunction("f", "\ttestq %rdi, %rdi\n"
                                          "\tjne .La\n"
                                          "\tmovq $1, %rax\n"
                                          "\tret\n"
                                          ".La:\n"
                                          "\tmovq $2, %rax\n"
                                          "\tret\n");
  MaoUnit UA = parseOk(A);
  MaoUnit UB = parseOk(B);
  ValidationReport Report = validateSemantics(UA, UB);
  ASSERT_FALSE(Report.Equivalent);
  EXPECT_EQ(Report.Divergences[0].Function, "f");
}

TEST(SemanticValidator, MatchesTheMovedBlockOfAnInvertedBranch) {
  // BBREORDER's rewrite: `jne .L1; B; .L1:` becomes `je .Lm; .L1: ...`
  // with B moved behind the function as .Lm. (¬c, F, T) is (c, T, F), and
  // the moved block is compared with the fallthrough block it was.
  const std::string Before = wrapFunction("f", "\ttestq %rdi, %rdi\n"
                                               "\tjne .L1\n"
                                               "\tmovq $1, %rax\n"
                                               "\tjmp .L1\n"
                                               ".L1:\n"
                                               "\taddq $2, %rax\n"
                                               "\tret\n");
  auto After = [](const char *Moved) {
    return wrapFunction("f", std::string("\ttestq %rdi, %rdi\n"
                                         "\tje .Lm\n"
                                         ".L1:\n"
                                         "\taddq $2, %rax\n"
                                         "\tret\n"
                                         ".Lm:\n") +
                                 Moved + "\tjmp .L1\n");
  };
  MaoUnit UB = parseOk(Before);
  MaoUnit Same = parseOk(After("\tmovq $1, %rax\n"));
  ValidationReport Report = validateSemantics(UB, Same);
  EXPECT_TRUE(Report.Equivalent) << Report.firstMessage();
  MaoUnit Changed = parseOk(After("\tmovq $3, %rax\n"));
  Report = validateSemantics(UB, Changed);
  ASSERT_FALSE(Report.Equivalent);
  EXPECT_EQ(Report.Divergences[0].Block, ".Lm");
}

TEST(SemanticValidator, ComparesOpaqueInstructionsAsEvents) {
  // Unmodelled instructions are compared as ordered opaque events over the
  // full machine state they observe: identical sequences are equivalent,
  // differing raw text is a divergence.
  const std::string A = wrapFunction("f", "\trdrand %rax\n"
                                          "\tret\n");
  MaoUnit UA = parseOk(A);
  MaoUnit UB = UA.clone();
  ValidationReport Report = validateSemantics(UA, UB);
  EXPECT_TRUE(Report.Equivalent) << Report.firstMessage();

  const std::string C = wrapFunction("f", "\trdseed %rax\n"
                                          "\tret\n");
  MaoUnit UC = parseOk(C);
  MaoUnit UA2 = parseOk(A);
  ValidationReport Diverged = validateSemantics(UA2, UC);
  EXPECT_FALSE(Diverged.Equivalent);
}

TEST(SymbolicEval, OpaqueTextSurvivesCloneEmitAndEmulation) {
  // An opaque instruction keeps its verbatim text in its one operand; a
  // clone, the emitter, the evaluator's event and unknown-value key, and
  // the emulator's stop message all see the same text.
  const std::string Text = "lock xaddl %eax, (%rdi)";
  MaoUnit Original = parseOk(wrapFunction("f", "\t" + Text + "\n\tret\n"));
  MaoUnit Unit = Original.clone();
  MaoFunction *Fn = Unit.findFunction("f");
  ASSERT_NE(Fn, nullptr);
  const std::vector<const Instruction *> Insns = functionInsns(*Fn);
  ASSERT_EQ(Insns.size(), 2u);
  const Instruction &Opaque = *Insns[0];
  ASSERT_TRUE(Opaque.isOpaque());
  EXPECT_EQ(Opaque.rawText(), Text);
  EXPECT_EQ(Opaque.toString(), Text);
  EXPECT_NE(Unit.toString().find("\t" + Text + "\n"), std::string::npos);

  SymTable Table;
  BlockEvaluator Eval(Table);
  BlockSummary Summary = Eval.evaluate(Insns);
  ASSERT_EQ(Summary.Opaques.size(), 1u);
  EXPECT_EQ(Summary.Opaques[0].Text, Text);
  EXPECT_EQ(Table.node(Summary.Regs[denseRegIndex(Reg::RAX)]).Aux,
            "opq:" + Text);

  Emulator Emu(Unit);
  EmulationResult Result = Emu.run("f", MachineState());
  EXPECT_EQ(Result.Reason, StopReason::Unsupported);
  EXPECT_EQ(Result.Message, "opaque instruction reached: " + Text);
}

//===----------------------------------------------------------------------===//
// Pipeline integration: a deliberately broken pass is caught and rolled
// back, and the failure is reported through both sinks.
//===----------------------------------------------------------------------===//

namespace {

/// Structurally valid but semantically wrong: deletes the function's first
/// ADD (a live computation in the test input). The IR verifier cannot see
/// the problem; only the semantic validator can.
class SemanticsBreakingPass : public MaoFunctionPass {
public:
  SemanticsBreakingPass(const MaoOptionMap *Options, MaoUnit *Unit,
                        MaoFunction *Fn)
      : MaoFunctionPass("TESTSEMBREAK", Options, Unit, Fn) {}
  bool go() override {
    for (auto It = function().begin(); It != function().end(); ++It)
      if (It->isInstruction() &&
          It->instruction().Mn == Mnemonic::ADD) {
        unit().erase(It.underlying());
        countTransformation();
        return true;
      }
    return true;
  }
};
REGISTER_FUNC_PASS("TESTSEMBREAK", SemanticsBreakingPass)

PipelineOptions semanticOptions(DiagEngine *Diags) {
  PipelineOptions Options;
  Options.OnError = OnErrorPolicy::Rollback;
  Options.VerifyAfterEachPass = true;
  Options.Diags = Diags;
  Options.SemanticCheck = [](MaoUnit &Before, MaoUnit &After,
                             const std::string &PassName) -> MaoStatus {
    ValidationReport Report = validateSemantics(Before, After);
    if (Report.Equivalent)
      return MaoStatus::success();
    return MaoStatus::error("pass " + PassName +
                            " changed semantics: " + Report.firstMessage());
  };
  return Options;
}

std::vector<PassRequest> requests(std::initializer_list<const char *> Names) {
  std::vector<PassRequest> Out;
  for (const char *Name : Names) {
    PassRequest Req;
    Req.PassName = Name;
    Out.push_back(Req);
  }
  return Out;
}

} // namespace

TEST(CheckPipeline, BrokenPassIsCaughtAndRolledBack) {
  CollectingDiagSink Collected;
  SarifDiagSink Sarif;
  DiagEngine Diags;
  Diags.addSink(&Collected);
  Diags.addSink(&Sarif);

  MaoUnit Unit = parseOk(TwoFnAsm);
  const std::string Before = emitAssembly(Unit);

  PipelineResult Result = runPasses(Unit, requests({"TESTSEMBREAK"}),
                                    semanticOptions(&Diags));
  ASSERT_TRUE(Result.Ok) << Result.Error;
  ASSERT_EQ(Result.Outcomes.size(), 1u);
  EXPECT_EQ(Result.Outcomes[0].Status, PassStatus::RolledBack);

  // The detail names the pass, the function, and the diverging block.
  const std::string &Detail = Result.Outcomes[0].Detail;
  EXPECT_NE(Detail.find("TESTSEMBREAK"), std::string::npos) << Detail;
  EXPECT_NE(Detail.find("function 'f'"), std::string::npos) << Detail;
  EXPECT_NE(Detail.find("block"), std::string::npos) << Detail;

  // The unit is byte-identical to its pre-pass state.
  EXPECT_EQ(emitAssembly(Unit), Before);

  // The structured diagnostic carries the stable code and pass name...
  bool Found = false;
  for (const Diagnostic &D : Collected.diagnostics())
    if (D.Code == DiagCode::CheckSemanticDiverged) {
      Found = true;
      EXPECT_EQ(D.PassName, "TESTSEMBREAK");
      EXPECT_EQ(D.Severity, DiagSeverity::Error);
    }
  EXPECT_TRUE(Found);

  // ...and the same finding reaches the SARIF sink with the rule id.
  const std::string SarifText = Sarif.render();
  EXPECT_NE(SarifText.find("MAO-check-semantic-diverged"), std::string::npos);
  EXPECT_NE(SarifText.find("TESTSEMBREAK"), std::string::npos);
}

TEST(CheckPipeline, SkipPolicyAlsoContainsBrokenPass) {
  DiagEngine Diags;
  MaoUnit Unit = parseOk(TwoFnAsm);
  PipelineOptions Options = semanticOptions(&Diags);
  Options.OnError = OnErrorPolicy::Skip;
  PipelineResult Result =
      runPasses(Unit, requests({"TESTSEMBREAK"}), Options);
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_EQ(Result.Outcomes[0].Status, PassStatus::Skipped);
}

TEST(CheckPipeline, DefaultPipelineHasNoFalsePositives) {
  // The acceptance bar: the full default pipeline over the corpus validates
  // with zero divergences. Every outcome must be Ok (a RolledBack outcome
  // here would be a validator false positive).
  DiagEngine Diags;
  MaoUnit Unit = parseOk(TwoFnAsm);
  PipelineResult Result = runPasses(
      Unit,
      requests({"ZEE", "REDTEST", "REDMOV", "ADDADD", "CONSTFOLD", "DCE",
                "LOOP16", "LSDOPT", "BRALIGN", "SCHED"}),
      semanticOptions(&Diags));
  ASSERT_TRUE(Result.Ok) << Result.Error;
  for (const PassOutcome &Outcome : Result.Outcomes)
    EXPECT_EQ(Outcome.Status, PassStatus::Ok)
        << Outcome.PassName << ": " << Outcome.Detail;
}

//===----------------------------------------------------------------------===//
// Differential testing: the symbolic evaluator against the emulator on
// constant-seeded straight-line code. Everything the evaluator folds to a
// constant must match the architectural interpreter exactly.
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Body both ways and compares every register/flag the evaluator
/// resolved to a constant against the emulator's final state.
void diffAgainstEmulator(const std::string &Body,
                         const std::vector<std::pair<Reg, uint64_t>> &Seeds,
                         unsigned MinConstRegs) {
  MaoUnit Unit = parseOk(wrapFunction("f", Body));
  MaoFunction *Fn = Unit.findFunction("f");
  ASSERT_NE(Fn, nullptr);

  SymTable Table;
  BlockEvaluator Eval(Table);
  MachineState Initial;
  for (const auto &[R, Value] : Seeds) {
    Eval.setInitialReg(denseRegIndex(R), Table.makeConst(Value));
    Initial.setGpr(R, Value);
  }
  for (unsigned F = 0; F < NumStatusFlags; ++F)
    Eval.setInitialFlag(F, Table.makeConst(0));

  BlockSummary Summary = Eval.evaluate(functionInsns(*Fn));
  ASSERT_TRUE(Summary.Supported) << Summary.UnsupportedWhy;
  ASSERT_EQ(Summary.Term.Kind, TermKind::Return);

  Emulator Emu(Unit);
  EmulationResult Result = Emu.run("f", Initial);
  ASSERT_EQ(Result.Reason, StopReason::Returned) << Result.Message;

  static const char *const GprNames[16] = {
      "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
      "r8",  "r9",  "r10", "r11", "r12", "r13", "r14", "r15"};
  unsigned ConstRegs = 0;
  for (unsigned I = 0; I < 16; ++I) {
    if (I == 4)
      continue; // rsp: the emulator starts it at its stack base.
    const SymNode &N = Table.node(Summary.Regs[I]);
    if (!N.isConst())
      continue;
    ++ConstRegs;
    EXPECT_EQ(N.Value, Result.Final.Gpr[I]) << "%" << GprNames[I];
  }
  EXPECT_GE(ConstRegs, MinConstRegs);

  const bool EmuFlags[6] = {Result.Final.CF, Result.Final.PF,
                            Result.Final.AF, Result.Final.ZF,
                            Result.Final.SF, Result.Final.OF};
  static const char *const FlagNames[6] = {"CF", "PF", "AF",
                                           "ZF", "SF", "OF"};
  for (unsigned F = 0; F < NumStatusFlags; ++F) {
    const SymNode &N = Table.node(Summary.Flags[F]);
    if (N.isConst()) {
      EXPECT_EQ(N.Value, EmuFlags[F] ? 1u : 0u) << FlagNames[F];
    }
  }
}

} // namespace

TEST(Differential, AluAndShifts) {
  diffAgainstEmulator("\tmovq $7, %rax\n"
                      "\tmovq $9, %rcx\n"
                      "\taddq %rcx, %rax\n"
                      "\timulq $3, %rax, %rdx\n"
                      "\tsubq $5, %rdx\n"
                      "\txorq %rax, %rcx\n"
                      "\tshlq $4, %rcx\n"
                      "\tnegq %rdx\n"
                      "\tret\n",
                      {}, 3);
}

TEST(Differential, SeededWidthsAndExtensions) {
  diffAgainstEmulator("\tmovq %rdi, %rax\n"
                      "\taddl %esi, %eax\n"
                      "\tmovzbl %al, %ecx\n"
                      "\tmovsbq %al, %rdx\n"
                      "\tleaq 3(%rax,%rcx,2), %r8\n"
                      "\tnotl %ecx\n"
                      "\tbswapq %rdx\n"
                      "\tret\n",
                      {{Reg::RDI, 0x1234567890abcdefULL},
                       {Reg::RSI, 0x00000000fedcba98ULL}},
                      5);
}

TEST(Differential, MulDivAndConditionals) {
  diffAgainstEmulator("\tmovq $1000, %rax\n"
                      "\tmovq $0, %rdx\n"
                      "\tmovq $7, %rcx\n"
                      "\tdivq %rcx\n"
                      "\tmovq %rdx, %rbx\n"
                      "\tcmpq $3, %rbx\n"
                      "\tsete %sil\n"
                      "\tcmovlq %rax, %rbx\n"
                      "\tret\n",
                      {{Reg::RSI, 0}}, 4);
}

//===----------------------------------------------------------------------===//
// Linter rules.
//===----------------------------------------------------------------------===//

namespace {

LintResult lintText(const std::string &Text, CollectingDiagSink *Sink,
                    bool Werror = false) {
  MaoUnit Unit = parseOk(Text);
  DiagEngine Diags;
  if (Sink)
    Diags.addSink(Sink);
  LintOptions Options;
  Options.WarningsAsErrors = Werror;
  Options.FileName = "test.s";
  return lintUnit(Unit, Options, Diags);
}

bool hasCode(const CollectingDiagSink &Sink, DiagCode Code) {
  for (const Diagnostic &D : Sink.diagnostics())
    if (D.Code == Code)
      return true;
  return false;
}

} // namespace

TEST(Lint, CleanFunctionIsClean) {
  // ABI-conformant: reads only argument registers, aligns the stack before
  // the call, writes flags that are consumed.
  CollectingDiagSink Sink;
  LintResult Result = lintText(wrapFunction("f",
                                            "\tpushq %rbp\n"
                                            "\tmovq %rsp, %rbp\n"
                                            "\tmovq %rdi, %rax\n"
                                            "\tcall g\n"
                                            "\ttestq %rax, %rax\n"
                                            "\tje .L1\n"
                                            "\taddq $1, %rax\n"
                                            ".L1:\n"
                                            "\tpopq %rbp\n"
                                            "\tret\n") +
                                   wrapFunction("g",
                                                "\tmovq $0, %rax\n"
                                                "\tret\n"),
                               &Sink);
  EXPECT_TRUE(Result.clean())
      << (Sink.diagnostics().empty() ? "no diags"
                                     : Sink.diagnostics()[0].toString());
  EXPECT_EQ(lintExitCode(Result), 0);
}

TEST(Lint, DetectsUseBeforeDef) {
  CollectingDiagSink Sink;
  LintResult Result = lintText(
      wrapFunction("f", "\tmovq %r10, %rax\n\tret\n"), &Sink);
  EXPECT_GE(Result.Warnings, 1u);
  EXPECT_TRUE(hasCode(Sink, DiagCode::LintUseBeforeDef));
  EXPECT_EQ(lintExitCode(Result), 1);
}

TEST(Lint, DetectsFlagUseBeforeDef) {
  CollectingDiagSink Sink;
  LintResult Result = lintText(
      wrapFunction("f", "\tje .L1\n\tmovq $1, %rax\n.L1:\n\tret\n"), &Sink);
  EXPECT_TRUE(hasCode(Sink, DiagCode::LintUseBeforeDef));
}

TEST(Lint, DetectsDeadFlagWrite) {
  // The test's flags are dead: nothing consumes them before ret.
  CollectingDiagSink Sink;
  LintResult Result = lintText(
      wrapFunction("f", "\tmovq $1, %rax\n\ttestq %rax, %rax\n\tret\n"),
      &Sink);
  EXPECT_TRUE(hasCode(Sink, DiagCode::LintDeadFlagWrite));
  EXPECT_EQ(lintExitCode(Result), 1);
}

TEST(Lint, DetectsUnreachableBlock) {
  CollectingDiagSink Sink;
  LintResult Result = lintText(
      wrapFunction("f", "\tjmp .L2\n"
                        ".L1:\n" // No predecessor, not inert.
                        "\taddq $1, %rax\n"
                        ".L2:\n"
                        "\tret\n"),
      &Sink);
  EXPECT_TRUE(hasCode(Sink, DiagCode::LintUnreachableBlock));
}

TEST(Lint, DetectsCallSiteMisalignment) {
  // At entry %rsp == 8 (mod 16); a call without an odd number of pushes
  // (or equivalent) leaves the callee misaligned.
  CollectingDiagSink Sink;
  LintResult Result = lintText(
      wrapFunction("f", "\tcall g\n\tret\n") +
          wrapFunction("g", "\tret\n"),
      &Sink);
  EXPECT_TRUE(hasCode(Sink, DiagCode::LintStackMisaligned));

  // One push (or subq $8) restores 16-byte alignment: no finding.
  CollectingDiagSink CleanSink;
  lintText(wrapFunction("f",
                        "\tpushq %rbp\n\tcall g\n\tpopq %rbp\n\tret\n") +
               wrapFunction("g", "\tret\n"),
           &CleanSink);
  EXPECT_FALSE(hasCode(CleanSink, DiagCode::LintStackMisaligned));
}

TEST(Lint, DetectsPartialRegisterStall) {
  CollectingDiagSink Sink;
  LintResult Result = lintText(
      wrapFunction("f", "\tmovb $1, %al\n\tmovq %rax, %rbx\n\tret\n"),
      &Sink);
  EXPECT_TRUE(hasCode(Sink, DiagCode::LintPartialRegStall));
}

TEST(Lint, MulAndDivOperandsAreReadNotWritten) {
  // The explicit operand of mul/div/idiv is a source (operandRoles): the
  // byte read of %cl is no narrow write, so the wide read of %ecx after it
  // does not stall.
  for (const char *Op : {"mulb", "divb", "idivb"}) {
    CollectingDiagSink Sink;
    lintText(wrapFunction("f", std::string("\tmovl $3, %ecx\n\tmovl $5, "
                                           "%eax\n\t") +
                                   Op +
                                   " %cl\n\taddl %ecx, %eax\n\tret\n"),
             &Sink);
    EXPECT_FALSE(hasCode(Sink, DiagCode::LintPartialRegStall)) << Op;
  }
}

TEST(Lint, NotesFalseDependencyWithoutFailing) {
  // A byte-width write-only def with no prior full-width def carries a
  // false dependency on the old value; advisory only (a Note), so the
  // result stays clean for exit-code purposes.
  CollectingDiagSink Sink;
  LintResult Result = lintText(
      wrapFunction("f", "\tmovb $5, %r11b\n\tmovzbq %r11b, %rax\n\tret\n"),
      &Sink);
  EXPECT_TRUE(hasCode(Sink, DiagCode::LintFalseDependency));
  EXPECT_GE(Result.Notes, 1u);
}

TEST(Lint, AuditsUnresolvedIndirectJumps) {
  CollectingDiagSink Sink;
  LintResult Result = lintText(
      wrapFunction("f", "\tjmp *%rdi\n"), &Sink);
  EXPECT_TRUE(hasCode(Sink, DiagCode::LintUnresolvedIndirect));
  EXPECT_EQ(Result.IndirectTotal, 1u);
  EXPECT_EQ(Result.IndirectUnresolved, 1u);
}

TEST(Lint, WerrorPromotesWarnings) {
  LintResult Plain = lintText(
      wrapFunction("f", "\tmovq %r10, %rax\n\tret\n"), nullptr);
  EXPECT_GE(Plain.Warnings, 1u);
  EXPECT_EQ(Plain.Errors, 0u);

  LintResult Promoted = lintText(
      wrapFunction("f", "\tmovq %r10, %rax\n\tret\n"), nullptr,
      /*Werror=*/true);
  EXPECT_EQ(Promoted.Warnings, 0u);
  EXPECT_GE(Promoted.Errors, 1u);
  EXPECT_EQ(lintExitCode(Promoted), 1);
}

TEST(Lint, RuleTableIsComplete) {
  // Every registered rule has a distinct code and a non-empty name; the
  // table drives the SARIF rules array and the documentation.
  const std::vector<LintRuleInfo> &Rules = lintRules();
  ASSERT_GE(Rules.size(), 12u);
  for (size_t I = 0; I < Rules.size(); ++I) {
    EXPECT_NE(Rules[I].Name[0], '\0');
    EXPECT_NE(Rules[I].Summary[0], '\0');
    for (size_t J = I + 1; J < Rules.size(); ++J)
      EXPECT_NE(Rules[I].Code, Rules[J].Code);
  }
}

TEST(Lint, FindingsRenderAsSarif) {
  MaoUnit Unit = parseOk(wrapFunction("f", "\tmovq %r10, %rax\n\tret\n"));
  SarifDiagSink Sarif;
  DiagEngine Diags;
  Diags.addSink(&Sarif);
  LintOptions Options;
  Options.FileName = "test.s";
  lintUnit(Unit, Options, Diags);

  const std::string Doc = Sarif.render();
  EXPECT_NE(Doc.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(Doc.find("\"name\": \"mao\""), std::string::npos);
  EXPECT_NE(Doc.find("MAO-lint-use-before-def"), std::string::npos);
  EXPECT_NE(Doc.find("test.s"), std::string::npos);
  // Rule declarations are unique even with repeated findings.
  size_t First = Doc.find("\"rules\"");
  ASSERT_NE(First, std::string::npos);
}

//===----------------------------------------------------------------------===//
// Interprocedural ABI rules, baseline suppression, and lint determinism.
//===----------------------------------------------------------------------===//

namespace {

LintResult lintWith(const std::string &Text, const LintOptions &Options,
                    CollectingDiagSink *Sink = nullptr) {
  MaoUnit Unit = parseOk(Text);
  DiagEngine Diags;
  if (Sink)
    Diags.addSink(Sink);
  return lintUnit(Unit, Options, Diags);
}

unsigned countCode(const CollectingDiagSink &Sink, DiagCode Code) {
  unsigned N = 0;
  for (const Diagnostic &D : Sink.diagnostics())
    if (D.Code == Code)
      ++N;
  return N;
}

} // namespace

TEST(Lint, DetectsCalleeSavedClobber) {
  CollectingDiagSink Sink;
  LintResult Result = lintText(
      wrapFunction("f", "\txorq %rbx, %rbx\n\tret\n"), &Sink);
  EXPECT_TRUE(hasCode(Sink, DiagCode::LintCalleeSavedClobbered));
  EXPECT_EQ(lintExitCode(Result), 1);

  // Paired save/restore (including dual epilogues) is conformant.
  CollectingDiagSink CleanSink;
  lintText(wrapFunction("g", "\tpushq %rbx\n"
                             "\tmovq %rdi, %rbx\n"
                             "\ttestq %rdi, %rdi\n"
                             "\tje .Lout\n"
                             "\tmovq %rbx, %rax\n"
                             "\tpopq %rbx\n"
                             "\tret\n"
                             ".Lout:\n"
                             "\tpopq %rbx\n"
                             "\tret\n"),
           &CleanSink);
  EXPECT_FALSE(hasCode(CleanSink, DiagCode::LintCalleeSavedClobbered));
}

TEST(Lint, DetectsUnbalancedStack) {
  CollectingDiagSink Sink;
  LintResult Result =
      lintText(wrapFunction("f", "\tpushq %rax\n\tret\n"), &Sink);
  EXPECT_TRUE(hasCode(Sink, DiagCode::LintUnbalancedStack));
  EXPECT_EQ(lintExitCode(Result), 1);

  CollectingDiagSink CleanSink;
  lintText(wrapFunction("g", "\tpushq %rbp\n"
                             "\tmovq %rsp, %rbp\n"
                             "\tsubq $32, %rsp\n"
                             "\tleave\n\tret\n"),
           &CleanSink);
  EXPECT_FALSE(hasCode(CleanSink, DiagCode::LintUnbalancedStack));
}

TEST(Lint, DetectsRedZoneOnlyInNonLeaf) {
  const char *Body = "\tpushq %rbp\n"
                     "\tmovq $1, -8(%rsp)\n"
                     "\tcall g\n"
                     "\tpopq %rbp\n"
                     "\tret\n";
  CollectingDiagSink Sink;
  lintText(wrapFunction("f", Body) + wrapFunction("g", "\tret\n"), &Sink);
  EXPECT_TRUE(hasCode(Sink, DiagCode::LintRedZoneNonLeaf));

  // The same store in a leaf is exactly what the red zone is for.
  CollectingDiagSink LeafSink;
  lintText(wrapFunction("leaf", "\tmovq $1, -8(%rsp)\n"
                                "\tmovq -8(%rsp), %rax\n\tret\n"),
           &LeafSink);
  EXPECT_FALSE(hasCode(LeafSink, DiagCode::LintRedZoneNonLeaf));
}

TEST(Lint, SummarySharpenedCallCatchesScratchRead) {
  // helper provably clobbers only %rax, so %r10 is still undefined after
  // the call — visible only through the callee summary; the
  // clobber-everything model defines every register at the call.
  const std::string Text =
      wrapFunction("f", "\tpushq %rbp\n"
                        "\tcall helper\n"
                        "\tmovq %r10, %rax\n"
                        "\tpopq %rbp\n\tret\n") +
      wrapFunction("helper", "\tmovq %rdi, %rax\n\tret\n");

  CollectingDiagSink Sharp;
  LintOptions Options;
  Options.FileName = "test.s";
  lintWith(Text, Options, &Sharp);
  EXPECT_TRUE(hasCode(Sharp, DiagCode::LintUseBeforeDef));

  CollectingDiagSink Blunt;
  Options.Interprocedural = false;
  lintWith(Text, Options, &Blunt);
  EXPECT_FALSE(hasCode(Blunt, DiagCode::LintUseBeforeDef));
}

TEST(Lint, DetectsDeadArgWriteAndClobberedArg) {
  // %rdi is written for a callee that neither reads nor preserves it
  // (dead write), and the next call reads %rdi while it holds the first
  // callee's garbage (dead on arrival).
  CollectingDiagSink Sink;
  LintResult Result = lintText(
      wrapFunction("f", "\tpushq %rbp\n"
                        "\tmovq $3, %rdi\n"
                        "\tcall clobber_args\n"
                        "\tcall reader\n"
                        "\tpopq %rbp\n\tret\n") +
          wrapFunction("clobber_args",
                       "\tmovq $0, %rdi\n\tmovq $0, %rax\n\tret\n") +
          wrapFunction("reader", "\tmovq %rdi, %rax\n\tret\n"),
      &Sink);
  EXPECT_EQ(countCode(Sink, DiagCode::LintDeadArgWrite), 1u);
  EXPECT_EQ(countCode(Sink, DiagCode::LintArgUndefinedAtCall), 1u);
  EXPECT_GE(Result.Warnings, 1u);
  EXPECT_GE(Result.Notes, 1u);
}

TEST(Lint, SummariesReduceFalsePositives) {
  // Conformant two-call sequence: the first callee provably preserves
  // %rdi, so the second call's argument is fine. The clobber-everything
  // model cannot know that and floods the site with arg warnings.
  const std::string Text =
      wrapFunction("f", "\tpushq %rbp\n"
                        "\tmovq $1, %rdi\n"
                        "\tcall id\n"
                        "\tcall id\n"
                        "\tpopq %rbp\n\tret\n") +
      wrapFunction("id", "\tmovq %rdi, %rax\n\tret\n");

  CollectingDiagSink Sharp;
  LintOptions Options;
  Options.FileName = "test.s";
  LintResult Precise = lintWith(Text, Options, &Sharp);
  EXPECT_EQ(Precise.Warnings, 0u);
  EXPECT_EQ(countCode(Sharp, DiagCode::LintArgUndefinedAtCall), 0u);

  Options.Interprocedural = false;
  LintResult Blunt = lintWith(Text, Options, nullptr);
  EXPECT_GT(Blunt.Warnings, 0u)
      << "the architectural model must be strictly noisier here";
}

TEST(Lint, BaselineSuppressesKnownFindings) {
  const std::string Text =
      wrapFunction("f", "\txorq %rbx, %rbx\n\tpushq %rax\n\tret\n");
  const std::string Path = ::testing::TempDir() + "mao_lint_baseline.txt";

  LintOptions Capture;
  Capture.FileName = "test.s";
  Capture.BaselineOutPath = Path;
  LintResult First = lintWith(Text, Capture);
  ASSERT_GE(First.Warnings, 2u);
  EXPECT_EQ(First.Suppressed, 0u);
  EXPECT_EQ(lintExitCode(First), 1);

  CollectingDiagSink Sink;
  LintOptions Replay;
  Replay.FileName = "test.s";
  Replay.BaselinePath = Path;
  LintResult Second = lintWith(Text, Replay, &Sink);
  EXPECT_EQ(Second.Warnings, 0u);
  EXPECT_EQ(Second.Suppressed, First.Warnings + First.Notes);
  EXPECT_EQ(lintExitCode(Second), 0);
  EXPECT_TRUE(Sink.diagnostics().empty());
  std::remove(Path.c_str());

  // A missing baseline file must be a loud internal error, not a silent
  // run with zero suppressions.
  LintOptions Missing;
  Missing.FileName = "test.s";
  Missing.BaselinePath = ::testing::TempDir() + "mao_no_such_baseline.txt";
  LintResult Bad = lintWith(Text, Missing);
  EXPECT_TRUE(Bad.InternalError);
  EXPECT_EQ(lintExitCode(Bad), 2);
}

TEST(Lint, FindingsIdenticalAcrossJobs) {
  // A multi-function unit with findings in several functions: counts and
  // the order-sensitive digest must not depend on the worker count.
  std::string Text;
  for (int I = 0; I < 6; ++I) {
    std::string Name = "f" + std::to_string(I);
    Text += wrapFunction(Name.c_str(),
                         I % 2 ? "\txorq %rbx, %rbx\n\tret\n"
                               : "\tpushq %rax\n\tret\n");
  }
  LintOptions Options;
  Options.FileName = "test.s";
  Options.Jobs = 1;
  LintResult One = lintWith(Text, Options);
  Options.Jobs = 4;
  LintResult Four = lintWith(Text, Options);
  EXPECT_GE(One.Warnings, 6u);
  EXPECT_EQ(One.Warnings, Four.Warnings);
  EXPECT_EQ(One.Notes, Four.Notes);
  EXPECT_EQ(One.FindingsDigest, Four.FindingsDigest);

  // The digest actually depends on the findings.
  LintResult Other = lintWith(
      wrapFunction("g", "\tpushq %rax\n\tret\n"), Options);
  EXPECT_NE(One.FindingsDigest, Other.FindingsDigest);
}

TEST(Lint, FingerprintIsStableAndLocationFree) {
  uint64_t A = diagFingerprint(DiagCode::LintUnbalancedStack, "message");
  uint64_t B = diagFingerprint(DiagCode::LintUnbalancedStack, "message");
  uint64_t C = diagFingerprint(DiagCode::LintRedZoneNonLeaf, "message");
  uint64_t D = diagFingerprint(DiagCode::LintUnbalancedStack, "other");
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_NE(A, D);
  EXPECT_EQ(diagFingerprintHex(A).size(), 16u);
}
