//===- tests/PassesTest.cpp - Optimization pass tests -------------------------==//
//
// Each transforming pass is tested two ways: the specific patterns from the
// paper must be matched (and near-miss patterns must NOT be), and the
// functional emulator must observe identical architectural results before
// and after the pass (the reproduction's strengthening of the paper's
// assemble-and-diff verification).
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "analysis/Relaxer.h"
#include "asm/AsmEmitter.h"
#include "asm/Parser.h"
#include "ir/Verifier.h"
#include "pass/FunctionAnalyses.h"
#include "pass/MaoPass.h"
#include "sim/Emulator.h"
#include "support/Diag.h"
#include "support/Stats.h"
#include "workload/Workload.h"
#include "x86/Encoder.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace mao;

namespace {

MaoUnit parseOk(const std::string &Text) {
  auto UnitOr = parseAssembly(Text);
  EXPECT_TRUE(UnitOr.ok());
  return std::move(*UnitOr);
}

std::string wrapFunction(const std::string &Body) {
  return "\t.text\n\t.type f, @function\nf:\n" + Body + "\t.size f, .-f\n";
}

/// Runs one pass over the unit; returns its transformation count.
unsigned runPass(MaoUnit &Unit, const std::string &Name,
                 MaoOptionMap Options = MaoOptionMap()) {
  linkAllPasses();
  PassRequest Req;
  Req.PassName = Name;
  Req.Options = std::move(Options);
  PipelineResult R = runPasses(Unit, {Req});
  EXPECT_TRUE(R.Ok) << R.Error;
  return R.Counts.empty() ? 0 : R.Counts[0].second;
}

size_t countInstructions(const MaoUnit &Unit) {
  size_t N = 0;
  for (const MaoEntry &E : Unit.entries())
    if (E.isInstruction())
      ++N;
  return N;
}

/// Architectural-equivalence oracle: runs `f` before and after applying
/// \p Pass and compares the registers in \p Check.
void expectSemanticsPreserved(const std::string &Asm, const std::string &Pass,
                              std::initializer_list<Reg> Check,
                              MachineState Init = MachineState()) {
  MaoUnit Before = parseOk(Asm);
  MaoUnit After = parseOk(Asm);
  runPass(After, Pass);

  Emulator EmBefore(Before), EmAfter(After);
  EmulationResult RB = EmBefore.run("f", Init);
  EmulationResult RA = EmAfter.run("f", Init);
  ASSERT_EQ(RB.Reason, StopReason::Returned) << RB.Message;
  ASSERT_EQ(RA.Reason, StopReason::Returned) << RA.Message;
  for (Reg R : Check)
    EXPECT_EQ(RB.Final.gprValue(R), RA.Final.gprValue(R))
        << "register " << regName(R) << " diverged after " << Pass;
}

// --- ZEE: redundant zero extension -----------------------------------------

TEST(ZEE, RemovesPaperPattern) {
  // "andl $255, %eax ; mov %eax, %eax" (paper Sec. III-B-a).
  MaoUnit Unit = parseOk(wrapFunction(R"(	andl $255, %eax
	movl %eax, %eax
	ret
)"));
  EXPECT_EQ(runPass(Unit, "ZEE"), 1u);
  EXPECT_EQ(countInstructions(Unit), 2u);
}

TEST(ZEE, KeepsWhenPriorDefIs64Bit) {
  // A 64-bit def does not zero-extend the upper half away: the mov is a
  // real zero extension and must stay.
  MaoUnit Unit = parseOk(wrapFunction(R"(	movq $-1, %rax
	movl %eax, %eax
	ret
)"));
  EXPECT_EQ(runPass(Unit, "ZEE"), 0u);
  EXPECT_EQ(countInstructions(Unit), 3u);
}

TEST(ZEE, KeepsWhenDefInOtherBlock) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	andl $255, %eax
	jmp .LX
.LX:
	movl %eax, %eax
	ret
)"));
  EXPECT_EQ(runPass(Unit, "ZEE"), 0u);
}

TEST(ZEE, KeepsAcrossCall) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	andl $255, %eax
	call g
	movl %eax, %eax
	ret
)"));
  EXPECT_EQ(runPass(Unit, "ZEE"), 0u);
}

TEST(ZEE, PreservesSemantics) {
  MachineState Init;
  Init.setGpr(Reg::RAX, 0xdeadbeefcafef00dULL);
  expectSemanticsPreserved(wrapFunction(R"(	andl $255, %eax
	movl %eax, %eax
	addq $7, %rax
	ret
)"),
                           "ZEE", {Reg::RAX}, Init);
}

// --- REDTEST: redundant test removal ----------------------------------------

TEST(REDTEST, RemovesPaperPattern) {
  // "subl $16, %r15d ; testl %r15d, %r15d" followed by an equality branch.
  MaoUnit Unit = parseOk(wrapFunction(R"(	subl $16, %r15d
	testl %r15d, %r15d
	je .LZ
	movl $1, %eax
	ret
.LZ:
	movl $2, %eax
	ret
)"));
  EXPECT_EQ(runPass(Unit, "REDTEST"), 1u);
}

TEST(REDTEST, KeepsWhenCarryConsumed) {
  // `ja` reads CF; sub computes CF but test would zero it: removing the
  // test changes behaviour, so the pass must not fire.
  MaoUnit Unit = parseOk(wrapFunction(R"(	subl $16, %r15d
	testl %r15d, %r15d
	ja .LZ
	movl $1, %eax
	ret
.LZ:
	movl $2, %eax
	ret
)"));
  EXPECT_EQ(runPass(Unit, "REDTEST"), 0u);
}

TEST(REDTEST, KeepsWhenRegisterChangedBetween) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	subl $16, %r15d
	movl $3, %r15d
	testl %r15d, %r15d
	je .LZ
	ret
.LZ:
	ret
)"));
  EXPECT_EQ(runPass(Unit, "REDTEST"), 0u);
}

TEST(REDTEST, KeepsWhenPrecedingOpIsMove) {
  // mov sets no flags; the test is live.
  MaoUnit Unit = parseOk(wrapFunction(R"(	movl %edi, %r15d
	testl %r15d, %r15d
	je .LZ
	ret
.LZ:
	ret
)"));
  EXPECT_EQ(runPass(Unit, "REDTEST"), 0u);
}

TEST(REDTEST, KeepsOnWidthMismatch) {
  // subq computes 64-bit flags; testl would compute 32-bit flags.
  MaoUnit Unit = parseOk(wrapFunction(R"(	subq $16, %r15
	testl %r15d, %r15d
	je .LZ
	ret
.LZ:
	ret
)"));
  EXPECT_EQ(runPass(Unit, "REDTEST"), 0u);
}

TEST(REDTEST, PreservesSemanticsOnBothPaths) {
  for (int64_t Input : {0, 5, 16, 17, -100}) {
    MachineState Init;
    Init.setGpr(Reg::R15D, static_cast<uint64_t>(Input));
    expectSemanticsPreserved(wrapFunction(R"(	subl $16, %r15d
	testl %r15d, %r15d
	je .LZ
	movl $1, %eax
	ret
.LZ:
	movl $2, %eax
	ret
)"),
                             "REDTEST", {Reg::RAX}, Init);
  }
}

// --- REDMOV: redundant memory access ----------------------------------------

TEST(REDMOV, RewritesPaperPattern) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movq 24(%rsp), %rdx
	movq 24(%rsp), %rcx
	ret
)"));
  EXPECT_EQ(runPass(Unit, "REDMOV"), 1u);
  // Second load must now be a register move.
  std::string Text = emitAssembly(Unit);
  EXPECT_NE(Text.find("movq\t%rdx, %rcx"), std::string::npos) << Text;
}

TEST(REDMOV, ForwardsThroughRewrittenValue) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movq 24(%rsp), %rdx
	movq 24(%rsp), %rcx
	movq 24(%rsp), %rsi
	ret
)"));
  EXPECT_EQ(runPass(Unit, "REDMOV"), 2u);
}

TEST(REDMOV, BlockedByStore) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movq 24(%rsp), %rdx
	movq %rax, 24(%rsp)
	movq 24(%rsp), %rcx
	ret
)"));
  EXPECT_EQ(runPass(Unit, "REDMOV"), 0u);
}

TEST(REDMOV, BlockedByBaseRedefinition) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movq 24(%rsp), %rdx
	addq $8, %rsp
	movq 24(%rsp), %rcx
	ret
)"));
  EXPECT_EQ(runPass(Unit, "REDMOV"), 0u);
}

TEST(REDMOV, BlockedByValueClobber) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movq 24(%rsp), %rdx
	movq $0, %rdx
	movq 24(%rsp), %rcx
	ret
)"));
  EXPECT_EQ(runPass(Unit, "REDMOV"), 0u);
}

TEST(REDMOV, BlockedByCall) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movq 24(%rsp), %rdx
	call g
	movq 24(%rsp), %rcx
	ret
)"));
  EXPECT_EQ(runPass(Unit, "REDMOV"), 0u);
}

TEST(REDMOV, MatchesTheWholeDisplacement) {
  // Same registers, different displacement: never forwarded.
  for (const char *Second :
       {"sym+8(%rsp)", "16(%rsp)", "other+8(%rsp)"}) {
    MaoUnit Unit = parseOk(wrapFunction(
        std::string("\tmovq 8(%rsp), %rdx\n\tmovq ") + Second +
        ", %rcx\n\tret\n"));
    EXPECT_EQ(runPass(Unit, "REDMOV"), 0u) << Second;
  }
  MaoUnit Reversed = parseOk(wrapFunction(R"(	movq sym+8(%rsp), %rdx
	movq 8(%rsp), %rcx
	ret
)"));
  EXPECT_EQ(runPass(Reversed, "REDMOV"), 0u);
  MaoUnit Same = parseOk(wrapFunction(R"(	movq sym+8(%rsp), %rdx
	movq sym+8(%rsp), %rcx
	ret
)"));
  EXPECT_EQ(runPass(Same, "REDMOV"), 1u);
}

TEST(REDMOV, PreservesSemantics) {
  std::string Asm = wrapFunction(R"(	pushq %rbp
	movq %rsp, %rbp
	movq $1234567, -24(%rbp)
	movq -24(%rbp), %rdx
	movq -24(%rbp), %rcx
	addq %rdx, %rcx
	movq %rcx, %rax
	leave
	ret
)");
  expectSemanticsPreserved(Asm, "REDMOV", {Reg::RAX});
}

// --- ADDADD: add/add folding -------------------------------------------------

TEST(ADDADD, FoldsPaperPattern) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	addq $8, %rdi
	movl $1, %eax
	addq $16, %rdi
	ret
)"));
  EXPECT_EQ(runPass(Unit, "ADDADD"), 1u);
  std::string Text = emitAssembly(Unit);
  EXPECT_NE(Text.find("addq\t$24, %rdi"), std::string::npos) << Text;
}

TEST(ADDADD, FoldsMixedAddSub) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	addq $8, %rdi
	subq $3, %rdi
	ret
)"));
  EXPECT_EQ(runPass(Unit, "ADDADD"), 1u);
  std::string Text = emitAssembly(Unit);
  EXPECT_NE(Text.find("addq\t$5, %rdi"), std::string::npos) << Text;
}

TEST(ADDADD, BlockedByIntermediateUse) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	addq $8, %rdi
	movq (%rdi), %rax
	addq $16, %rdi
	ret
)"));
  EXPECT_EQ(runPass(Unit, "ADDADD"), 0u);
}

TEST(ADDADD, BlockedByFlagConsumer) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	addq $8, %rdi
	je .LX
	addq $16, %rdi
.LX:
	ret
)"));
  EXPECT_EQ(runPass(Unit, "ADDADD"), 0u);
}

TEST(ADDADD, PreservesSemantics) {
  MachineState Init;
  Init.setGpr(Reg::RDI, 1000);
  expectSemanticsPreserved(wrapFunction(R"(	addq $8, %rdi
	movl $1, %eax
	addq $16, %rdi
	movq %rdi, %rax
	ret
)"),
                           "ADDADD", {Reg::RAX}, Init);
}

// --- Scalar passes ------------------------------------------------------------

TEST(DCE, RemovesUnreachableBlock) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movl $1, %eax
	ret
.LDEAD:
	movl $2, %eax
	addl $3, %eax
	ret
)"));
  EXPECT_EQ(runPass(Unit, "DCE"), 3u);
  EXPECT_EQ(countInstructions(Unit), 2u);
}

/// Runs \p Passes with the full verifier after each pass (--mao-verify),
/// kept-CFG check included; returns the pipeline's result.
PipelineResult runVerified(MaoUnit &Unit,
                           const std::vector<std::string> &Passes) {
  linkAllPasses();
  std::vector<PassRequest> Reqs;
  for (const std::string &Name : Passes) {
    Reqs.emplace_back();
    Reqs.back().PassName = Name;
  }
  PipelineOptions Options;
  Options.VerifyAfterEachPass = true;
  Options.PerPassVerify = VerifierOptions();
  return runPasses(Unit, Reqs, Options);
}

TEST(DCE, ErasingTheOnlyInstructionBetweenTwoLabelsMergesTheirBlocks) {
  // DCE erases the unreachable `movl $2`; .LDEAD and .LLIVE then start
  // one block, and the kept CFG must follow.
  MaoUnit Unit = parseOk(wrapFunction("\tcmpl $0, %edi\n"
                                      "\tje .LLIVE\n"
                                      "\tmovl $1, %eax\n"
                                      "\tret\n"
                                      ".LDEAD:\n"
                                      "\tmovl $2, %eax\n"
                                      ".LLIVE:\n"
                                      "\tret\n"));
  MaoFunction &Fn = Unit.functions()[0];
  EXPECT_EQ(keptCFG(Fn).blocks().size(), 4u);
  const uint32_t Epoch = Fn.Epochs.ControlFlow;
  PipelineResult R = runVerified(Unit, {"DCE"});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Counts[0].second, 1u);
  EXPECT_GT(Fn.Epochs.ControlFlow, Epoch);
  EXPECT_EQ(keptCFG(Fn).blocks().size(), 3u);
}

TEST(DCE, SkipsFunctionWithUnresolvedIndirect) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	jmp *%rax
.LMAYBE:
	ret
)"));
  EXPECT_EQ(runPass(Unit, "DCE"), 0u);
}

TEST(DCE, UnresolvedIndirectSkipIsReported) {
  // DCE and BBREORDER leave a function alone when it has an indirect jump
  // no jump table resolves. Each skip is one warning through the request's
  // diagnostics, in function order for every worker count, and one count.
  const std::string Asm = "\t.text\n"
                          "\t.type f, @function\nf:\n"
                          "\tjmp *%rax\n.LF:\n\tret\n\t.size f, .-f\n"
                          "\t.type g, @function\ng:\n"
                          "\tjmp *%rcx\n.LG:\n\tret\n\t.size g, .-g\n";
  linkAllPasses();
  for (unsigned Jobs : {1u, 4u}) {
    MaoUnit Unit = parseOk(Asm);
    StatsRegistry::instance().reset();
    DiagEngine Diags;
    CollectingDiagSink Sink;
    Diags.addSink(&Sink);
    PassRequest Dce, Reorder;
    Dce.PassName = "DCE";
    Reorder.PassName = "BBREORDER";
    PipelineOptions Options;
    Options.Diags = &Diags;
    Options.Jobs = Jobs;
    PipelineResult R = runPasses(Unit, {Dce, Reorder}, Options);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Counts[0].second + R.Counts[1].second, 0u);
    EXPECT_EQ(StatsRegistry::instance()
                  .counter("pipeline.unresolved_skips")
                  .value(),
              4u);
    ASSERT_EQ(Sink.diagnostics().size(), 4u) << "jobs " << Jobs;
    const std::pair<const char *, const char *> Want[] = {
        {"DCE", "function f"},
        {"DCE", "function g"},
        {"BBREORDER", "function f"},
        {"BBREORDER", "function g"}};
    for (size_t I = 0; I < 4; ++I) {
      const Diagnostic &D = Sink.diagnostics()[I];
      EXPECT_EQ(D.Severity, DiagSeverity::Warning);
      EXPECT_EQ(D.Code, DiagCode::PassUnresolvedIndirect);
      EXPECT_STREQ(diagCodeName(D.Code), "pass-unresolved-indirect");
      EXPECT_EQ(D.PassName, Want[I].first) << "jobs " << Jobs;
      EXPECT_EQ(D.Message.rfind(Want[I].second, 0), 0u)
          << D.Message << " (jobs " << Jobs << ")";
    }
  }
}

TEST(DCE, KeepsJumpTableTargets) {
  std::string S = R"(	.text
	.type f, @function
f:
	movl %edi, %eax
	movq .LTBL(,%rax,8), %rax
	jmp *%rax
.LA:
	movl $1, %eax
	ret
.LB:
	movl $2, %eax
	ret
	.size f, .-f
	.section .rodata
.LTBL:
	.quad .LA
	.quad .LB
)";
  MaoUnit Unit = parseOk(S);
  EXPECT_EQ(runPass(Unit, "DCE"), 0u);
}

TEST(CONSTFOLD, FoldsMovAdd) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movl $10, %eax
	addl $32, %eax
	ret
)"));
  EXPECT_EQ(runPass(Unit, "CONSTFOLD"), 1u);
  std::string Text = emitAssembly(Unit);
  EXPECT_NE(Text.find("movl\t$42, %eax"), std::string::npos) << Text;
}

TEST(CONSTFOLD, FoldsChains) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movl $10, %eax
	addl $30, %eax
	xorl $2, %eax
	ret
)"));
  EXPECT_EQ(runPass(Unit, "CONSTFOLD"), 2u);
  std::string Text = emitAssembly(Unit);
  EXPECT_NE(Text.find("movl\t$42, %eax"), std::string::npos) << Text;
}

TEST(CONSTFOLD, BlockedWhenFlagsLive) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movl $10, %eax
	addl $-10, %eax
	je .LX
	movl $1, %ebx
.LX:
	ret
)"));
  EXPECT_EQ(runPass(Unit, "CONSTFOLD"), 0u);
}

// --- NOP passes ----------------------------------------------------------------

TEST(NOPIN, DeterministicForSeed) {
  std::string Asm = wrapFunction(R"(	movl $1, %eax
	addl $2, %eax
	addl $3, %eax
	subl $1, %eax
	ret
)");
  MaoUnit A = parseOk(Asm);
  MaoUnit B = parseOk(Asm);
  MaoOptionMap Opts;
  Opts.set("seed", "123");
  Opts.set("density", "50");
  runPass(A, "NOPIN", Opts);
  runPass(B, "NOPIN", Opts);
  EXPECT_EQ(emitAssembly(A), emitAssembly(B));

  MaoUnit C = parseOk(Asm);
  MaoOptionMap Opts2;
  Opts2.set("seed", "124");
  Opts2.set("density", "50");
  runPass(C, "NOPIN", Opts2);
  // Different seed: almost surely a different placement.
  EXPECT_NE(emitAssembly(A), emitAssembly(C));
}

TEST(NOPIN, PreservesSemantics) {
  MaoOptionMap Opts;
  Opts.set("seed", "7");
  Opts.set("density", "60");
  std::string Asm = wrapFunction(R"(	movl $0, %eax
	movl $10, %ecx
.LLOOP:
	addl %ecx, %eax
	subl $1, %ecx
	jne .LLOOP
	ret
)");
  MaoUnit Before = parseOk(Asm);
  MaoUnit After = parseOk(Asm);
  runPass(After, "NOPIN", Opts);
  Emulator EB(Before), EA(After);
  EXPECT_EQ(EB.run("f", MachineState()).Final.gprValue(Reg::EAX),
            EA.run("f", MachineState()).Final.gprValue(Reg::EAX));
}

TEST(NOPKILL, RemovesAlignmentAndNops) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movl $1, %eax
	.p2align 4,,15
.LX:
	nop
	addl $2, %eax
	ret
)"));
  EXPECT_EQ(runPass(Unit, "NOPKILL"), 2u);
  std::string Text = emitAssembly(Unit);
  EXPECT_EQ(Text.find(".p2align"), std::string::npos);
  EXPECT_EQ(Text.find("nop"), std::string::npos);
}

TEST(NOPKILL, ErasingALoneNopBetweenTwoLabelsKeepsTheCFGCurrent) {
  MaoUnit Unit = parseOk(wrapFunction("\tcmpl $0, %edi\n"
                                      "\tje .LB\n"
                                      ".LA:\n"
                                      "\tnop\n"
                                      ".LB:\n"
                                      "\tmovl $1, %eax\n"
                                      "\tret\n"));
  MaoFunction &Fn = Unit.functions()[0];
  EXPECT_EQ(keptCFG(Fn).blocks().size(), 3u);
  PipelineResult R = runVerified(Unit, {"NOPKILL", "DCE"});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Counts[0].second, 1u);
  EXPECT_EQ(keptCFG(Fn).blocks().size(), 2u);
}

TEST(INSTRUMENT, InsertsEntryAndExitNops) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movl $1, %eax
	je .LX
	ret
.LX:
	movl $2, %eax
	ret
)"));
  EXPECT_EQ(runPass(Unit, "INSTRUMENT"), 3u); // entry + two rets
  unsigned Nop5Count = 0;
  for (const MaoEntry &E : Unit.entries())
    if (E.isInstruction() && E.instruction().isNop() &&
        E.instruction().NopLength == 5)
      ++Nop5Count;
  EXPECT_EQ(Nop5Count, 3u);
}

TEST(INSTRUMENT, NopsNeverCrossCacheLines) {
  // A function long enough that naive placement would cross a 64-byte
  // boundary somewhere.
  std::string Body;
  for (int I = 0; I < 30; ++I)
    Body += "\taddl $1, %eax\n";
  Body += "\tret\n";
  for (int I = 0; I < 10; ++I)
    Body += "\taddl $1, %eax\n";
  Body += "\tret\n";
  MaoUnit Unit = parseOk(wrapFunction(Body));
  runPass(Unit, "INSTRUMENT");
  relaxUnit(Unit);
  for (const MaoEntry &E : Unit.entries()) {
    if (!E.isInstruction() || !E.instruction().isNop() ||
        E.instruction().NopLength != 5)
      continue;
    EXPECT_EQ(E.Address / 64, (E.Address + 4) / 64)
        << "5-byte NOP at " << E.Address << " crosses a cache line";
  }
}

// --- Alignment passes -----------------------------------------------------------

TEST(LOOP16, AlignsSplitShortLoop) {
  // 5-byte mov puts an 11-byte loop at offset 5: it straddles the 16-byte
  // boundary, and the pass must pad it to 16.
  MaoUnit Unit = parseOk(wrapFunction(R"(	movl $100, %ecx
.LLOOP:
	addl $1, %eax
	addl $1, %edx
	addl $1, %esi
	subl $1, %ecx
	jne .LLOOP
	ret
)"));
  EXPECT_EQ(runPass(Unit, "LOOP16"), 1u);
  RelaxationResult R = relaxUnit(Unit);
  EXPECT_EQ(R.Labels.at(".LLOOP") % 16, 0);
}

TEST(LOOP16, PadAtSectionReentryIsSeenByRelaxation) {
  // The loop header is the first entry after a `.text` re-entry, so the
  // pad lands at the start of a section run. Relaxation must see it: one
  // 5-byte pad aligns the 11-byte loop, and the next round finds nothing
  // left to do.
  MaoUnit Unit = parseOk(R"(	.text
	.globl	f
	.type	f, @function
f:
	movl	$100, %ecx
	movl	$0, %eax
	addl	$1, %eax
	addl	$1, %eax
	addl	$1, %eax
	addl	$1, %eax
	addl	$1, %eax
	jmp	.L3
	.section	.rodata
.LC0:
	.long	5
	.text
.L3:
	addl	$1, %eax
	addl	$2, %eax
	subl	$1, %ecx
	jne	.L3
	ret
	.size	f, .-f
)");
  EXPECT_EQ(runPass(Unit, "LOOP16"), 1u);
  std::vector<unsigned> Nops;
  for (const MaoEntry &E : Unit.entries())
    if (E.isInstruction() && E.instruction().isNop())
      Nops.push_back(E.instruction().NopLength);
  EXPECT_EQ(Nops, std::vector<unsigned>{5});
  RelaxationResult R = relaxUnit(Unit);
  const int64_t Loop = R.sectionLabels(".text").at(".L3");
  EXPECT_EQ(Loop >> 4, (Loop + 10) >> 4) << "loop at " << Loop;
}

TEST(LOOP16, RoundCapWithWorkLeftIsReported) {
  // Nine straddling short loops in one function: each round pads one, so
  // at least one is still split when the eight-round cap is reached. The
  // pass stops there as before, and says so.
  std::string Body;
  for (int I = 0; I < 9; ++I) {
    const std::string L = ".LL" + std::to_string(I);
    Body += "\tmovl $100, %ecx\n" + L + ":\n";
    Body += "\taddl $1, %eax\n\taddl $1, %edx\n\taddl $1, %esi\n";
    Body += "\tsubl $1, %ecx\n\tjne " + L + "\n";
  }
  Body += "\tret\n";
  MaoUnit Unit = parseOk(wrapFunction(Body));
  StatsRegistry::instance().reset();
  DiagEngine Diags;
  CollectingDiagSink Sink;
  Diags.addSink(&Sink);
  linkAllPasses();
  PassRequest Req;
  Req.PassName = "LOOP16";
  PipelineOptions Options;
  Options.Diags = &Diags;
  PipelineResult R = runPasses(Unit, {Req}, Options);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Counts[0].second, 8u);
  EXPECT_EQ(
      StatsRegistry::instance().counter("pipeline.round_cap_hits").value(),
      1u);
  ASSERT_EQ(Sink.diagnostics().size(), 1u);
  const Diagnostic &D = Sink.diagnostics()[0];
  EXPECT_EQ(D.Severity, DiagSeverity::Warning);
  EXPECT_EQ(D.Code, DiagCode::PassRoundCap);
  EXPECT_EQ(D.PassName, "LOOP16");
  EXPECT_NE(D.Message.find("function f"), std::string::npos);
}

TEST(LOOP16, RoundCapNotReportedWhenWorkFits) {
  // Two straddling loops settle well within the cap.
  std::string Body;
  for (int I = 0; I < 2; ++I) {
    const std::string L = ".LL" + std::to_string(I);
    Body += "\tmovl $100, %ecx\n" + L + ":\n";
    Body += "\taddl $1, %eax\n\taddl $1, %edx\n\taddl $1, %esi\n";
    Body += "\tsubl $1, %ecx\n\tjne " + L + "\n";
  }
  Body += "\tret\n";
  MaoUnit Unit = parseOk(wrapFunction(Body));
  StatsRegistry::instance().reset();
  const unsigned Pads = runPass(Unit, "LOOP16");
  EXPECT_GE(Pads, 2u);
  EXPECT_LT(Pads, 8u);
  EXPECT_EQ(
      StatsRegistry::instance().counter("pipeline.round_cap_hits").value(),
      0u);
}

TEST(LOOP16, PadAfterAnUnconditionalJumpIsAControlFlowEdit) {
  // GCC's rotated loop: LOOP16 pads the body label, right after the `jmp`
  // into the condition, where the pad forms a block of its own.
  MaoUnit Unit = parseOk(wrapFunction("\tmovl $10, %ecx\n"
                                      "\txorl %eax, %eax\n"
                                      "\tjmp .LCOND\n"
                                      ".LBODY:\n"
                                      "\taddl $3, %eax\n"
                                      "\taddl $5, %eax\n"
                                      ".LCOND:\n"
                                      "\tsubl $1, %ecx\n"
                                      "\tjne .LBODY\n"
                                      "\tret\n"));
  MaoFunction &Fn = Unit.functions()[0];
  const size_t BlocksBefore = keptCFG(Fn).blocks().size();
  EXPECT_EQ(runPass(Unit, "LOOP16"), 1u);
  EXPECT_GT(Fn.Epochs.ControlFlow, 0u);
  EXPECT_EQ(keptCFG(Fn).blocks().size(), BlocksBefore + 1);
  VerifierReport Report = verifyKeptAnalyses(Unit, nullptr, "test");
  EXPECT_TRUE(Report.clean()) << Report.firstMessage();
}

TEST(LOOP16, PadAfterFallThroughKeepsTheCFG) {
  // A pad before a loop label that a plain instruction falls into joins
  // that instruction's block: an instruction-only edit.
  MaoUnit Unit = parseOk(wrapFunction("\tmovl $10, %ecx\n"
                                      "\tmovl $0, %eax\n"
                                      "\tmovl $0, %edx\n"
                                      ".LLOOP:\n"
                                      "\taddl $3, %eax\n"
                                      "\tsubl $1, %ecx\n"
                                      "\tjne .LLOOP\n"
                                      "\tret\n"));
  MaoFunction &Fn = Unit.functions()[0];
  StatCounter &Builds =
      StatsRegistry::instance().counter("analysis.cfg_builds");
  const uint64_t Before = Builds.value();
  EXPECT_EQ(runPass(Unit, "LOOP16"), 1u);
  EXPECT_EQ(Fn.Epochs.ControlFlow, 0u);
  EXPECT_GT(Fn.Epochs.Instructions, 0u);
  keptCFG(Fn);
  EXPECT_EQ(Builds.value(), Before + 1);
  VerifierReport Report = verifyKeptAnalyses(Unit, nullptr, "test");
  EXPECT_TRUE(Report.clean()) << Report.firstMessage();
}

TEST(LOOP16, LeavesAlignedLoopAlone) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movl $100, %ecx
	nop11
.LLOOP:
	addl $1, %eax
	subl $1, %ecx
	jne .LLOOP
	ret
)"));
  EXPECT_EQ(runPass(Unit, "LOOP16"), 0u);
}

TEST(LOOP16, IgnoresLargeLoops) {
  std::string Body = "\tmovl $100, %ecx\n.LLOOP:\n";
  for (int I = 0; I < 10; ++I)
    Body += "\taddl $1, %eax\n";
  Body += "\tsubl $1, %ecx\n\tjne .LLOOP\n\tret\n";
  MaoUnit Unit = parseOk(wrapFunction(Body));
  EXPECT_EQ(runPass(Unit, "LOOP16"), 0u);
}

TEST(LSDOPT, PacksLoopIntoFourLines) {
  // ~50 bytes of loop body placed to span 5 lines; after padding it fits 4.
  std::string Body = "\tmovl $100, %ecx\n\tnop9\n.LLOOP:\n";
  for (int I = 0; I < 16; ++I)
    Body += "\taddl $1, %eax\n"; // 48 bytes; total body 53 -> 5 lines
  Body += "\tsubl $1, %ecx\n\tjne .LLOOP\n\tret\n";
  MaoUnit Unit = parseOk(wrapFunction(Body));
  RelaxationResult Before = relaxUnit(Unit);
  int64_t StartBefore = Before.Labels.at(".LLOOP");
  EXPECT_NE(StartBefore % 16, 0);
  EXPECT_EQ(runPass(Unit, "LSDOPT"), 1u);
  RelaxationResult After = relaxUnit(Unit);
  EXPECT_EQ(After.Labels.at(".LLOOP") % 16, 0);
}

TEST(LSDOPT, SkipsLoopsWithCalls) {
  std::string Body = "\tmovl $100, %ecx\n\tnop9\n.LLOOP:\n";
  for (int I = 0; I < 13; ++I)
    Body += "\taddl $1, %eax\n";
  Body += "\tcall g\n";
  Body += "\tsubl $1, %ecx\n\tjne .LLOOP\n\tret\n";
  MaoUnit Unit = parseOk(wrapFunction(Body));
  EXPECT_EQ(runPass(Unit, "LSDOPT"), 0u);
}

TEST(BRALIGN, SeparatesAliasedBackBranches) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movl $8, %ecx
	.p2align 5
.LI1:
	addl $1, %eax
	subl $1, %ecx
	jne .LI1
	movl $8, %ecx
.LI2:
	addl $1, %edx
	subl $1, %ecx
	jne .LI2
	ret
)"));
  EXPECT_EQ(runPass(Unit, "BRALIGN"), 1u);
  // After the pass the two back branches are in different PC>>5 buckets.
  relaxUnit(Unit);
  std::vector<int64_t> BranchAddrs;
  for (const MaoEntry &E : Unit.entries())
    if (E.isInstruction() && E.instruction().isCondJump())
      BranchAddrs.push_back(E.Address);
  ASSERT_EQ(BranchAddrs.size(), 2u);
  EXPECT_NE(BranchAddrs[0] >> 5, BranchAddrs[1] >> 5);
}

// --- SCHED ------------------------------------------------------------------

TEST(SCHED, HoistsCriticalPath) {
  // The paper's hashing sequence: the xorl feeds three consumers; critical
  // path (shrl chain) should be prioritized. At minimum, dependences must
  // be respected and something must move.
  std::string Asm = wrapFunction(R"(	xorl %edi, %ebx
	subl %ebx, %ecx
	subl %ebx, %edx
	movl %ebx, %edi
	shrl $12, %edi
	xorl %edi, %edx
	ret
)");
  MaoUnit Unit = parseOk(Asm);
  unsigned Moved = runPass(Unit, "SCHED");
  EXPECT_GT(Moved, 0u);
}

TEST(SCHED, KeepsABareSymbolStoreBeforeItsLoad) {
  // A bare data symbol is a memory operand: the shift writes `counter` and
  // the load reads it, so the load may not move above the shift. The
  // imull chain behind the load makes it the critical path.
  MaoUnit Unit = parseOk("\t.data\ncounter:\n\t.long 0\n" +
                         wrapFunction(R"(	shrl $3, counter
	imull %ecx, %edx
	imull %edx, %esi
	movl counter, %eax
	imull %eax, %eax
	imull %eax, %eax
	ret
)"));
  const Instruction *Shift = nullptr;
  for (const MaoEntry &E : Unit.entries())
    if (E.isInstruction() && E.instruction().Mn == Mnemonic::SHR)
      Shift = &E.instruction();
  ASSERT_NE(Shift, nullptr);
  EXPECT_TRUE(Shift->effects().MemWrite);
  EXPECT_TRUE(Shift->effects().MemRead);

  runPass(Unit, "SCHED");
  const std::string Out = emitAssembly(Unit);
  const size_t ShiftAt = Out.find("shrl\t$3, counter");
  const size_t LoadAt = Out.find("movl\tcounter, %eax");
  ASSERT_NE(ShiftAt, std::string::npos) << Out;
  ASSERT_NE(LoadAt, std::string::npos) << Out;
  EXPECT_LT(ShiftAt, LoadAt) << Out;
}

TEST(SCHED, PreservesSemantics) {
  MachineState Init;
  Init.setGpr(Reg::EDI, 0x1234);
  Init.setGpr(Reg::EBX, 0x5678);
  Init.setGpr(Reg::ECX, 1000);
  Init.setGpr(Reg::EDX, 2000);
  expectSemanticsPreserved(wrapFunction(R"(	xorl %edi, %ebx
	subl %ebx, %ecx
	subl %ebx, %edx
	movl %ebx, %edi
	shrl $12, %edi
	xorl %edi, %edx
	movl %edx, %eax
	ret
)"),
                           "SCHED", {Reg::RAX, Reg::RCX, Reg::RDX}, Init);
}

TEST(SCHED, KeepsBranchesLast) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movl $10, %ecx
.LLOOP:
	addl $1, %eax
	imull $3, %eax, %edx
	subl $1, %ecx
	jne .LLOOP
	ret
)"));
  runPass(Unit, "SCHED");
  // Every basic block must still end with its control transfer.
  CFG G = CFG::build(Unit.functions()[0]);
  for (const BasicBlock &BB : G.blocks()) {
    for (size_t I = 0; I + 1 < BB.Insns.size(); ++I)
      EXPECT_FALSE(BB.Insns[I]->instruction().isBranch());
  }
}

TEST(SCHED, PreservesLoopSemantics) {
  MachineState Init;
  expectSemanticsPreserved(wrapFunction(R"(	movl $0, %eax
	movl $20, %ecx
.LLOOP:
	leal 3(%rax), %edx
	imull $5, %edx, %edx
	addl %edx, %eax
	subl $1, %ecx
	jne .LLOOP
	ret
)"),
                           "SCHED", {Reg::RAX}, Init);
}

TEST(SCHED, SchedulesFlagReaderWriters) {
  // adc/sbb read the carry and write all status flags. Each block holds a
  // chain of them feeding later flag readers (setc, cmov, adc, jne), with
  // independent work around them for the scheduler to move.
  MachineState Init;
  Init.setGpr(Reg::RAX, 0x7fffffffffffffffULL);
  Init.setGpr(Reg::RBX, 3);
  Init.setGpr(Reg::RCX, ~0ULL);
  Init.setGpr(Reg::RDX, 11);
  Init.setGpr(Reg::RSI, 100);
  Init.setGpr(Reg::RDI, 0x1234);
  expectSemanticsPreserved(wrapFunction(R"(	addq $1, %rcx
	adcq %rbx, %rax
	imulq $7, %rdi, %r8
	sbbq %rdx, %rsi
	setc %dl
	adcq $0, %rdi
	movq %r8, %rbx
	cmovcq %rdi, %rax
	ret
)"),
                           "SCHED",
                           {Reg::RAX, Reg::RBX, Reg::RDX, Reg::RSI, Reg::RDI,
                            Reg::R8},
                           Init);
  expectSemanticsPreserved(wrapFunction(R"(	movl $0, %eax
	movl $0, %edx
	movl $9, %ecx
.LLOOP:
	addl $-1, %ecx
	adcl $3, %eax
	imull $5, %eax, %esi
	sbbl $1, %edx
	addl %esi, %edi
	testl %ecx, %ecx
	jne .LLOOP
	ret
)"),
                           "SCHED", {Reg::RAX, Reg::RDX, Reg::RSI, Reg::RDI},
                           Init);
}

TEST(PeepholePasses, KeepLengthMemosOfInstructionsTheyOnlyRead) {
  // The peephole passes read every instruction but rewrite few: the rest
  // keep the length memos parsing seeded, so LOOP16's layout after them
  // does not measure the unit again.
  for (const WorkloadSpec &Spec : spec2000IntProfiles()) {
    MaoUnit Unit = parseOk(generateWorkloadAssembly(Spec));
    linkAllPasses();
    std::vector<PassRequest> Reqs(4);
    const char *Names[] = {"ZEE", "REDTEST", "REDMOV", "ADDADD"};
    for (size_t I = 0; I < Reqs.size(); ++I)
      Reqs[I].PassName = Names[I];
    PipelineResult R = runPasses(Unit, Reqs);
    ASSERT_TRUE(R.Ok) << Spec.Name << ": " << R.Error;
    size_t Rewrites = 0, Unmeasured = 0;
    for (const auto &Count : R.Counts)
      Rewrites += Count.second;
    for (const MaoEntry &E : Unit.entries()) {
      if (!E.isInstruction() || E.instruction().isOpaque())
        continue;
      const Instruction &Insn = E.instruction();
      if (!(Insn.isBranch() && !Insn.hasIndirectTarget()) &&
          E.lengthMemo() == 0)
        ++Unmeasured;
    }
    // A rewrite re-renders at most two instructions (a forwarded load, a
    // folded add/sub pair, a window's replacement).
    EXPECT_LE(Unmeasured, 2 * Rewrites) << Spec.Name;
  }
}

TEST(PeepholePasses, KeepEffectsMemosOfInstructionsTheyOnlyRead) {
  // Liveness reads every instruction's effects once and the entry keeps
  // them; only a rewrite drops a memo, and the next pass that reads the
  // rewritten instruction fills it again.
  for (const WorkloadSpec &Spec : spec2000IntProfiles()) {
    MaoUnit Unit = parseOk(generateWorkloadAssembly(Spec));
    linkAllPasses();
    std::vector<PassRequest> Reqs(4);
    const char *Names[] = {"ZEE", "REDTEST", "REDMOV", "ADDADD"};
    for (size_t I = 0; I < Reqs.size(); ++I)
      Reqs[I].PassName = Names[I];
    PipelineResult R = runPasses(Unit, Reqs);
    ASSERT_TRUE(R.Ok) << Spec.Name << ": " << R.Error;
    size_t Rewrites = 0, Unmemoized = 0;
    for (const auto &Count : R.Counts)
      Rewrites += Count.second;
    for (const MaoEntry &E : Unit.entries())
      if (E.isInstruction() && !E.hasEffectsMemo())
        ++Unmemoized;
    EXPECT_LE(Unmemoized, 2 * Rewrites) << Spec.Name;
  }
}

TEST(PeepholePasses, EffectsMemoKeptByConstReadsDroppedByMutableAccess) {
  MaoUnit Unit = parseOk(wrapFunction("\taddl $1, %eax\n\tret\n"));
  MaoEntry *Add = nullptr;
  for (MaoEntry &E : Unit.entries())
    if (E.isInstruction() && !Add)
      Add = &E;
  ASSERT_NE(Add, nullptr);
  StatCounter &Misses =
      StatsRegistry::instance().counter("analysis.effects_memo_misses");
  const uint64_t Before = Misses.value();
  const InstructionEffects Fx = Add->effects();
  EXPECT_TRUE(Add->hasEffectsMemo());
  EXPECT_EQ(Misses.value(), Before + 1);
  // Const reads keep the memo and hit it.
  EXPECT_EQ(std::as_const(*Add).instruction().Mn, Mnemonic::ADD);
  EXPECT_EQ(Add->effects().RegDefs, Fx.RegDefs);
  EXPECT_EQ(Add->effects().FlagsDef, Fx.FlagsDef);
  EXPECT_TRUE(Add->hasEffectsMemo());
  EXPECT_EQ(Misses.value(), Before + 1);
  // The mutable accessor is an edit: the memo goes with it.
  Add->instruction().Ops[1] = Operand::makeReg(Reg::EBX);
  EXPECT_FALSE(Add->hasEffectsMemo());
  EXPECT_EQ(Add->effects().RegDefs, regMaskBit(Reg::RBX));
  EXPECT_EQ(Misses.value(), Before + 2);
}

TEST(SCHED, KeepsLengthMemos) {
  // Every payload SCHED moves carries its length memo into its new slot,
  // and the instructions it only reads keep theirs.
  MaoUnit Unit = parseOk(wrapFunction(R"(	xorl %edi, %ebx
	subl %ebx, %ecx
	subl %ebx, %edx
	movl %ebx, %edi
	shrl $12, %edi
	xorl %edi, %edx
	movq 8(%rsp), %rax
	addq $1000, %rax
	ret
)"));
  ASSERT_TRUE(relaxUnit(Unit).Converged);
  size_t Memoized = 0;
  for (const MaoEntry &E : Unit.entries())
    if (E.isInstruction() && E.lengthMemo() != 0)
      ++Memoized;
  ASSERT_EQ(Memoized, countInstructions(Unit));
  ASSERT_GT(runPass(Unit, "SCHED"), 0u);
  for (const MaoEntry &E : Unit.entries()) {
    if (!E.isInstruction())
      continue;
    EXPECT_NE(E.lengthMemo(), 0u) << E.toString();
    EXPECT_EQ(E.lengthMemo(), instructionLength(E.instruction()))
        << E.toString();
  }
  const VerifierReport Report = verifyUnit(Unit);
  EXPECT_TRUE(Report.clean()) << Report.firstMessage();
}

TEST(SCHED, CountsBlocksAndMoves) {
  StatsRegistry &Stats = StatsRegistry::instance();
  const uint64_t Blocks = Stats.counter("sched.blocks").value();
  const uint64_t Moved = Stats.counter("sched.moved").value();
  // Two blocks: the first is too small to schedule.
  MaoUnit Unit = parseOk(wrapFunction(R"(	movl $1, %eax
	jmp .LB
.LB:
	xorl %edi, %ebx
	subl %ebx, %ecx
	subl %ebx, %edx
	movl %ebx, %edi
	shrl $12, %edi
	xorl %edi, %edx
	ret
)"));
  const unsigned Xforms = runPass(Unit, "SCHED");
  EXPECT_GT(Xforms, 0u);
  EXPECT_EQ(Stats.counter("sched.blocks").value() - Blocks, 1u);
  EXPECT_EQ(Stats.counter("sched.moved").value() - Moved, Xforms);
}

// --- Pipeline / infrastructure ------------------------------------------------

TEST(Pipeline, RunsMultiplePassesInOrder) {
  linkAllPasses();
  MaoUnit Unit = parseOk(wrapFunction(R"(	andl $255, %eax
	movl %eax, %eax
	subl $16, %r15d
	testl %r15d, %r15d
	je .LZ
	ret
.LZ:
	ret
)"));
  std::vector<PassRequest> Requests;
  MaoStatus S = parseMaoOption("ZEE:REDTEST", Requests);
  ASSERT_TRUE(S.ok());
  PipelineResult R = runPasses(Unit, Requests);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.Counts.size(), 2u);
  EXPECT_EQ(R.Counts[0], (std::pair<std::string, unsigned>("ZEE", 1)));
  EXPECT_EQ(R.Counts[1], (std::pair<std::string, unsigned>("REDTEST", 1)));
}

TEST(Pipeline, UnknownPassFails) {
  linkAllPasses();
  MaoUnit Unit = parseOk(wrapFunction("\tret\n"));
  PassRequest Req;
  Req.PassName = "NOSUCHPASS";
  PipelineResult R = runPasses(Unit, {Req});
  EXPECT_FALSE(R.Ok);
}

TEST(BBREORDER, MovesJumpedOverBlockWithBranchInversion) {
  // A conditionally skipped block inside the loop ends in an
  // unconditional jump: BBREORDER inverts the guarding branch and moves
  // the block out of the fallthrough path (shrinking the loop extent).
  const std::string Asm = wrapFunction("\tmovl $5, %ecx\n"
                                       "\txorl %eax, %eax\n"
                                       "\txorl %ebx, %ebx\n"
                                       ".L0:\n"
                                       "\taddl $1, %eax\n"
                                       "\tcmpl $3, %eax\n"
                                       "\tje .LSKIP\n"
                                       "\taddl $10, %ebx\n"
                                       "\tjmp .LNEXT\n"
                                       ".LSKIP:\n"
                                       "\taddl $100, %ebx\n"
                                       ".LNEXT:\n"
                                       "\tsubl $1, %ecx\n"
                                       "\tjne .L0\n"
                                       "\tret\n");
  MaoUnit Unit = parseOk(Asm);
  EXPECT_EQ(runPass(Unit, "BBREORDER"), 1u);
  // The moved block now lives after the function's final ret.
  std::string Text = emitAssembly(Unit);
  EXPECT_GT(Text.find("addl $10, %ebx"), Text.find("ret"));
  expectSemanticsPreserved(Asm, "BBREORDER", {Reg::RAX, Reg::RBX, Reg::RCX});
}

TEST(BBREORDER, UsesJumpTablesOnlyReachingDefinitionsResolve) {
  // The table load sits in another block than `jmp *%rax`, so only the
  // reaching-definitions tier resolves the jump. DCE, LFIND and BBREORDER
  // all see that resolved CFG: BBREORDER no longer skips the function, and
  // the peepholes before it no longer flag it as unresolved.
  const std::string Asm = R"(	.text
	.type f, @function
f:
	movq .LT(,%rdi,8), %rax
	cmpq $0, %rsi
	je .L1
	addq $1, %rsi
.L1:
	jmp *%rax
.LA:
	movl $1, %eax
	ret
.LB:
	movl $2, %eax
	ret
	.size f, .-f
	.section .rodata
.LT:
	.quad .LA
	.quad .LB
)";
  linkAllPasses();
  for (unsigned Jobs : {1u, 4u}) {
    MaoUnit Unit = parseOk(Asm);
    DiagEngine Diags;
    CollectingDiagSink Sink;
    Diags.addSink(&Sink);
    PassRequest Zee, Reorder;
    Zee.PassName = "ZEE";
    Reorder.PassName = "BBREORDER";
    PipelineOptions Options;
    Options.Diags = &Diags;
    Options.Jobs = Jobs;
    PipelineResult R = runPasses(Unit, {Zee}, Options);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_FALSE(Unit.functions()[0].HasUnresolvedIndirect);
    R = runPasses(Unit, {Reorder}, Options);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_TRUE(Sink.diagnostics().empty())
        << Sink.diagnostics().front().toString();
    EXPECT_EQ(keptCFG(Unit.functions()[0]).stats().ResolvedReachingDefs, 1u);
  }
}

TEST(BBREORDER, RetargetingABranchInPlaceIsAControlFlowEdit) {
  MaoUnit Unit = parseOk(wrapFunction("\tmovl $5, %ecx\n"
                                      ".L0:\n"
                                      "\tcmpl $3, %ecx\n"
                                      "\tje .LSKIP\n"
                                      "\taddl $10, %ebx\n"
                                      "\tjmp .LNEXT\n"
                                      ".LSKIP:\n"
                                      "\taddl $100, %ebx\n"
                                      ".LNEXT:\n"
                                      "\tsubl $1, %ecx\n"
                                      "\tjne .L0\n"
                                      "\tret\n"));
  MaoFunction &Fn = Unit.functions()[0];
  const size_t BlocksBefore = keptCFG(Fn).blocks().size();
  const uint32_t Epoch = Fn.Epochs.ControlFlow;
  EXPECT_EQ(runPass(Unit, "BBREORDER"), 1u);
  EXPECT_GT(Fn.Epochs.ControlFlow, Epoch);
  // The next use rebuilds it; it matches a fresh build.
  EXPECT_EQ(keptCFG(Fn).blocks().size(), BlocksBefore);
  VerifierReport Report = verifyKeptAnalyses(Unit, nullptr, "test");
  EXPECT_TRUE(Report.clean()) << Report.firstMessage();
}

TEST(BBREORDER, RunsOnceDceErasedTheOnlyOpaqueInstruction) {
  // BBREORDER skips a function with an opaque instruction. Here the only
  // one sits in an unreachable block: after DCE erases it, BBREORDER must
  // see an opaque-free function and move the jumped-over block.
  const std::string Asm = wrapFunction("\tmovl $5, %ecx\n"
                                       "\tjmp .L0\n"
                                       "\tfrobnicate %eax\n"
                                       ".L0:\n"
                                       "\taddl $1, %eax\n"
                                       "\tcmpl $3, %eax\n"
                                       "\tje .LSKIP\n"
                                       "\taddl $10, %ebx\n"
                                       "\tjmp .LNEXT\n"
                                       ".LSKIP:\n"
                                       "\taddl $100, %ebx\n"
                                       ".LNEXT:\n"
                                       "\tsubl $1, %ecx\n"
                                       "\tjne .L0\n"
                                       "\tret\n");
  MaoUnit Alone = parseOk(Asm);
  ASSERT_TRUE(Alone.functions()[0].hasOpaqueInstructions());
  EXPECT_EQ(runPass(Alone, "BBREORDER"), 0u);

  MaoUnit Unit = parseOk(Asm);
  PassRequest Dce, Reorder;
  Dce.PassName = "DCE";
  Reorder.PassName = "BBREORDER";
  PipelineResult R = runPasses(Unit, {Dce, Reorder});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Counts[0].second, 1u);
  EXPECT_EQ(R.Counts[1].second, 1u);
  EXPECT_FALSE(Unit.functions()[0].hasOpaqueInstructions());
  EXPECT_EQ(emitAssembly(Unit), "\t.text\n"
                                "\t.type\tf, @function\n"
                                "f:\n"
                                "\tmovl\t$5, %ecx\n"
                                "\tjmp\t.L0\n"
                                ".L0:\n"
                                "\taddl\t$1, %eax\n"
                                "\tcmpl\t$3, %eax\n"
                                "\tjne\t.LMAO0\n"
                                ".LSKIP:\n"
                                "\taddl\t$100, %ebx\n"
                                ".LNEXT:\n"
                                "\tsubl\t$1, %ecx\n"
                                "\tjne\t.L0\n"
                                "\tret\n"
                                ".LMAO0:\n"
                                "\taddl\t$10, %ebx\n"
                                "\tjmp\t.LNEXT\n"
                                "\t.size\tf, .-f\n");
}

TEST(BBREORDER, LeavesPlainLoopsAlone) {
  // Nothing to move in a straight counted loop: the only candidate
  // blocks are the loop spine itself.
  MaoUnit Unit = parseOk(wrapFunction("\tmovl $10, %ecx\n"
                                      ".L0:\n"
                                      "\taddl $1, %eax\n"
                                      "\tsubl $1, %ecx\n"
                                      "\tjne .L0\n"
                                      "\tret\n"));
  EXPECT_EQ(runPass(Unit, "BBREORDER"), 0u);
}

TEST(HOTCOLD, MovesUnreachableFunctionsBehindLiveOnes) {
  // cold1/cold2 are neither exported nor called: both move behind the
  // live f/g pair, un-interleaving the layout.
  const std::string Asm = "\t.text\n"
                          "\t.globl f\n\t.type f, @function\nf:\n"
                          "\tcall g\n\taddl $1, %eax\n\tret\n"
                          "\t.size f, .-f\n"
                          "\t.type cold1, @function\ncold1:\n"
                          "\taddl $7, %ebx\n\tret\n"
                          "\t.size cold1, .-cold1\n"
                          "\t.type g, @function\ng:\n"
                          "\tmovl $5, %eax\n\tret\n"
                          "\t.size g, .-g\n"
                          "\t.type cold2, @function\ncold2:\n"
                          "\tret\n"
                          "\t.size cold2, .-cold2\n";
  MaoUnit Unit = parseOk(Asm);
  EXPECT_GE(runPass(Unit, "HOTCOLD"), 1u);
  std::string Text = emitAssembly(Unit);
  EXPECT_LT(Text.find("g:"), Text.find("cold1:")) << Text;
  EXPECT_LT(Text.find("g:"), Text.find("cold2:")) << Text;
  expectSemanticsPreserved(Asm, "HOTCOLD", {Reg::RAX});
}

TEST(HOTCOLD, KeepsAlreadyPackedLayout) {
  // Hot functions first, cold last: nothing is interleaved, so the pass
  // must not churn the layout (idempotence of the packed form).
  const std::string Asm = "\t.text\n"
                          "\t.globl f\n\t.type f, @function\nf:\n"
                          "\tcall g\n\tret\n"
                          "\t.size f, .-f\n"
                          "\t.type g, @function\ng:\n"
                          "\tmovl $5, %eax\n\tret\n"
                          "\t.size g, .-g\n"
                          "\t.type cold1, @function\ncold1:\n"
                          "\tret\n"
                          "\t.size cold1, .-cold1\n";
  MaoUnit Unit = parseOk(Asm);
  EXPECT_EQ(runPass(Unit, "HOTCOLD"), 0u);
}

TEST(Options, PaperCommandLineParses) {
  // "--mao=LFIND=trace[0]:ASM=o[/dev/null]" from paper Sec. III-A.
  std::vector<PassRequest> Requests;
  MaoStatus S = parseMaoOption("LFIND=trace[0]:ASM=o[/dev/null]", Requests);
  ASSERT_TRUE(S.ok()) << S.message();
  ASSERT_EQ(Requests.size(), 2u);
  EXPECT_EQ(Requests[0].PassName, "LFIND");
  EXPECT_EQ(Requests[0].Options.getInt("trace", -1), 0);
  EXPECT_EQ(Requests[1].PassName, "ASM");
  EXPECT_EQ(Requests[1].Options.getString("o"), "/dev/null");
}

} // namespace
