//===- tests/CFGTest.cpp - Control-flow graph tests --------------------------==//

#include "analysis/CFG.h"
#include "asm/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
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

TEST(CFG, StraightLineIsOneBlock) {
  MaoUnit Unit = parseOk(wrapFunction("\tmovl $1, %eax\n\taddl $2, %eax\n"
                                      "\tret\n"));
  CFG G = CFG::build(Unit.functions()[0]);
  ASSERT_EQ(G.blocks().size(), 1u);
  EXPECT_EQ(G.blocks()[0].Insns.size(), 3u);
  EXPECT_TRUE(G.blocks()[0].Succs.empty());
}

TEST(CFG, DiamondShape) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	cmpl $0, %edi
	je .LELSE
	movl $1, %eax
	jmp .LEND
.LELSE:
	movl $2, %eax
.LEND:
	ret
)"));
  CFG G = CFG::build(Unit.functions()[0]);
  ASSERT_EQ(G.blocks().size(), 4u);
  const BasicBlock &Entry = G.blocks()[0];
  ASSERT_EQ(Entry.Succs.size(), 2u);
  unsigned Else = G.blockOfLabel(".LELSE");
  unsigned End = G.blockOfLabel(".LEND");
  ASSERT_NE(Else, ~0u);
  ASSERT_NE(End, ~0u);
  EXPECT_EQ(G.blocks()[End].Preds.size(), 2u);
  EXPECT_TRUE(G.blocks()[Entry.Succs[0]].Index == Else ||
              G.blocks()[Entry.Succs[1]].Index == Else);
}

TEST(CFG, LoopBackEdge) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movl $0, %eax
.LLOOP:
	addl $1, %eax
	cmpl $10, %eax
	jne .LLOOP
	ret
)"));
  CFG G = CFG::build(Unit.functions()[0]);
  unsigned LoopBlock = G.blockOfLabel(".LLOOP");
  ASSERT_NE(LoopBlock, ~0u);
  const BasicBlock &BB = G.blocks()[LoopBlock];
  // The loop block branches back to itself and falls through to the exit.
  EXPECT_NE(std::find(BB.Succs.begin(), BB.Succs.end(), LoopBlock),
            BB.Succs.end());
  EXPECT_EQ(BB.Succs.size(), 2u);
}

TEST(CFG, CallDoesNotEndBlock) {
  MaoUnit Unit =
      parseOk(wrapFunction("\tcall g\n\tmovl $1, %eax\n\tret\n"));
  CFG G = CFG::build(Unit.functions()[0]);
  EXPECT_EQ(G.blocks().size(), 1u);
}

TEST(CFG, TailJumpOutOfFunctionHasNoEdge) {
  MaoUnit Unit = parseOk(wrapFunction("\tjmp other_function\n"));
  CFG G = CFG::build(Unit.functions()[0]);
  ASSERT_EQ(G.blocks().size(), 1u);
  EXPECT_TRUE(G.blocks()[0].Succs.empty());
  EXPECT_FALSE(Unit.functions()[0].HasUnresolvedIndirect);
}

const char *JumpTableFn = R"(	.text
	.type f, @function
f:
	cmpl $3, %edi
	ja .LDEF
	movl %edi, %eax
	movq .LTBL(,%rax,8), %rax
	jmp *%rax
.LC0:
	movl $10, %eax
	ret
.LC1:
	movl $11, %eax
	ret
.LC2:
	movl $12, %eax
	ret
.LC3:
	movl $13, %eax
	ret
.LDEF:
	movl $0, %eax
	ret
	.size f, .-f
	.section .rodata
	.p2align 3
.LTBL:
	.quad .LC0
	.quad .LC1
	.quad .LC2
	.quad .LC3
)";

TEST(CFG, JumpTableResolvedSameBlock) {
  MaoUnit Unit = parseOk(JumpTableFn);
  MaoFunction &Fn = Unit.functions()[0];
  CFG G = CFG::build(Fn);
  EXPECT_FALSE(Fn.HasUnresolvedIndirect);
  EXPECT_EQ(G.stats().IndirectJumps, 1u);
  EXPECT_EQ(G.stats().ResolvedSameBlock, 1u);
  // The dispatch block must have edges to all four cases.
  unsigned C0 = G.blockOfLabel(".LC0");
  unsigned C3 = G.blockOfLabel(".LC3");
  ASSERT_NE(C0, ~0u);
  bool FoundC0 = false, FoundC3 = false;
  for (const BasicBlock &BB : G.blocks())
    for (unsigned S : BB.Succs) {
      if (S == C0)
        FoundC0 = true;
      if (S == C3)
        FoundC3 = true;
    }
  EXPECT_TRUE(FoundC0);
  EXPECT_TRUE(FoundC3);
}

/// Which case labels the block ending in the function's indirect jump
/// has edges to, in label order.
std::vector<std::string> dispatchTargets(const CFG &G) {
  std::vector<std::string> Targets;
  for (const BasicBlock &BB : G.blocks()) {
    if (BB.empty() || !BB.lastInstruction().hasIndirectTarget())
      continue;
    for (const char *L : {".LC0", ".LC1", ".LC2", ".LC3", ".LDEF"}) {
      const unsigned To = G.blockOfLabel(L);
      if (std::find(BB.Succs.begin(), BB.Succs.end(), To) != BB.Succs.end())
        Targets.push_back(L);
    }
  }
  return Targets;
}

TEST(CFG, JumpTableAfterTextReentryResolvesSameEdges) {
  // The same function, split by a .rodata excursion and re-entered with
  // .text before its table is emitted: the table is read from its own
  // label's position, not found by scanning the unit.
  std::string Split = JumpTableFn;
  const std::string Cut = "\tja .LDEF\n";
  Split.replace(Split.find(Cut), Cut.size(),
                Cut + "\t.section .rodata\n.LSTR:\n\t.long 7\n\t.text\n");
  MaoUnit Plain = parseOk(JumpTableFn);
  MaoUnit Reentered = parseOk(Split);
  ASSERT_EQ(Reentered.functions()[0].ranges().size(), 2u);
  CFG PlainG = CFG::build(Plain.functions()[0]);
  CFG ReenteredG = CFG::build(Reentered.functions()[0]);
  EXPECT_FALSE(Reentered.functions()[0].HasUnresolvedIndirect);
  EXPECT_EQ(dispatchTargets(PlainG),
            (std::vector<std::string>{".LC0", ".LC1", ".LC2", ".LC3"}));
  EXPECT_EQ(dispatchTargets(ReenteredG), dispatchTargets(PlainG));
}

TEST(CFG, IndirectMemoryJumpTable) {
  // `jmp *TBL(,%rax,8)` — table read directly by the jump.
  std::string S = R"(	.text
	.type f, @function
f:
	movl %edi, %eax
	jmp *.LTBL(,%rax,8)
.LA:
	ret
.LB:
	ret
	.size f, .-f
	.section .rodata
.LTBL:
	.quad .LA
	.quad .LB
)";
  MaoUnit Unit = parseOk(S);
  MaoFunction &Fn = Unit.functions()[0];
  CFG G = CFG::build(Fn);
  EXPECT_FALSE(Fn.HasUnresolvedIndirect);
}

TEST(CFG, UnresolvableIndirectFlagsFunction) {
  MaoUnit Unit = parseOk(wrapFunction("\tjmp *%rax\n"));
  MaoFunction &Fn = Unit.functions()[0];
  CFG G = CFG::build(Fn);
  EXPECT_TRUE(Fn.HasUnresolvedIndirect);
  EXPECT_EQ(G.unresolvedJumps().size(), 1u);
}

TEST(CFG, ClobberedJumpRegisterNotResolved) {
  // The table load is overwritten before the jump: must NOT resolve.
  std::string Body = R"(	movq .LTBL(,%rax,8), %rax
	movq %rbx, %rax
	jmp *%rax
.LA:
	ret
)";
  MaoUnit Unit = parseOk(wrapFunction(Body) +
                         "\t.section .rodata\n.LTBL:\n\t.quad .LA\n");
  MaoFunction &Fn = Unit.functions()[0];
  CFG::build(Fn);
  EXPECT_TRUE(Fn.HasUnresolvedIndirect);
}

TEST(CFG, MultipleLabelsSameBlock) {
  MaoUnit Unit = parseOk(wrapFunction(".LA:\n.LB:\n\tret\n"));
  CFG G = CFG::build(Unit.functions()[0]);
  EXPECT_EQ(G.blockOfLabel(".LA"), G.blockOfLabel(".LB"));
}

} // namespace
