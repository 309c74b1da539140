//===- tests/ParserTest.cpp - AT&T parser and round-trip tests --------------==//

#include "ParserReference.h"
#include "TestCorpus.h"
#include "asm/AsmEmitter.h"
#include "asm/Parser.h"
#include "support/FaultInjection.h"
#include "x86/Registers.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

using namespace mao;

namespace {

Instruction parse(const std::string &Line) {
  return parseInstructionLine(Line);
}

TEST(Parser, SimpleMov) {
  Instruction I = parse("movq %rsp, %rbp");
  EXPECT_EQ(I.Mn, Mnemonic::MOV);
  EXPECT_EQ(I.W, Width::Q);
  ASSERT_EQ(I.Ops.size(), 2u);
  EXPECT_EQ(I.Ops[0].R, Reg::RSP);
  EXPECT_EQ(I.Ops[1].R, Reg::RBP);
}

TEST(Parser, WidthDeducedFromRegisters) {
  Instruction I = parse("mov %eax, %ebx");
  EXPECT_EQ(I.Mn, Mnemonic::MOV);
  EXPECT_EQ(I.W, Width::L);
}

TEST(Parser, ImmediateForms) {
  Instruction I = parse("addl $255, %eax");
  EXPECT_EQ(I.Mn, Mnemonic::ADD);
  EXPECT_TRUE(I.Ops[0].isConstImm());
  EXPECT_EQ(I.Ops[0].Imm, 255);

  Instruction Hex = parse("cmpl $0x12345678, %r10d");
  EXPECT_EQ(Hex.Ops[0].Imm, 0x12345678);

  Instruction Neg = parse("movl $-1, %ecx");
  EXPECT_EQ(Neg.Ops[0].Imm, -1);

  Instruction Sym = parse("movl $.LC0, %edi");
  EXPECT_TRUE(Sym.Ops[0].isSymbolicImm());
  EXPECT_EQ(Sym.Ops[0].Sym, ".LC0");
}

TEST(Parser, MemoryOperands) {
  Instruction I = parse("movsbl 1(%rdi,%r8,4), %edx");
  EXPECT_EQ(I.Mn, Mnemonic::MOVSX);
  EXPECT_EQ(I.SrcW, Width::B);
  EXPECT_EQ(I.W, Width::L);
  const MemRef &M = I.Ops[0].Mem;
  EXPECT_EQ(I.Ops[0].Imm, 1);
  EXPECT_EQ(M.Base, Reg::RDI);
  EXPECT_EQ(M.Index, Reg::R8);
  EXPECT_EQ(M.Scale, 4);

  Instruction NoBase = parse("movq .L4(,%rax,8), %rax");
  const MemRef &M2 = NoBase.Ops[0].Mem;
  EXPECT_EQ(NoBase.Ops[0].Sym, ".L4");
  EXPECT_TRUE(NoBase.Ops[0].hasSymDisp());
  EXPECT_EQ(M2.Base, Reg::None);
  EXPECT_EQ(M2.Index, Reg::RAX);
  EXPECT_EQ(M2.Scale, 8);

  Instruction Rip = parse("leaq .LC0(%rip), %rdi");
  EXPECT_TRUE(Rip.Ops[0].Mem.isRipRelative());
}

TEST(Parser, MemoryOperandsDifferingOnlyInDisplacementAreUnequal) {
  // The displacement lives in the operand (Imm and Sym), not in MemRef:
  // operand equality must still see both parts.
  const Operand Plain = parse("movq 8(%rsp), %rax").Ops[0];
  EXPECT_EQ(Plain, parse("movq 8(%rsp), %rcx").Ops[0]);
  EXPECT_NE(Plain, parse("movq 16(%rsp), %rax").Ops[0]);
  EXPECT_NE(Plain, parse("movq sym+8(%rsp), %rax").Ops[0]);
  EXPECT_NE(parse("movq a+8(%rsp), %rax").Ops[0],
            parse("movq b+8(%rsp), %rax").Ops[0]);
  EXPECT_EQ(Plain.Mem, parse("movq sym+16(%rsp), %rax").Ops[0].Mem);
}

TEST(Parser, BuiltOperandsEqualParsedOnes) {
  // Members an operand kind does not use keep their defaults, so a builder
  // and the parser agree on every field.
  MemRef Stack;
  Stack.Base = Reg::RSP;
  MemRef Table;
  Table.Index = Reg::RAX;
  Table.Scale = 8;
  MemRef Rip;
  Rip.Base = Reg::RIP;
  EXPECT_EQ(parse("addq $5, %rax"),
            makeInstr(Mnemonic::ADD, Width::Q, Operand::makeImm(5),
                      Operand::makeReg(Reg::RAX)));
  EXPECT_EQ(parse("movl $.LC0+4, %edi").Ops[0],
            Operand::makeImmSym(".LC0", 4));
  EXPECT_EQ(parse("movq -8(%rsp), %rax").Ops[0],
            Operand::makeMem(Stack, -8));
  EXPECT_EQ(parse("movq .L4(,%rax,8), %rax").Ops[0],
            Operand::makeMem(Table, 0, ".L4"));
  EXPECT_EQ(parse("leaq .LC0+8(%rip), %rdi").Ops[0],
            Operand::makeMem(Rip, 8, ".LC0"));
  EXPECT_EQ(parse("call g").Ops[0], Operand::makeSymbol("g"));
}

TEST(Parser, CondJumpsAndAliases) {
  EXPECT_EQ(parse("jne .L1").CC, CondCode::NE);
  EXPECT_EQ(parse("jnz .L1").CC, CondCode::NE);
  EXPECT_EQ(parse("jg .L3").CC, CondCode::G);
  EXPECT_EQ(parse("jmp .L5").Mn, Mnemonic::JMP);
}

TEST(Parser, CmovAmbiguity) {
  // "cmovl" is cmov-on-less, not a width-suffixed cmov.
  Instruction I = parse("cmovl %edi, %esi");
  EXPECT_EQ(I.Mn, Mnemonic::CMOVCC);
  EXPECT_EQ(I.CC, CondCode::L);
  EXPECT_EQ(I.W, Width::L);
  // "cmovlq" is cmov-on-less with a 64-bit suffix.
  Instruction Q = parse("cmovlq %rdi, %rsi");
  EXPECT_EQ(Q.CC, CondCode::L);
  EXPECT_EQ(Q.W, Width::Q);
}

TEST(Parser, SetccIsByte) {
  Instruction I = parse("setg %al");
  EXPECT_EQ(I.Mn, Mnemonic::SETCC);
  EXPECT_EQ(I.CC, CondCode::G);
  EXPECT_EQ(I.W, Width::B);
}

TEST(Parser, IndirectTargets) {
  Instruction I = parse("jmp *%rax");
  EXPECT_TRUE(I.hasIndirectTarget());
  Instruction M = parse("call *8(%rbx)");
  EXPECT_TRUE(M.hasIndirectTarget());
  // Direct memory operand without '*' is not a valid branch target.
  EXPECT_TRUE(parse("jmp 8(%rbx)").isOpaque());
}

TEST(Parser, MovqSseSelection) {
  Instruction G = parse("movq %rax, %rbx");
  EXPECT_EQ(G.Mn, Mnemonic::MOV);
  Instruction X = parse("movq %rax, %xmm0");
  EXPECT_EQ(X.Mn, Mnemonic::MOVQX);
}

TEST(Parser, MovabsModelledOnlyAsMovq) {
  // A constant outside imm32 into a 64-bit register: movq's bytes too.
  Instruction Imm64 = parse("movabs $81985529216486895, %r12");
  ASSERT_FALSE(Imm64.isOpaque());
  EXPECT_EQ(Imm64.toString(), "movq\t$81985529216486895, %r12");
  // moffs64 forms and imm64 loads of a symbol or a small constant encode
  // differently from movq, so they stay opaque and print verbatim.
  for (const char *Line :
       {"movabsq %rax, counter", "movabsq counter, %rax", "movabs 8, %eax",
        "movabsq $1, %rax", "movabs $counter, %rax",
        "movabsq $81985529216486895, %eax", "movabsq $1, 8(%rax)"}) {
    Instruction I = parse(Line);
    EXPECT_TRUE(I.isOpaque()) << Line;
    EXPECT_EQ(I.toString(), Line);
  }
}

TEST(Parser, ZeroAbsoluteAddressPrints) {
  // With no symbol, base or index the displacement is the whole address,
  // so a zero one still prints.
  EXPECT_EQ(parse("movq %rax, 0").toString(), "movq\t%rax, 0");
  EXPECT_EQ(parse("movl 0, %eax").toString(), "movl\t0, %eax");
  EXPECT_EQ(parse("movl 0(%rax), %eax").toString(), "movl\t(%rax), %eax");
  for (const char *Line : {"movq %rax, 0", "movl 0, %eax"}) {
    Instruction First = parse(Line);
    ASSERT_FALSE(First.isOpaque()) << Line;
    EXPECT_EQ(parse(First.toString()), First) << Line;
  }
}

TEST(Parser, ExplicitLengthNops) {
  EXPECT_EQ(parse("nop").NopLength, 1);
  Instruction N5 = parse("nop5");
  EXPECT_EQ(N5.Mn, Mnemonic::NOP);
  EXPECT_EQ(N5.NopLength, 5);
  EXPECT_TRUE(parse("nop16").isOpaque());
}

TEST(Parser, UnknownBecomesOpaque) {
  Instruction I = parse("lock cmpxchgq %rcx, (%rdx)");
  EXPECT_TRUE(I.isOpaque());
  EXPECT_EQ(I.rawText(), "lock cmpxchgq %rcx, (%rdx)");
  EXPECT_EQ(I, makeOpaque("lock cmpxchgq %rcx, (%rdx)"));
  EXPECT_NE(I, makeOpaque("lock cmpxchgq %rcx, (%rdi)"));
  EXPECT_EQ(parse("movq %rax, %rbx").rawText(), "");
  EXPECT_TRUE(parse("vfmadd231pd %ymm0, %ymm1, %ymm2").isOpaque());
  EXPECT_TRUE(parse("rep movsb").isOpaque());
}

TEST(Parser, InstructionToStringRoundTrip) {
  // parse -> print -> parse must be a fixpoint for modelled instructions.
  const char *Lines[] = {
      "movq %rsp, %rbp",
      "movl $5, -4(%rbp)",
      "movsbl 1(%rdi,%r8,4), %edx",
      "movslq %edi, %rax",
      "leaq 8(%rsp), %rsi",
      "addq $1, %r8",
      "subl $16, %r15d",
      "testl %r15d, %r15d",
      "cmpl %r8d, %r9d",
      "jg .L3",
      "jmp *%rax",
      "call printf",
      "shrl $12, %edi",
      "sarl %cl, %ebx",
      "imull $100, %ecx, %edx",
      "pushq %rbp",
      "popq %r12",
      "setne %dl",
      "cmovge %eax, %ebx",
      "movss %xmm0, (%rdi,%rax,4)",
      "prefetchnta (%rdi)",
      "cltq",
      "leave",
      "ret",
      "nop5",
  };
  for (const char *Line : Lines) {
    Instruction First = parse(Line);
    ASSERT_FALSE(First.isOpaque()) << Line;
    Instruction Second = parse(First.toString());
    ASSERT_FALSE(Second.isOpaque()) << First.toString();
    EXPECT_EQ(First, Second) << Line << " vs " << First.toString();
  }
}

// --- File-level parsing -----------------------------------------------------

const char *SampleFile = R"(	.file	"test.c"
	.text
	.globl	f
	.type	f, @function
f:
.LFB0:
	pushq	%rbp	# prologue
	movq	%rsp, %rbp
	movl	$5, -4(%rbp)
	jmp	.L2
.L1:
	addl	$1, -4(%rbp)
.L2:
	cmpl	$0, -4(%rbp)
	jne	.L1
	leave
	ret
	.size	f, .-f
	.section	.rodata
.LC0:
	.string	"hello"
	.text
	.globl	g
	.type	g, @function
g:
	ret
	.size	g, .-g
	.ident	"GCC: 4.4.3"
)";

TEST(Parser, FileStructure) {
  ParseStats Stats;
  auto UnitOr = parseAssembly(SampleFile, &Stats);
  ASSERT_TRUE(UnitOr.ok());
  MaoUnit &Unit = *UnitOr;
  ASSERT_EQ(Unit.functions().size(), 2u);
  EXPECT_EQ(Unit.functions()[0].name(), "f");
  EXPECT_EQ(Unit.functions()[1].name(), "g");
  EXPECT_EQ(Unit.functions()[0].countInstructions(), 9u);
  EXPECT_EQ(Unit.functions()[1].countInstructions(), 1u);
  EXPECT_EQ(Stats.OpaqueInstructions, 0u);
  EXPECT_TRUE(Unit.labelMap().count(".L1"));
  EXPECT_TRUE(Unit.labelMap().count(".LC0"));
}

TEST(Parser, CommentsStripped) {
  auto UnitOr = parseAssembly("\tmovl $1, %eax # set return\n");
  ASSERT_TRUE(UnitOr.ok());
  const MaoEntry &E = UnitOr->entries().front();
  ASSERT_TRUE(E.isInstruction());
  EXPECT_FALSE(E.instruction().isOpaque());
}

TEST(Parser, HashInsideStringPreserved) {
  auto UnitOr = parseAssembly("\t.string \"a#b\"\n");
  ASSERT_TRUE(UnitOr.ok());
  const MaoEntry &E = UnitOr->entries().front();
  ASSERT_TRUE(E.isDirective(DirKind::String));
  EXPECT_EQ(E.directive().arg(0), "\"a#b\"");
}

TEST(Parser, SplitFunctionAcrossSections) {
  const char *Split = R"(	.text
	.type	f, @function
f:
	movl	$1, %eax
	.section	.rodata
.LTBL:
	.quad	.L1
	.text
.L1:
	ret
	.size	f, .-f
)";
  auto UnitOr = parseAssembly(Split);
  ASSERT_TRUE(UnitOr.ok());
  ASSERT_EQ(UnitOr->functions().size(), 1u);
  MaoFunction &Fn = UnitOr->functions()[0];
  // Two code ranges: the iterator must walk both transparently and not see
  // the .rodata data in between.
  EXPECT_EQ(Fn.ranges().size(), 2u);
  EXPECT_EQ(Fn.countInstructions(), 2u);
  bool SawTable = false;
  for (auto It = Fn.begin(), E = Fn.end(); It != E; ++It)
    if (It->isDirective(DirKind::Quad))
      SawTable = true;
  EXPECT_FALSE(SawTable) << "data section leaked into the function view";
}

TEST(Parser, EmitParseFixpoint) {
  auto UnitOr = parseAssembly(SampleFile);
  ASSERT_TRUE(UnitOr.ok());
  std::string Once = emitAssembly(*UnitOr);
  auto Again = parseAssembly(Once);
  ASSERT_TRUE(Again.ok());
  EXPECT_EQ(emitAssembly(*Again), Once);
}

TEST(Parser, ErrorsCarryFileAndLine) {
  // Line 3 ends inside a string literal; the error must say where.
  const std::string Bad = "\t.text\nf:\n\t.ascii \"unterminated\n\tret\n";
  CollectingDiagSink Collected;
  DiagEngine Diags;
  Diags.addSink(&Collected);
  auto UnitOr = parseAssembly(Bad, nullptr, "broken.s", &Diags);
  ASSERT_FALSE(UnitOr.ok());
  EXPECT_NE(UnitOr.message().find("broken.s:3:"), std::string::npos)
      << UnitOr.message();
  ASSERT_EQ(Collected.diagnostics().size(), 1u);
  const Diagnostic &D = Collected.diagnostics()[0];
  EXPECT_EQ(D.Code, DiagCode::ParseUnterminatedString);
  EXPECT_EQ(D.Loc.File, "broken.s");
  EXPECT_EQ(D.Loc.Line, 3u);
  EXPECT_EQ(Diags.errorCount(), 1u);
}

//===----------------------------------------------------------------------===//
// Line accounting, duplicate labels, and GAS numeric local labels.
//===----------------------------------------------------------------------===//

TEST(Parser, NoPhantomEmptyFinalLine) {
  // A trailing '\n' terminates the last line; it does not start an empty
  // extra one (the old substr lexer counted one, skewing ParseStats.Lines
  // and the line numbers of EOF diagnostics).
  ParseStats WithNewline;
  ASSERT_TRUE(parseAssembly("\tret\n", &WithNewline).ok());
  EXPECT_EQ(WithNewline.Lines, 1u);

  ParseStats WithoutNewline;
  ASSERT_TRUE(parseAssembly("\tret", &WithoutNewline).ok());
  EXPECT_EQ(WithoutNewline.Lines, 1u);

  ParseStats Empty;
  ASSERT_TRUE(parseAssembly("", &Empty).ok());
  EXPECT_EQ(Empty.Lines, 0u);

  ParseStats Two;
  ASSERT_TRUE(parseAssembly("\tnop\n\tret\n", &Two).ok());
  EXPECT_EQ(Two.Lines, 2u);
}

TEST(Parser, DuplicateLabelFirstDefinitionWins) {
  const std::string Text = "dup:\n\tnop\ndup:\n\tret\n";
  CollectingDiagSink Collected;
  DiagEngine Diags;
  Diags.addSink(&Collected);
  auto UnitOr = parseAssembly(Text, nullptr, "dup.s", &Diags);
  ASSERT_TRUE(UnitOr.ok());
  ASSERT_EQ(Collected.diagnostics().size(), 1u);
  const Diagnostic &D = Collected.diagnostics()[0];
  EXPECT_EQ(D.Code, DiagCode::ParseDuplicateLabel);
  EXPECT_EQ(D.Severity, DiagSeverity::Warning);
  EXPECT_EQ(D.Loc.Line, 3u);
  EXPECT_EQ(Diags.errorCount(), 0u);

  // The label map binds the first definition: fall-through execution
  // reaches it first, and the emulator binds the same way.
  auto It = UnitOr->labelMap().find("dup");
  ASSERT_NE(It, UnitOr->labelMap().end());
  EXPECT_EQ(&*It->second, &UnitOr->entries().front());
}

TEST(Parser, LocalLabelsResolveBackwardAndForward) {
  const std::string Text = "1:\n\tnop\n\tjmp 1b\n\tjmp 1f\n1:\n\tret\n";
  auto UnitOr = parseAssembly(Text);
  ASSERT_TRUE(UnitOr.ok()) << UnitOr.message();
  std::vector<std::string> Targets;
  for (const MaoEntry &E : UnitOr->entries())
    if (E.isInstruction() && E.instruction().Mn == Mnemonic::JMP)
      Targets.push_back(E.instruction().Ops[0].Sym);
  ASSERT_EQ(Targets.size(), 2u);
  // "1b" binds the most recent definition, "1f" the next one: two distinct
  // internal names, both defined, in program order.
  EXPECT_NE(Targets[0], Targets[1]);
  const auto &Labels = UnitOr->labelMap();
  ASSERT_EQ(Labels.count(Targets[0]), 1u);
  ASSERT_EQ(Labels.count(Targets[1]), 1u);
  EXPECT_LT(Labels.find(Targets[0])->second->Id,
            Labels.find(Targets[1])->second->Id);
}

TEST(Parser, LocalLabelBackwardWithoutDefinitionIsRejected) {
  CollectingDiagSink Collected;
  DiagEngine Diags;
  Diags.addSink(&Collected);
  auto UnitOr = parseAssembly("1:\n\tret\n\tjmp 2b\n", nullptr, "loc.s",
                              &Diags);
  ASSERT_FALSE(UnitOr.ok());
  ASSERT_EQ(Collected.diagnostics().size(), 1u);
  EXPECT_EQ(Collected.diagnostics()[0].Code,
            DiagCode::ParseLocalLabelUndefined);
  EXPECT_EQ(Collected.diagnostics()[0].Loc.Line, 3u);
}

TEST(Parser, LocalLabelDanglingForwardIsRejected) {
  CollectingDiagSink Collected;
  DiagEngine Diags;
  Diags.addSink(&Collected);
  auto UnitOr = parseAssembly("1:\n\tjmp 1f\n\tret\n", nullptr, "loc.s",
                              &Diags);
  ASSERT_FALSE(UnitOr.ok());
  ASSERT_EQ(Collected.diagnostics().size(), 1u);
  EXPECT_EQ(Collected.diagnostics()[0].Code,
            DiagCode::ParseLocalLabelDangling);
  EXPECT_EQ(Collected.diagnostics()[0].Loc.Line, 2u);
}

//===----------------------------------------------------------------------===//
// Operand edge cases and the small-vector operand list.
//===----------------------------------------------------------------------===//

TEST(Parser, MalformedOperandsDegradeToOpaque) {
  EXPECT_TRUE(parse("movq (%rax, %rbx").isOpaque());         // unbalanced '('
  EXPECT_TRUE(parse("movq (%rax)junk, %rbx").isOpaque());    // trailing text
  EXPECT_TRUE(parse("movq (%rax,%rbx,3), %rcx").isOpaque()); // scale not 1/2/4/8
  EXPECT_FALSE(parse("movq (%rax,%rbx,8), %rcx").isOpaque());
}

TEST(Parser, MnemonicSpellingsPinned) {
  // Pins the precomputed spelling table to the cascade it replaced.
  EXPECT_EQ(parse("nop0x5").NopLength, 5); // non-canonical length spelling
  EXPECT_TRUE(parse("nopl 4(%rax)").isOpaque()); // gas's nopl stays opaque
  EXPECT_EQ(parse("salq $2, %rax").Mn, Mnemonic::SHL);
  Instruction Movslq = parse("movslq %eax, %rbx");
  EXPECT_EQ(Movslq.Mn, Mnemonic::MOVSX);
  EXPECT_EQ(Movslq.SrcW, Width::L);
  EXPECT_EQ(Movslq.W, Width::Q);
  // Longer-than-8-byte spellings take the fallback map.
  EXPECT_EQ(parse("prefetchnta (%rdi)").Mn, Mnemonic::PREFETCHNTA);
}

TEST(Parser, ThreeOperandImulSpillsOperandList) {
  // Three operands exceed the inline capacity of two; the list must spill
  // to the heap and keep value semantics across copy and move.
  Instruction I = parse("imulq $100, %rbx, %rax");
  ASSERT_FALSE(I.isOpaque());
  ASSERT_EQ(I.Ops.size(), 3u);
  EXPECT_EQ(I.Ops[0].Imm, 100);
  EXPECT_EQ(I.Ops[1].R, Reg::RBX);
  EXPECT_EQ(I.Ops[2].R, Reg::RAX);

  Instruction Copy = I;
  EXPECT_TRUE(Copy.Ops == I.Ops);
  Instruction Moved = std::move(I);
  EXPECT_TRUE(Moved.Ops == Copy.Ops);
  ASSERT_EQ(Moved.Ops.size(), 3u);
  EXPECT_EQ(Moved.Ops[2].R, Reg::RAX);
}

TEST(Parser, StructureViewsSurviveMoveAndClone) {
  // Moves carry the views (functions, sections, labels) and clone()
  // derives them on the copy; accessors must never see stale iterators
  // into the moved-from unit.
  auto UnitOr = parseAssembly(SampleFile);
  ASSERT_TRUE(UnitOr.ok());
  MaoUnit Moved = std::move(*UnitOr);
  ASSERT_EQ(Moved.functions().size(), 2u);
  EXPECT_EQ(Moved.functions()[0].name(), "f");
  EXPECT_TRUE(Moved.labelMap().count(".L1"));

  MaoUnit Clone = Moved.clone();
  ASSERT_EQ(Clone.functions().size(), 2u);
  EXPECT_EQ(Clone.functions()[1].name(), "g");
  // The clone's views point into the clone's own entry list.
  const MaoEntry *CloneLabel = &*Clone.labelMap().find(".L1")->second;
  bool InClone = false;
  for (const MaoEntry &E : Clone.entries())
    InClone |= (&E == CloneLabel);
  EXPECT_TRUE(InClone);
}

TEST(ParserTables, EveryRegisterNameResolves) {
  for (unsigned I = 1; I < static_cast<unsigned>(Reg::NumRegs); ++I)
    EXPECT_EQ(parseRegName(RegTable[I].Name), static_cast<Reg>(I))
        << RegTable[I].Name;
}

TEST(ParserTables, EverySpellingResolvesToItsFirstBinding) {
  // The reference is a map that keeps each spelling's first binding: what
  // the parser's spelling table held before it was a packed-key table.
  std::unordered_map<std::string, MnemonicSpelling> Reference;
  for (const auto &[Spelling, P] : mnemonicSpellings())
    Reference.emplace(Spelling, P);
  ASSERT_GT(Reference.size(), 400u);
  for (const auto &[Spelling, P] : Reference) {
    const std::optional<MnemonicSpelling> Got = parseMnemonic(Spelling);
    ASSERT_TRUE(Got.has_value()) << Spelling;
    EXPECT_TRUE(*Got == P) << Spelling;
  }
}

TEST(ParserTables, NearMissesResolveToNothing) {
  using namespace std::string_view_literals;
  for (std::string_view Name :
       {""sv, "r"sv, "ra"sv, "raxx"sv, "xmm16"sv, "eaxeaxeax"sv,
        "xmm15xmm15"sv, "rax\0"sv, "ra\0x"sv, "\0rax"sv, "xmm1\0\0\0\0"sv})
    EXPECT_EQ(parseRegName(Name), Reg::None) << '"' << Name << '"';
  for (std::string_view Name :
       {""sv, "a"sv, "ad"sv, "addll"sv, "movzbll"sv, "nop16"sv, "addl\0"sv,
        "ad\0dl"sv, "prefetchn"sv, "prefetchntaa"sv, "cmovnzlq"sv})
    EXPECT_FALSE(parseMnemonic(Name).has_value()) << '"' << Name << '"';
}

TEST(Emit, IntegersRenderLikePrintf) {
  EXPECT_EQ(Operand::makeImm(INT64_MIN).toString(), "$-9223372036854775808");
  EXPECT_EQ(Operand::makeImm(INT64_MAX).toString(), "$9223372036854775807");
  EXPECT_EQ(Operand::makeSymbol("x", -7).toString(), "x-7");
  EXPECT_EQ(Operand::makeImmSym("x", 12).toString(), "$x+12");
  MemRef M;
  M.Base = Reg::RSP;
  EXPECT_EQ(Operand::makeMem(M, -129).toString(), "-129(%rsp)");
  EXPECT_EQ(makeNop(11).toString(), "nop11");
}

TEST(Emit, AppendToMatchesToStringAndEmitIsAFixedPoint) {
  for (const auto &[Name, Text] : exampleAndSpecCorpus()) {
    auto UnitOr = parseAssembly(Text, nullptr, Name);
    ASSERT_TRUE(UnitOr.ok()) << Name;
    std::string Lines;
    for (const MaoEntry &E : UnitOr->entries()) {
      std::string Appended = "prefix";
      E.appendTo(Appended);
      ASSERT_EQ(Appended, "prefix" + E.toString()) << Name;
      if (E.isInstruction()) {
        const Instruction &Insn = E.instruction();
        std::string Mnemonic = "m";
        Insn.appendMnemonicTo(Mnemonic);
        ASSERT_EQ(Mnemonic, "m" + Insn.mnemonicText()) << Name;
        for (const Operand &Op : Insn.Ops) {
          std::string Rendered = "o";
          Op.appendTo(Rendered);
          ASSERT_EQ(Rendered, "o" + Op.toString()) << Name;
        }
      }
      Lines += E.toString();
      Lines += '\n';
    }
    const std::string Emitted = emitAssembly(*UnitOr);
    EXPECT_EQ(Emitted, Lines) << Name;
    auto Again = parseAssembly(Emitted, nullptr, Name);
    ASSERT_TRUE(Again.ok()) << Name;
    EXPECT_EQ(emitAssembly(*Again), Emitted) << Name;
  }
}

TEST(Parser, EncoderFaultMakesEveryInstructionOpaque) {
  // Validation measures each modelled instruction through the encoder's
  // fallible entry, which draws the encoder fault once: at rate 1000 every
  // instruction degrades to opaque, one draw apiece.
  struct Reset {
    ~Reset() { FaultInjector::instance().reset(); }
  } ResetAtExit;
  for (const auto &[Name, Text] : exampleAndSpecCorpus()) {
    FaultInjector::instance().reset();
    auto Clean = parseAssembly(Text, nullptr, Name);
    ASSERT_TRUE(Clean.ok()) << Name;
    unsigned Modelled = 0;
    for (const MaoEntry &E : Clean->entries())
      Modelled += E.isInstruction() && !E.instruction().isOpaque();

    ASSERT_TRUE(FaultInjector::instance().configure("encoder:1000", 1).ok());
    auto Faulty = parseAssembly(Text, nullptr, Name);
    ASSERT_TRUE(Faulty.ok()) << Name;
    unsigned ModelledLeft = 0;
    for (const MaoEntry &E : Faulty->entries())
      ModelledLeft += E.isInstruction() && !E.instruction().isOpaque();
    EXPECT_EQ(ModelledLeft, 0u) << Name;
    EXPECT_EQ(FaultInjector::instance().drawCount(FaultSite::Encoder),
              Modelled)
        << Name;
  }
}

//===----------------------------------------------------------------------===//
// The differential oracle: the one-scan parser against the split-and-trim
// reference (ParserReference.h) on the example and SPEC corpus, the Google
// corpus stand-in and a seeded mutation corpus. The two must agree on every
// entry (instruction under ==, opaque or not, length memo, label, directive),
// on ParseStats, on the diagnostics and on the fault draws they make.
//===----------------------------------------------------------------------===//

using ParseFn = ErrorOr<MaoUnit> (*)(const std::string &, ParseStats *,
                                     const std::string &, DiagEngine *);

/// What one parse shows from outside.
struct Observed {
  std::optional<MaoUnit> Unit;
  std::string Error;
  ParseStats Stats;
  std::vector<Diagnostic> Diags;
  unsigned ParserDraws = 0;
  unsigned EncoderDraws = 0;
};

/// Parses \p Text with \p Parse under the fault spec \p Faults ("" for
/// none), seeded alike for every parser.
Observed observe(ParseFn Parse, const std::string &Text,
                 const std::string &Name, const std::string &Faults) {
  Observed O;
  EXPECT_TRUE(FaultInjector::instance().configure(Faults, 7).ok());
  CollectingDiagSink Sink;
  DiagEngine Diags;
  Diags.addSink(&Sink);
  ErrorOr<MaoUnit> UnitOr = Parse(Text, &O.Stats, Name, &Diags);
  if (UnitOr.ok())
    O.Unit.emplace(UnitOr.take());
  else
    O.Error = UnitOr.message();
  O.Diags = Sink.diagnostics();
  O.ParserDraws = FaultInjector::instance().drawCount(FaultSite::Parser);
  O.EncoderDraws = FaultInjector::instance().drawCount(FaultSite::Encoder);
  FaultInjector::instance().reset();
  return O;
}

/// Asserts that \p Got and \p Want hold the same entries in the same order.
void expectSameEntries(const MaoUnit &Got, const MaoUnit &Want,
                       const std::string &Name) {
  ASSERT_EQ(Got.entries().size(), Want.entries().size()) << Name;
  auto W = Want.entries().begin();
  size_t Index = 0;
  for (const MaoEntry &G : Got.entries()) {
    const std::string Where = Name + ": entry " + std::to_string(Index++) +
                              " '" + W->toString() + "'";
    ASSERT_EQ(G.kind(), W->kind()) << Where;
    ASSERT_EQ(G.Id, W->Id) << Where;
    switch (G.kind()) {
    case MaoEntry::Kind::Instruction:
      ASSERT_EQ(G.instruction(), W->instruction())
          << Where << " parsed as '" << G.toString() << "'";
      ASSERT_EQ(G.lengthMemo(), W->lengthMemo()) << Where;
      break;
    case MaoEntry::Kind::Label:
      ASSERT_EQ(G.labelName(), W->labelName()) << Where;
      break;
    case MaoEntry::Kind::Directive:
      ASSERT_EQ(G.directive().Kind, W->directive().Kind) << Where;
      ASSERT_EQ(G.directive().Name, W->directive().Name) << Where;
      ASSERT_EQ(G.directive().Args, W->directive().Args) << Where;
      break;
    }
    ++W;
  }
}

/// Parses \p Text with both parsers under \p Faults and asserts they agree.
void expectMatchesReference(const std::string &Text, const std::string &Name,
                            const std::string &Faults = "") {
  const Observed Got = observe(&mao::parseAssembly, Text, Name, Faults);
  const Observed Want = observe(&reference::parseAssembly, Text, Name, Faults);
  const std::string Where = Name + (Faults.empty() ? "" : " under " + Faults);
  ASSERT_EQ(Got.Unit.has_value(), Want.Unit.has_value())
      << Where << ": '" << Got.Error << "' vs '" << Want.Error << "'";
  EXPECT_EQ(Got.Error, Want.Error) << Where;
  EXPECT_EQ(Got.ParserDraws, Want.ParserDraws) << Where;
  EXPECT_EQ(Got.EncoderDraws, Want.EncoderDraws) << Where;
  EXPECT_EQ(Got.Stats.Lines, Want.Stats.Lines) << Where;
  EXPECT_EQ(Got.Stats.Instructions, Want.Stats.Instructions) << Where;
  EXPECT_EQ(Got.Stats.OpaqueInstructions, Want.Stats.OpaqueInstructions)
      << Where;
  EXPECT_EQ(Got.Stats.Labels, Want.Stats.Labels) << Where;
  EXPECT_EQ(Got.Stats.Directives, Want.Stats.Directives) << Where;
  ASSERT_EQ(Got.Diags.size(), Want.Diags.size()) << Where;
  for (size_t I = 0; I < Got.Diags.size(); ++I) {
    EXPECT_EQ(Got.Diags[I].toString(), Want.Diags[I].toString()) << Where;
    EXPECT_EQ(Got.Diags[I].Code, Want.Diags[I].Code) << Where;
  }
  if (Want.Unit)
    expectSameEntries(*Got.Unit, *Want.Unit, Where);
}

/// The example and SPEC corpus plus the Google corpus stand-in at 5%.
std::vector<std::pair<std::string, std::string>> oracleCorpus() {
  auto Corpus = exampleAndSpecCorpus();
  Corpus.emplace_back("google-0.05",
                      generateWorkloadAssembly(googleCorpusProfile(0.05)));
  return Corpus;
}

TEST(ParserOracle, MatchesReferenceOnCorpus) {
  for (const auto &[Name, Text] : oracleCorpus())
    expectMatchesReference(Text, Name);
}

TEST(ParserOracle, FaultDrawsMatchReference) {
  // Encoder faults at 5 per mille leave some instructions opaque and draw
  // once per modelled candidate through the whole file; a parser fault at
  // 1 per mille also stops the parse at the same line in both.
  for (const auto &[Name, Text] : oracleCorpus()) {
    expectMatchesReference(Text, Name, "encoder:5");
    expectMatchesReference(Text, Name, "parser:1,encoder:5");
  }
}

/// A seeded corpus of statements that stress the lexer: corpus lines, each
/// reworked by one to three mutations (blanks around tokens, comments,
/// '#' inside strings, '\r', broken or empty parentheses, trailing commas,
/// unknown mnemonics, '*' and '$' forms, integer spellings, numeric local
/// labels and their references).
std::vector<std::string> mutatedLines(uint64_t Seed, size_t Count) {
  std::vector<std::string> Source;
  for (const auto &[Name, Text] : exampleAndSpecCorpus()) {
    size_t Begin = 0;
    while (Begin < Text.size() && Source.size() < 20000) {
      size_t End = Text.find('\n', Begin);
      if (End == std::string::npos)
        End = Text.size();
      if (End > Begin)
        Source.push_back(Text.substr(Begin, End - Begin));
      Begin = End + 1;
    }
  }
  std::mt19937_64 Rng(Seed);
  auto Pick = [&Rng](size_t N) { return static_cast<size_t>(Rng() % N); };
  auto OneOf = [&Pick](std::initializer_list<const char *> Options) {
    return std::string(Options.begin()[Pick(Options.size())]);
  };
  // Start offsets of the operands: after the blank that ends the mnemonic,
  // and after every comma.
  auto OperandStarts = [](const std::string &L) {
    std::vector<size_t> Starts;
    const size_t Blank = L.find_first_of(" \t", L.find_first_not_of(" \t"));
    if (Blank != std::string::npos)
      Starts.push_back(Blank + 1);
    for (size_t C = L.find(','); C != std::string::npos; C = L.find(',', C + 1))
      Starts.push_back(C + 1);
    return Starts;
  };
  auto ReplaceOperand = [&](std::string &L, const std::string &With) {
    std::vector<size_t> Starts = OperandStarts(L);
    if (Starts.empty()) {
      L += " " + With;
      return;
    }
    size_t B = Starts[Pick(Starts.size())];
    size_t E = L.find(',', B);
    L.replace(B, (E == std::string::npos ? L.size() : E) - B, With);
  };

  std::vector<std::string> Lines;
  while (Lines.size() < Count) {
    std::string L = Source[Pick(Source.size())];
    for (size_t M = 0, N = 1 + Pick(3); M < N; ++M) {
      switch (Pick(13)) {
      case 0: { // a blank next to a token boundary, or anywhere
        size_t At = Pick(L.size() + 1);
        size_t Boundary = L.find_first_of(",()$%*:", At);
        if (Boundary != std::string::npos && Pick(2))
          At = Boundary + Pick(2);
        L.insert(std::min(At, L.size()), Pick(2) ? " " : "\t");
        break;
      }
      case 1:
        L += OneOf({" # note", "#x", "\t# a, (b", " #\"open"});
        break;
      case 2:
        L = OneOf({"\t.ascii \"a#b\"", "\t.string \"x#y\" # tail",
                   "\tmovl \"#\", %eax", "\t.ascii \"a\\\"#b\", \"c\"",
                   "\t.ascii \"a\\\\\"#c", "l: .byte 1, \"#,\" # z"});
        break;
      case 3:
        if (Pick(3))
          L += '\r';
        else
          L.insert(Pick(L.size() + 1), "\r");
        break;
      case 4:
        if (Pick(2)) {
          L.insert(Pick(L.size() + 1), Pick(2) ? "(" : ")");
        } else if (size_t Open = L.find('('); Open != std::string::npos) {
          size_t Close = L.find(')', Open);
          L.replace(Open,
                    (Close == std::string::npos ? L.size() : Close + 1) - Open,
                    OneOf({"()", "( )", "(,)", "(,,)", "(%rax,,)",
                           "(,%rax,8)", "(%rax,%rbx,3)", "(%rax,%rbx,)",
                           "( %rsp , %rax , 4 )", "(%rax,%rbx,4,)",
                           "((%rax))", "(%rax", "(%rip)", "(%rax,%rbx,0x4)",
                           "(%rax,%rbx,04)", "(%rax %rbx)"}));
        }
        break;
      case 5:
        L += OneOf({",", ", ", " ,"});
        break;
      case 6: { // another mnemonic, known or not
        const size_t B = std::min(L.find_first_not_of(" \t"), L.size());
        const size_t E = std::min(L.find_first_of(" \t", B), L.size());
        L.replace(B, E - B,
                  OneOf({"frob", "addll", "movzbll", "nopl", "lock", "j",
                         "cmov", "nop007", "movq", "jmp", "call", "pushq"}));
        break;
      }
      case 7: {
        std::vector<size_t> Starts = OperandStarts(L);
        size_t At = Starts.empty() ? L.size() : Starts[Pick(Starts.size())];
        L.insert(At, OneOf({"*", "$", "* ", "*$", "$ ", "**", "*%"}));
        break;
      }
      case 8:
        ReplaceOperand(L, OneOf({"1b", "1f", "2f", "1b+4", "$1f", "12b(%rip)",
                                 "0b", "$0x1b", "*1f", "3b", "1bf"}));
        break;
      case 9:
        ReplaceOperand(
            L, OneOf({"0x10", "-8(%rbp)", "010(%rax)", "08", "$-0x80", "$+5",
                      "sym+0x10", "sym-010", "$0x", "99999999999999999999",
                      "- 8(%rbp)", "8 (%rbp)", "sym +4", "$sym@PLT", "%rax ",
                      "% rax", "%r8d", "%xmm3", "sym+4(%rip)",
                      "0x7fffffff(,%rcx,2)", "$-9223372036854775808",
                      "$18446744073709551615", "%rax(%rbx)"}));
        break;
      case 10:
        L = OneOf({"lab: ", "1: ", "x: y: ", "2 :", "3:\t", "dup: "}) + L;
        break;
      case 11: // an unterminated literal, one ending in a backslash
        if (!Pick(50))
          L = OneOf({"\t.ascii \"unterminated", "\t.ascii \"tail\\"});
        break;
      default: { // an operand token with its neighbours swapped about
        if (L.size() > 2) {
          size_t At = Pick(L.size() - 1);
          std::swap(L[At], L[At + 1]);
        }
        break;
      }
      }
    }
    Lines.push_back(std::move(L));
  }
  return Lines;
}

TEST(ParserOracle, MatchesReferenceOnMutations) {
  const std::vector<std::string> Lines = mutatedLines(2011, 24000);
  // Per statement: the instruction API on its own.
  for (const std::string &L : Lines) {
    const Instruction Got = parseInstructionLine(L);
    const Instruction Want = reference::parseInstructionLine(L);
    ASSERT_EQ(Got, Want) << "'" << L << "' parsed as '" << Got.toString()
                         << "', reference '" << Want.toString() << "'";
  }
  // Per file: chunks of 24 statements between numeric label definitions,
  // so "1b" and "1f" usually resolve and one chunk's error leaves the
  // others compared.
  for (size_t Begin = 0; Begin < Lines.size(); Begin += 24) {
    std::string Chunk = "1:\n";
    for (size_t I = Begin; I < Begin + 24 && I < Lines.size(); ++I)
      Chunk += Lines[I] + (I % 7 == 3 ? "\r\n" : "\n");
    Chunk += "1:\n2:\n3:\n12:\n";
    if (Begin % 48 == 0)
      Chunk += "\tret\r"; // a '\r' at the end of the input
    expectMatchesReference(Chunk, "chunk@" + std::to_string(Begin));
    if (Begin % 240 == 0)
      expectMatchesReference(Chunk, "chunk@" + std::to_string(Begin),
                             "parser:30,encoder:200");
  }
}

//===----------------------------------------------------------------------===//
// CRLF input.
//===----------------------------------------------------------------------===//

std::string withCrlf(const std::string &Text) {
  std::string Out;
  Out.reserve(Text.size() + Text.size() / 16);
  for (char C : Text) {
    if (C == '\n')
      Out += '\r';
    Out += C;
  }
  return Out;
}

TEST(Parser, CrlfParsesLikeLf) {
  for (const auto &[Name, Text] : exampleAndSpecCorpus()) {
    if (Name.size() < 2 || Name.compare(Name.size() - 2, 2, ".s") != 0)
      continue;
    ParseStats LfStats, CrlfStats;
    auto Lf = parseAssembly(Text, &LfStats, Name);
    auto Crlf = parseAssembly(withCrlf(Text), &CrlfStats, Name);
    ASSERT_TRUE(Lf.ok()) << Name;
    ASSERT_TRUE(Crlf.ok()) << Name << ": " << Crlf.message();
    expectSameEntries(*Crlf, *Lf, Name);
    EXPECT_EQ(CrlfStats.Lines, LfStats.Lines) << Name;
    EXPECT_EQ(CrlfStats.OpaqueInstructions, LfStats.OpaqueInstructions)
        << Name;
    EXPECT_EQ(emitAssembly(*Crlf), emitAssembly(*Lf)) << Name;
  }
}

TEST(Parser, CrlfFunctionIsModelled) {
  // A '\r' before each '\n' and one at the end of the input: the labels,
  // directives and instructions are those of the LF text.
  const std::string Text = "\t.text\r\n\t.globl\tf\r\nf:\r\n\tpushq\t%rbp\r\n"
                           "\tmovl\t$1, %eax\r\n\tpopq\t%rbp\r\n\tret\r";
  ParseStats Stats;
  auto UnitOr = parseAssembly(Text, &Stats);
  ASSERT_TRUE(UnitOr.ok()) << UnitOr.message();
  EXPECT_EQ(Stats.Lines, 7u);
  EXPECT_EQ(Stats.Instructions, 4u);
  EXPECT_EQ(Stats.OpaqueInstructions, 0u);
  EXPECT_EQ(Stats.Labels, 1u);
  EXPECT_TRUE(UnitOr->labelMap().count("f"));
  EXPECT_EQ(emitAssembly(*UnitOr),
            emitAssembly(*parseAssembly("\t.text\n\t.globl\tf\nf:\n\tpushq\t"
                                        "%rbp\n\tmovl\t$1, %eax\n\tpopq\t"
                                        "%rbp\n\tret\n")));
  // Only a '\r' at the end of a line goes: one inside it still makes the
  // instruction opaque, as it always did.
  EXPECT_TRUE(parseInstructionLine("ret\r #").isOpaque());
}

} // namespace
