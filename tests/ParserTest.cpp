//===- tests/ParserTest.cpp - AT&T parser and round-trip tests --------------==//

#include "TestCorpus.h"
#include "asm/AsmEmitter.h"
#include "asm/Parser.h"
#include "support/FaultInjection.h"
#include "x86/Registers.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>

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

} // namespace
