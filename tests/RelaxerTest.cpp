//===- tests/RelaxerTest.cpp - Repeated relaxation tests --------------------==//

#include "GasOracle.h"
#include "TestCorpus.h"
#include "analysis/Relaxer.h"
#include "asm/AsmEmitter.h"
#include "asm/Assembler.h"
#include "asm/Parser.h"
#include "ir/Verifier.h"
#include "support/Diag.h"
#include "support/Random.h"
#include "support/Stats.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

using namespace mao;

namespace {

MaoUnit parseOk(const std::string &Text) {
  auto UnitOr = parseAssembly(Text);
  EXPECT_TRUE(UnitOr.ok());
  return std::move(*UnitOr);
}

/// Builds the paper's Sec. II relaxation example: a forward jump over
/// \p FillerPairs add/sub pairs (8 bytes each) to a cmpl/jne tail.
std::string paperExample(unsigned FillerPairs, bool WithNop) {
  std::string S;
  S += "\t.text\n";
  S += "\t.type main, @function\n";
  S += "main:\n";
  S += "\tpushq %rbp\n";
  S += "\tmovq %rsp, %rbp\n";
  S += "\tmovl $5, -4(%rbp)\n";
  S += "\tjmp .LTAIL\n";
  S += ".LBODY:\n";
  for (unsigned I = 0; I < FillerPairs; ++I) {
    S += "\taddl $1, -4(%rbp)\n";
    S += "\tsubl $1, -4(%rbp)\n";
  }
  if (WithNop)
    S += "\tnop\n";
  S += ".LTAIL:\n";
  S += "\tcmpl $0, -4(%rbp)\n";
  S += "\tjne .LBODY\n";
  S += "\tret\n";
  S += "\t.size main, .-main\n";
  return S;
}

const MaoEntry *findInsn(const MaoUnit &Unit, Mnemonic Mn, unsigned Skip = 0) {
  for (const MaoEntry &E : Unit.entries())
    if (E.isInstruction() && E.instruction().Mn == Mn) {
      if (Skip == 0)
        return &E;
      --Skip;
    }
  return nullptr;
}

TEST(Relaxer, PaperExampleShortForm) {
  // 15 filler pairs: 0xb (jmp addr) .. target fits in rel8 (disp 0x78).
  MaoUnit Unit = parseOk(paperExample(15, /*WithNop=*/false));
  RelaxationResult R = relaxUnit(Unit);
  ASSERT_TRUE(R.Converged);
  const MaoEntry *Jmp = findInsn(Unit, Mnemonic::JMP);
  ASSERT_NE(Jmp, nullptr);
  EXPECT_EQ(Jmp->instruction().BranchSize, 1);
  EXPECT_EQ(Jmp->Size, 2u);
  EXPECT_EQ(Jmp->Address, 0xb);
  // .LTAIL = 0xb + 2 + 15*8 = 0x85.
  EXPECT_EQ(R.Labels.at(".LTAIL"), 0x85);
}

TEST(Relaxer, PaperExampleGrowsOnNopInsertion) {
  // 15 pairs put .LTAIL at 0x85 (disp 0x78, fits). One extra nop pushes the
  // displacement to 0x79... still fits; the paper's cliff is at disp > 0x7f.
  // Use 16 pairs (disp 0x80) to cross the boundary exactly.
  MaoUnit Short = parseOk(paperExample(15, false));
  RelaxationResult RS = relaxUnit(Short);
  ASSERT_TRUE(RS.Converged);
  EXPECT_EQ(findInsn(Short, Mnemonic::JMP)->Size, 2u);

  MaoUnit Long = parseOk(paperExample(16, false));
  RelaxationResult RL = relaxUnit(Long);
  ASSERT_TRUE(RL.Converged);
  const MaoEntry *Jmp = findInsn(Long, Mnemonic::JMP);
  EXPECT_EQ(Jmp->instruction().BranchSize, 4);
  EXPECT_EQ(Jmp->Size, 5u); // e9 + rel32, exactly the paper's 2 -> 5 growth
  EXPECT_GT(RL.Iterations, 1u);
}

TEST(Relaxer, BackwardBranchStaysShort) {
  MaoUnit Unit = parseOk(paperExample(4, false));
  RelaxationResult R = relaxUnit(Unit);
  ASSERT_TRUE(R.Converged);
  const MaoEntry *Jne = findInsn(Unit, Mnemonic::JCC);
  ASSERT_NE(Jne, nullptr);
  EXPECT_EQ(Jne->instruction().BranchSize, 1);
}

TEST(Relaxer, CascadingGrowth) {
  // Two branches where growing the first pushes the second out of range:
  // requires more than two iterations in total.
  std::string S = "\t.text\n\t.type f, @function\nf:\n";
  S += "\tjmp .LA\n"; // at 0; .LA at ~126 boundary
  S += "\tjmp .LB\n";
  for (int I = 0; I < 15; ++I)
    S += "\taddl $1, -4(%rbp)\n\tsubl $1, -4(%rbp)\n"; // 8 bytes/pair
  S += ".LA:\n";
  S += "\tret\n";
  S += ".LB:\n";
  S += "\tret\n";
  S += "\t.size f, .-f\n";
  MaoUnit Unit = parseOk(S);
  RelaxationResult R = relaxUnit(Unit);
  ASSERT_TRUE(R.Converged);
  // .LA: first jmp disp = 2 + 120 = 122 from end of first jmp -> fits.
  // .LB is one byte further for the second jmp... construct just checks
  // convergence and consistency here:
  for (const MaoEntry &E : Unit.entries())
    if (E.isInstruction())
      EXPECT_GE(E.Address, 0);
}

TEST(Relaxer, P2AlignPadding) {
  std::string S = "\t.text\n\t.type f, @function\nf:\n";
  S += "\tret\n";             // 1 byte at 0
  S += "\t.p2align 4,,15\n";  // pad to 16
  S += ".LX:\n";
  S += "\tret\n";
  S += "\t.size f, .-f\n";
  MaoUnit Unit = parseOk(S);
  RelaxationResult R = relaxUnit(Unit);
  ASSERT_TRUE(R.Converged);
  EXPECT_EQ(R.Labels.at(".LX"), 16);
}

TEST(Relaxer, P2AlignMaxSkipsPadding) {
  std::string S = "\t.text\n\t.type f, @function\nf:\n";
  S += "\tret\n";            // 1 byte
  S += "\t.p2align 4,,7\n";  // would need 15 > max 7: no padding
  S += ".LX:\n";
  S += "\tret\n";
  S += "\t.size f, .-f\n";
  MaoUnit Unit = parseOk(S);
  RelaxationResult R = relaxUnit(Unit);
  ASSERT_TRUE(R.Converged);
  EXPECT_EQ(R.Labels.at(".LX"), 1);
}

TEST(Relaxer, AlreadyAlignedNeedsNoPad) {
  std::string S = "\t.text\n\t.p2align 4\n.LX:\n\tret\n";
  MaoUnit Unit = parseOk(S);
  RelaxationResult R = relaxUnit(Unit);
  EXPECT_EQ(R.Labels.at(".LX"), 0);
}

TEST(Relaxer, DataDirectiveSizes) {
  std::string S = "\t.section .rodata\n";
  S += ".LT:\n";
  S += "\t.quad 1, 2, 3\n";
  S += "\t.long 7\n";
  S += "\t.byte 1, 2\n";
  S += "\t.zero 10\n";
  S += "\t.string \"ab\\n\"\n";
  S += ".LEND:\n";
  MaoUnit Unit = parseOk(S);
  RelaxationResult R = relaxUnit(Unit);
  ASSERT_TRUE(R.Converged);
  // 24 + 4 + 2 + 10 + 4 ("ab\n" + NUL) = 44.
  EXPECT_EQ(R.Labels.at(".LEND"), 44);
}

TEST(Relaxer, StringDirectiveSizeIsItsAssembledBytes) {
  // Layout and the assembler read a string literal through one decoder,
  // and read it as gas does.
  const std::pair<const char *, std::string> Cases[] = {
      {R"(.ascii "\x41\b\f\101\\\"")", "A\b\fA\\\""},
      {R"(.ascii "\x4142\19\q")", "B\021q"},
      {R"(.string "a", "b")", std::string("a\0b\0", 4)},
      {R"(.asciz "\0012")", std::string("\0012\0", 3)},
      {R"(.ascii "\xg")", std::string("\0g", 2)},
  };
  for (const auto &[Directive, Bytes] : Cases) {
    MaoUnit Unit = parseOk(std::string("\t.data\n\t") + Directive + "\n");
    auto BytesOr = assembleUnit(Unit);
    ASSERT_TRUE(BytesOr.ok()) << BytesOr.message();
    const std::vector<uint8_t> &Data = BytesOr->at(".data");
    EXPECT_EQ(std::string(Data.begin(), Data.end()), Bytes) << Directive;
    EXPECT_EQ(relaxUnit(Unit).SectionSizes.at(".data"),
              static_cast<int64_t>(Bytes.size()))
        << Directive;
  }
}

TEST(Relaxer, ExternalTargetsUseRel32) {
  MaoUnit Unit = parseOk("\t.text\n\tjmp external_fn\n");
  RelaxationResult R = relaxUnit(Unit);
  ASSERT_TRUE(R.Converged);
  // rel32 from gas's first guess on, so the first pass grows nothing.
  EXPECT_EQ(R.Iterations, 1u);
  const MaoEntry *Jmp = findInsn(Unit, Mnemonic::JMP);
  EXPECT_EQ(Jmp->instruction().BranchSize, 4);
}

TEST(Relaxer, ForwardRel8Boundary) {
  // +127 is the last forward displacement rel8 can encode: a 2-byte jmp at
  // 0 followed by 127 bytes of filler puts the target exactly at disp 127.
  MaoUnit Fit = parseOk("\t.text\n\tjmp .LT\n\t.zero 127\n.LT:\n\tret\n");
  RelaxationResult RF = relaxUnit(Fit);
  ASSERT_TRUE(RF.Converged);
  EXPECT_EQ(findInsn(Fit, Mnemonic::JMP)->instruction().BranchSize, 1);
  EXPECT_EQ(findInsn(Fit, Mnemonic::JMP)->Size, 2u);

  // One more byte (disp 128) crosses the cliff.
  MaoUnit Grow = parseOk("\t.text\n\tjmp .LT\n\t.zero 128\n.LT:\n\tret\n");
  RelaxationResult RG = relaxUnit(Grow);
  ASSERT_TRUE(RG.Converged);
  EXPECT_EQ(findInsn(Grow, Mnemonic::JMP)->instruction().BranchSize, 4);
  EXPECT_EQ(findInsn(Grow, Mnemonic::JMP)->Size, 5u);
}

TEST(Relaxer, BackwardRel8Boundary) {
  // -128 is the furthest backward displacement rel8 can encode: the 2-byte
  // jmp ends at 128, so the target at 0 sits exactly at disp -128.
  MaoUnit Fit = parseOk("\t.text\n.LT:\n\t.zero 126\n\tjmp .LT\n");
  RelaxationResult RF = relaxUnit(Fit);
  ASSERT_TRUE(RF.Converged);
  EXPECT_EQ(findInsn(Fit, Mnemonic::JMP)->instruction().BranchSize, 1);

  // One more filler byte (disp -129) forces rel32.
  MaoUnit Grow = parseOk("\t.text\n.LT:\n\t.zero 127\n\tjmp .LT\n");
  RelaxationResult RG = relaxUnit(Grow);
  ASSERT_TRUE(RG.Converged);
  EXPECT_EQ(findInsn(Grow, Mnemonic::JMP)->instruction().BranchSize, 4);
}

TEST(Relaxer, GlobalTargetDefinedLocallyStaysShort) {
  // A .globl symbol defined in this unit has a known distance; exporting
  // it must not pessimize nearby branches to rel32 (the pre-fix behavior
  // excluded every global from the label map).
  std::string S = "\t.text\n\t.globl g\n\tjmp g\n\t.zero 16\ng:\n\tret\n";
  MaoUnit Unit = parseOk(S);
  RelaxationResult R = relaxUnit(Unit);
  ASSERT_TRUE(R.Converged);
  EXPECT_EQ(findInsn(Unit, Mnemonic::JMP)->instruction().BranchSize, 1);
  EXPECT_EQ(R.Labels.at("g"), 18);
}

TEST(Relaxer, CrossSectionTargetUsesRel32) {
  // Section addresses restart at 0, so a displacement computed across
  // sections would compare unrelated address spaces. The target must be
  // absent from the branch's per-section map and the branch forced to
  // rel32 (the linker knows the real distance via relocation).
  std::string S = "\t.text\n\tjmp .LCOLD\n\tret\n";
  S += "\t.section .text.unlikely\n.LCOLD:\n\tret\n";
  MaoUnit Unit = parseOk(S);
  RelaxationResult R = relaxUnit(Unit);
  ASSERT_TRUE(R.Converged);
  EXPECT_EQ(findInsn(Unit, Mnemonic::JMP)->instruction().BranchSize, 4);
  EXPECT_EQ(R.sectionLabels(".text.unlikely").at(".LCOLD"), 0);
  EXPECT_EQ(R.sectionLabels(".text").count(".LCOLD"), 0u);
}

/// Builds a chain of forward jumps where each relaxation round grows
/// exactly one more branch: J_i targets .L_i, which sits right after
/// J_{i+1}, across 125 filler bytes — disp_i = 125 + len(J_{i+1}), i.e. a
/// rel8-fitting 127 until J_{i+1} grows to 5 bytes. The last jump's target
/// is 128 bytes away, seeding the cascade. With \p Jumps >
/// RelaxationIterationLimit the fixpoint cannot be reached in time.
std::string growthCascade(unsigned Jumps) {
  std::string S = "\t.text\n";
  for (unsigned I = 1; I <= Jumps; ++I) {
    S += "\tjmp .L" + std::to_string(I) + "\n";
    if (I > 1)
      S += ".L" + std::to_string(I - 1) + ":\n";
    if (I < Jumps)
      S += "\t.zero 125\n";
  }
  S += "\t.zero 128\n";
  S += ".L" + std::to_string(Jumps) + ":\n";
  S += "\tret\n";
  return S;
}

TEST(Relaxer, IterationLimitEmitsDiagnostic) {
  MaoUnit Unit = parseOk(growthCascade(RelaxationIterationLimit + 1));

  DiagEngine Diags;
  CollectingDiagSink Sink;
  Diags.addSink(&Sink);
  RelaxationResult R = relaxUnit(Unit, &Diags);
  EXPECT_FALSE(R.Converged);
  EXPECT_EQ(R.Iterations, RelaxationIterationLimit);

  // The limit is reported as a structured warning naming the section that
  // was still growing and the iteration budget.
  ASSERT_EQ(Diags.warningCount(), 1u);
  ASSERT_EQ(Sink.diagnostics().size(), 1u);
  const Diagnostic &D = Sink.diagnostics()[0];
  EXPECT_EQ(D.Severity, DiagSeverity::Warning);
  EXPECT_EQ(D.Code, DiagCode::RelaxIterationLimit);
  EXPECT_NE(D.Message.find(".text"), std::string::npos);
  EXPECT_NE(D.Message.find(std::to_string(RelaxationIterationLimit)),
            std::string::npos);

  // Non-converged layout is a hard error in the verifier's layout check:
  // best-effort addresses must never flow into emitted bytes silently.
  VerifierReport Report = verifyUnit(Unit);
  ASSERT_FALSE(Report.clean());
  bool SawDiverged = false;
  for (const Diagnostic &Issue : Report.Issues)
    SawDiverged |= Issue.Code == DiagCode::VerifyRelaxationDiverged;
  EXPECT_TRUE(SawDiverged);
}

TEST(Relaxer, CascadeJustUnderLimitConverges) {
  // The same construction one jump shorter needs exactly
  // RelaxationIterationLimit rounds and must still converge with every
  // branch widened.
  MaoUnit Unit = parseOk(growthCascade(RelaxationIterationLimit - 1));
  RelaxationResult R = relaxUnit(Unit);
  ASSERT_TRUE(R.Converged);
  EXPECT_EQ(R.Iterations, RelaxationIterationLimit);
  for (const MaoEntry &E : Unit.entries())
    if (E.isInstruction() && E.instruction().Mn == Mnemonic::JMP) {
      EXPECT_EQ(E.instruction().BranchSize, 4);
    }
}

// --- Assembler integration --------------------------------------------------

// The length memo lives in the padding after the entry's kind tag, so the
// entry stays within its absolute caps: 48-byte operands, a 120-byte
// instruction payload and a 160-byte entry.
static_assert(sizeof(Operand) <= 48, "Operand grew past 48 bytes");
static_assert(sizeof(Instruction) <= 120, "Instruction grew past 120 bytes");
static_assert(sizeof(MaoEntry) <= 160, "the length memo must not grow MaoEntry");

/// The first instruction entry with mnemonic \p Mn, mutable.
MaoEntry *findInsnEntry(MaoUnit &Unit, Mnemonic Mn) {
  for (MaoEntry &E : Unit.entries())
    if (E.isInstruction() && std::as_const(E).instruction().Mn == Mn)
      return &E;
  return nullptr;
}

TEST(LengthMemo, FilledByRelaxationAndKeptAcrossRelaxations) {
  MaoUnit Unit = parseOk(paperExample(4, /*WithNop=*/false));
  MaoEntry *Cmp = findInsnEntry(Unit, Mnemonic::CMP);
  ASSERT_NE(Cmp, nullptr);
  // Parsing measured it; an edit drops the memo, relaxation refills it.
  EXPECT_EQ(Cmp->lengthMemo(),
            instructionLength(std::as_const(*Cmp).instruction()));
  (void)Cmp->instruction();
  ASSERT_EQ(Cmp->lengthMemo(), 0u);
  ASSERT_TRUE(relaxUnit(Unit).Converged);
  const unsigned Length = Cmp->lengthMemo();
  EXPECT_EQ(Length, instructionLength(std::as_const(*Cmp).instruction()));
  EXPECT_EQ(Length, Cmp->Size);
  // A second relaxation reads the memo back instead of re-encoding.
  ASSERT_TRUE(relaxUnit(Unit).Converged);
  EXPECT_EQ(Cmp->lengthMemo(), Length);
  // Direct branches are sized per relaxation, never from a memo.
  const MaoEntry *Jmp = findInsn(Unit, Mnemonic::JMP);
  ASSERT_NE(Jmp, nullptr);
  EXPECT_EQ(Jmp->lengthMemo(), 0u);
}

TEST(LengthMemo, SeededByParseOnTheCorpus) {
  // Validation measures every instruction once, and the entry keeps that
  // length: every instruction but a direct branch starts measured, so no
  // later layer has to measure an unedited instruction again.
  size_t Seeded = 0, DirectBranches = 0;
  for (const auto &[Name, Text] : exampleAndSpecCorpus()) {
    MaoUnit Unit = parseOk(Text);
    size_t Wrong = 0;
    for (const MaoEntry &E : Unit.entries()) {
      if (!E.isInstruction() || E.instruction().isOpaque())
        continue;
      const Instruction &Insn = E.instruction();
      const bool Direct = Insn.isBranch() && !Insn.hasIndirectTarget();
      const unsigned Want = Direct ? 0 : instructionLength(Insn);
      if (E.lengthMemo() != Want && ++Wrong == 1)
        ADD_FAILURE() << Name << ": '" << Insn.toString() << "' has memo "
                      << E.lengthMemo() << ", want " << Want;
      ++(Direct ? DirectBranches : Seeded);
    }
    EXPECT_EQ(Wrong, 0u) << Name;
  }
  EXPECT_GT(Seeded, 0u);
  EXPECT_GT(DirectBranches, 0u);
}

TEST(LengthMemo, CarriedByCloneAndCopies) {
  MaoUnit Unit = parseOk(paperExample(4, /*WithNop=*/false));
  ASSERT_TRUE(relaxUnit(Unit).Converged);
  const MaoEntry *Cmp = findInsn(Unit, Mnemonic::CMP);
  ASSERT_NE(Cmp, nullptr);
  ASSERT_NE(Cmp->lengthMemo(), 0u);
  MaoUnit Copy = Unit.clone();
  const MaoEntry *CopiedCmp = findInsn(Copy, Mnemonic::CMP);
  ASSERT_NE(CopiedCmp, nullptr);
  EXPECT_EQ(CopiedCmp->lengthMemo(), Cmp->lengthMemo());
  MaoEntry Copied = *CopiedCmp;
  EXPECT_EQ(Copied.lengthMemo(), Cmp->lengthMemo());
  MaoEntry Moved = std::move(Copied);
  EXPECT_EQ(Moved.lengthMemo(), Cmp->lengthMemo());
}

TEST(LengthMemo, ClearedByMutableAccessOnly) {
  MaoUnit Unit = parseOk(paperExample(4, /*WithNop=*/false));
  ASSERT_TRUE(relaxUnit(Unit).Converged);
  MaoEntry *Cmp = findInsnEntry(Unit, Mnemonic::CMP);
  ASSERT_NE(Cmp, nullptr);
  const unsigned Length = Cmp->lengthMemo();
  ASSERT_NE(Length, 0u);
  (void)std::as_const(*Cmp).instruction();
  EXPECT_EQ(Cmp->lengthMemo(), Length);
  (void)Cmp->instruction();
  EXPECT_EQ(Cmp->lengthMemo(), 0u);
}

TEST(LengthMemo, FullVerifierReportsAStaleMemo) {
  MaoUnit Unit = parseOk(paperExample(4, /*WithNop=*/false));
  MaoEntry *Cmp = findInsnEntry(Unit, Mnemonic::CMP);
  ASSERT_NE(Cmp, nullptr);
  // Holding the reference across a relaxation is the one way to bypass
  // the memo's invalidation.
  Instruction &Held = Cmp->instruction();
  ASSERT_TRUE(relaxUnit(Unit).Converged);
  ASSERT_NE(Cmp->lengthMemo(), 0u);
  ASSERT_TRUE(verifyUnit(Unit).clean());
  // cmpl $0 -> cmpl $1000 trades the imm8 form for imm32.
  ASSERT_EQ(Held.Ops.size(), 2u);
  Held.Ops[0].Imm = 1000;
#ifdef MAO_CHECK_ENTRY_MEMOS
  // This build re-measures on every memo read, so reading the stale memo
  // is already fatal.
  EXPECT_DEATH((void)Cmp->lengthMemo(), "stale length memo");
  return;
#endif
  ASSERT_NE(instructionLength(Held), Cmp->lengthMemo());

  // The cheap configuration trusts the memo ...
  VerifierOptions Cheap = VerifierOptions::fast();
  Cheap.CheckEncodings = true;
  EXPECT_TRUE(verifyUnit(Unit, Cheap).clean());
  // ... the full one re-encodes and catches it.
  VerifierReport Report = verifyUnit(Unit);
  ASSERT_FALSE(Report.clean());
  EXPECT_EQ(Report.Issues.front().Code, DiagCode::VerifyEncodingFailed);
  EXPECT_NE(Report.firstMessage().find("length memo"), std::string::npos);
}

TEST(Assembler, BytesMatchLayout) {
  MaoUnit Unit = parseOk(paperExample(16, true));
  auto BytesOr = assembleUnit(Unit);
  ASSERT_TRUE(BytesOr.ok()) << BytesOr.message();
  const std::vector<uint8_t> &Text = BytesOr->at(".text");
  // Total size equals the relaxed section size.
  RelaxationResult R = relaxUnit(Unit);
  EXPECT_EQ(static_cast<int64_t>(Text.size()), R.SectionSizes.at(".text"));
  // First bytes: push %rbp; mov %rsp,%rbp (gas reference).
  ASSERT_GE(Text.size(), 4u);
  EXPECT_EQ(Text[0], 0x55);
  EXPECT_EQ(Text[1], 0x48);
  EXPECT_EQ(Text[2], 0x89);
  EXPECT_EQ(Text[3], 0xe5);
}

TEST(Assembler, IdentityTransformPreservesBytes) {
  // The paper's verification workflow: run MAO with no transformation and
  // check the binary is unchanged (Sec. III-A).
  MaoUnit A = parseOk(paperExample(16, true));
  MaoUnit B = parseOk(emitAssembly(A)); // emit + reparse
  auto BytesA = assembleUnit(A);
  auto BytesB = assembleUnit(B);
  ASSERT_TRUE(BytesA.ok());
  ASSERT_TRUE(BytesB.ok());
  EXPECT_EQ(*BytesA, *BytesB);
}

// --- Differential check of the maintained layout -----------------------------

/// Whether alignment directive \p Dir asks for more than one byte, which
/// is when gas gives it a frag of its own and so starts a new region.
bool alignsPastOneByte(const Directive &Dir) {
  const long long Arg = std::strtoll(Dir.arg(0).c_str(), nullptr, 0);
  return Dir.Kind == DirKind::P2Align ? Arg >= 1 && Arg <= 31 : Arg >= 2;
}

/// The whole-unit relaxer UnitLayout replaced, frozen as the reference: it
/// rebuilds its walk and hashes label names on every call. It runs gas's
/// relax_segment passes (binutils gas/write.c) by name. UnitLayout must
/// agree with it on every unit and after every edit.
RelaxationResult referenceRelaxUnit(MaoUnit &Unit, DiagEngine *Diags = nullptr) {
  RelaxationResult Result;

  // Pre-compute the layout walk. Only two kinds of entry have an
  // address- or pass-dependent size — alignment pads and direct branches —
  // so everything else is sized once here (from its length memo when it
  // has one). A direct branch is encoded once at each width. Label and
  // branch-target names are captured as string_view keys once. Only
  // direct branches are opened for writing; everything else is read
  // through a const view so its length memo survives.
  struct Slot {
    MaoEntry *E;
    unsigned StaticSize; ///< Valid when !Dynamic.
    bool Dynamic;
    bool IsLabel;
    bool IsBranch;              ///< Dynamic direct branch (else a pad).
    bool NewRegion;             ///< An alignment that ends a region.
    uint8_t Rel8Size;           ///< Encoded length at BranchSize 1.
    uint8_t Rel32Size;          ///< Encoded length at BranchSize 4.
    std::string_view LabelKey;  ///< Label name; valid when IsLabel.
    const Operand *Target;      ///< Branch target; valid when IsBranch.
    std::string_view TargetSym; ///< Target symbol; valid when IsBranch.
  };
  LengthMemoTally Tally;
  std::vector<std::pair<SectionInfo *, std::vector<Slot>>> Walk;
  for (SectionInfo &Sec : Unit.sections()) {
    std::vector<Slot> Slots;
    for (const MaoFunction::Range &R : Sec.Ranges)
      for (EntryIter It = R.Begin; It != R.End; ++It) {
        const MaoEntry &View = *It;
        Slot S;
        S.E = &*It;
        S.Dynamic = S.IsBranch = S.NewRegion = false;
        S.Target = nullptr;
        if (View.isInstruction()) {
          const Instruction &Insn = View.instruction();
          S.IsBranch = S.Dynamic = Insn.isBranch() && !Insn.hasIndirectTarget();
          if (S.IsBranch) {
            S.Target = Insn.branchTarget();
            assert(S.Target && S.Target->isSymbol() &&
                   "direct branch without target");
            S.TargetSym = S.Target->Sym;
            Instruction &Branch = It->instruction();
            Branch.BranchSize = 4;
            S.Rel32Size = static_cast<uint8_t>(instructionLength(Branch));
            Branch.BranchSize = 1;
            S.Rel8Size = static_cast<uint8_t>(instructionLength(Branch));
            Tally.Misses += 2;
          }
        } else if (View.isDirective()) {
          DirKind K = View.directive().Kind;
          S.Dynamic = K == DirKind::P2Align || K == DirKind::Balign;
          S.NewRegion = S.Dynamic && alignsPastOneByte(View.directive());
        }
        // Every defined label participates in displacement resolution,
        // global or not: a branch to a symbol defined in this very unit
        // has a known distance. Truly external symbols are simply absent
        // from the maps.
        S.IsLabel = View.isLabel();
        if (S.IsLabel)
          S.LabelKey = View.labelName();
        S.StaticSize = S.Dynamic ? 0 : entryLayoutSize(*It, 0, Tally);
        Slots.push_back(S);
      }
    Walk.emplace_back(&Sec, std::move(Slots));
  }
  Tally.flush();

  // gas's first estimate: a branch to a label of its own section starts at
  // rel8, any other (external or cross-section) is rel32 for good.
  for (auto &[Sec, Slots] : Walk) {
    std::set<std::string_view> Defined;
    for (const Slot &S : Slots)
      if (S.IsLabel)
        Defined.insert(S.LabelKey);
    for (const Slot &S : Slots)
      if (S.IsBranch)
        S.E->instruction().BranchSize = Defined.count(S.TargetSym) ? 1 : 4;
  }

  auto BranchSizeOf = [](const Slot &S) {
    return std::as_const(*S.E).instruction().BranchSize;
  };

  // Per section: label -> the alignments before it (its region).
  std::map<std::string, std::unordered_map<std::string_view, unsigned>>
      Regions;
  std::string LastGrowthSection;

  // One pass over every section, in order. Duplicate label definitions
  // bind to the FIRST occurrence (try_emplace), matching MaoUnit::labelMap
  // and the emulator. While a pass runs, the labels it has passed have
  // this pass's addresses (Now) and the others the last pass's (Last).
  auto Pass = [&](bool Grow) -> bool {
    bool Grew = false;
    Result.Labels.clear();
    for (auto &[Sec, Slots] : Walk) {
      const LabelAddressMap Last = Result.SectionLabels[Sec->Name];
      LabelAddressMap &Now = Result.SectionLabels[Sec->Name];
      Now.clear();
      std::unordered_map<std::string_view, unsigned> &Region =
          Regions[Sec->Name];
      int64_t Address = 0;
      unsigned CurRegion = 0;
      for (const Slot &S : Slots) {
        MaoEntry &E = *S.E;
        if (Grow && S.IsBranch && BranchSizeOf(S) == 1) {
          // gas's relax_frag: an unreached target moves with the stretch
          // unless an alignment between may absorb it; an estimate that
          // falls behind the branch does not grow it in this pass.
          const int64_t Stretch = Address - E.Address;
          auto Reached = Now.find(S.TargetSym);
          int64_t Target = S.Target->Imm + (Reached != Now.end()
                                                ? Reached->second
                                                : Last.at(S.TargetSym));
          bool Grows = true;
          if (Reached == Now.end() && Stretch != 0) {
            if (Stretch < 0 || Region.at(S.TargetSym) == CurRegion)
              Target += Stretch;
            else if (Target < Address + S.Rel8Size - 1)
              Grows = false;
          }
          const int64_t Disp = Target - (Address + S.Rel8Size);
          if (Grows && (Disp < -128 || Disp > 127)) {
            E.instruction().BranchSize = 4;
            Grew = true;
            LastGrowthSection = Sec->Name;
          }
        }
        E.Address = Address;
        if (S.IsBranch)
          E.Size = BranchSizeOf(S) == 1 ? S.Rel8Size : S.Rel32Size;
        else if (S.Dynamic)
          E.Size = entryLayoutSize(E, Address, Tally);
        else
          E.Size = S.StaticSize;
        if (S.IsLabel) {
          Now.try_emplace(S.LabelKey, Address);
          Region.try_emplace(S.LabelKey, CurRegion);
          Result.Labels.try_emplace(S.LabelKey, Address);
        }
        Address += E.Size;
        CurRegion += S.NewRegion;
      }
      Result.SectionSizes[Sec->Name] = Address;
    }
    return Grew;
  };

  Pass(/*Grow=*/false);
  while (Result.Iterations < RelaxationIterationLimit) {
    ++Result.Iterations;
    if (!Pass(/*Grow=*/true)) {
      Result.Converged = true;
      return Result;
    }
  }

  // Hit the iteration limit; addresses are best-effort and must not be
  // trusted silently — report which section was still growing, and let the
  // verifier's layout check turn !Converged into a hard error.
  if (Diags)
    Diags->warning(DiagCode::RelaxIterationLimit,
                   "relaxation of section " + LastGrowthSection +
                       " did not converge within " +
                       std::to_string(RelaxationIterationLimit) +
                       " iterations; branch sizes are best-effort");
  return Result;
}

/// What one relaxation leaves on an entry.
struct EntryLayout {
  int64_t Address;
  uint32_t Size;
  uint8_t BranchSize;
  bool operator==(const EntryLayout &) const = default;
};

std::vector<EntryLayout> entryLayouts(const MaoUnit &Unit) {
  std::vector<EntryLayout> Out;
  for (const MaoEntry &E : Unit.entries())
    Out.push_back({E.Address, E.Size,
                   E.isInstruction() ? E.instruction().BranchSize
                                     : uint8_t(0)});
  return Out;
}

/// Relaxes \p Unit through \p Layout, then through the reference, and
/// expects identical results and entry layouts.
void expectMatchesReference(MaoUnit &Unit, UnitLayout &Layout,
                            const std::string &What) {
  Layout.relax();
  const RelaxationResult Got = Layout.takeResult();
  const std::vector<EntryLayout> GotEntries = entryLayouts(Unit);
  const RelaxationResult Want = referenceRelaxUnit(Unit);
  EXPECT_EQ(Got.Converged, Want.Converged) << What;
  EXPECT_EQ(Got.Iterations, Want.Iterations) << What;
  EXPECT_EQ(Got.Labels, Want.Labels) << What;
  EXPECT_EQ(Got.SectionLabels, Want.SectionLabels) << What;
  EXPECT_EQ(Got.SectionSizes, Want.SectionSizes) << What;
  EXPECT_TRUE(GotEntries == entryLayouts(Unit)) << What;
}

/// Every unit of the differential corpus: examples/*.s, the SPEC workload
/// profiles and a few units built around the rel8 cliff and alignment.
std::vector<std::pair<std::string, std::string>> differentialCorpus() {
  std::vector<std::pair<std::string, std::string>> Corpus =
      exampleAndSpecCorpus();
  // Branches at the rel8 cliff, where one byte moved flips a size.
  Corpus.emplace_back("forward-cliff",
                      "\t.text\n\tjmp .LT\n\t.zero 127\n.LT:\n\tret\n");
  Corpus.emplace_back("backward-cliff",
                      "\t.text\n.LT:\n\t.zero 126\n\tjmp .LT\n");
  Corpus.emplace_back("paper-example", paperExample(15, /*WithNop=*/false));
  Corpus.emplace_back("growth-cascade", growthCascade(12));
  Corpus.emplace_back("non-converging",
                      growthCascade(RelaxationIterationLimit + 1));
  // Layouts that only gas's own relaxation rule lays out as gas does.
  Corpus.emplace_back("aligned-loop", alignedLoopAsm());
  Corpus.emplace_back("forward-across-align", forwardAcrossAlignAsm());
  Corpus.emplace_back("stale-estimate", staleEstimateAsm());
  // An external target is rel32 from the first guess on: nothing grows.
  Corpus.emplace_back("external",
                      "\t.text\n\tjmp external_fn\n\tjne .LT\n"
                      "\t.zero 20\n.LT:\n\tret\n");
  return Corpus;
}

TEST(UnitLayout, MatchesReferenceOnCorpus) {
  const auto Corpus = differentialCorpus();
  ASSERT_GT(Corpus.size(), 19u);
  for (const auto &[Name, Text] : Corpus) {
    MaoUnit Unit = parseOk(Text);
    UnitLayout Layout(Unit);
    expectMatchesReference(Unit, Layout, Name);
    // The wrapper is the same algorithm.
    const RelaxationResult Wrapped = relaxUnit(Unit);
    const RelaxationResult Want = referenceRelaxUnit(Unit);
    EXPECT_EQ(Wrapped.Labels, Want.Labels) << Name;
    EXPECT_EQ(Wrapped.Iterations, Want.Iterations) << Name;
  }
}

/// Makes one seeded random edit through \p Layout: a NOP, a `.p2align` or
/// an erase, and with \p WithBranches also a direct jump or a label. Half
/// the NOP, `.p2align` and erase edits land on a label, where they move a
/// branch target. Returns what it did, or "" when it skipped.
std::string randomEdit(MaoUnit &Unit, UnitLayout &Layout, RandomSource &Rng,
                       bool WithBranches) {
  std::vector<EntryIter> Labels;
  for (EntryIter It = Unit.entries().begin(); It != Unit.entries().end(); ++It)
    if (It->isLabel())
      Labels.push_back(It);
  EntryIter Pos =
      !Labels.empty() && Rng.nextChance(1, 2)
          ? Labels[Rng.nextBelow(Labels.size())]
          : std::next(Unit.entries().begin(),
                      static_cast<long>(
                          Rng.nextBelow(Unit.entries().size() + 1)));
  switch (Rng.nextBelow(WithBranches ? 5 : 3)) {
  case 0: {
    const unsigned Length = 1 + static_cast<unsigned>(Rng.nextBelow(15));
    Layout.insertBefore(Pos, MaoEntry::makeInstruction(makeNop(Length)));
    return "nop" + std::to_string(Length);
  }
  case 1: {
    Directive Dir;
    Dir.Kind = DirKind::P2Align;
    Dir.Name = ".p2align";
    Dir.Args = {std::to_string(1 + Rng.nextBelow(5))};
    if (Rng.nextChance(1, 2))
      Dir.Args.insert(Dir.Args.end(), {"", std::to_string(Rng.nextBelow(16))});
    Layout.insertBefore(Pos, MaoEntry::makeDirective(std::move(Dir)));
    return ".p2align";
  }
  case 2: {
    // Section directives bound the runs; every other entry may go. With
    // \p WithBranches labels stay: erasing one that a branch targets turns
    // the branch rel32 for good, which would keep every later relaxation
    // off the dirty-span path (a case of its own).
    if (Pos == Unit.entries().end() || (WithBranches && Pos->isLabel()) ||
        Pos->isDirective(DirKind::Text) ||
        Pos->isDirective(DirKind::Data) || Pos->isDirective(DirKind::Bss) ||
        Pos->isDirective(DirKind::Section))
      return "";
    std::string What = "erase " + Pos->toString();
    Layout.erase(Pos);
    return What;
  }
  default: {
    // Before a label, so the new entry joins a section run (a branch
    // outside every run is outside MaoUnit's edit contract), and naming
    // that label: a branch that grows to rel32 would keep every later
    // relaxation off the dirty-span path. A second definition of the label
    // takes over its branches.
    if (Labels.empty())
      return "";
    Pos = Labels[Rng.nextBelow(Labels.size())];
    const std::string Name = std::as_const(*Pos).labelName();
    switch (Rng.nextBelow(3)) {
    case 0:
      Layout.insertBefore(Pos, MaoEntry::makeInstruction(makeJump(Name)));
      return "jmp " + Name;
    case 1:
      // A second definition of a function's name would redefine the
      // function, which MaoUnit's edit contract excludes.
      if (Unit.findFunction(Name))
        return "";
      Layout.insertBefore(Pos, MaoEntry::makeLabel(Name));
      return "label " + Name;
    default: {
      const std::string Fresh = Unit.makeUniqueLabel();
      Layout.insertBefore(Pos, MaoEntry::makeLabel(Fresh));
      return "label " + Fresh;
    }
    }
  }
  }
}

/// Relaxes \p Unit through \p Layout without taking the result — so the
/// next relax() may resume from the dirty spans — then through the
/// reference, and expects identical results and entry layouts.
void expectSpanMatchesReference(MaoUnit &Unit, UnitLayout &Layout,
                                const std::string &What) {
  const RelaxationResult &Got = Layout.relax();
  const std::vector<EntryLayout> GotEntries = entryLayouts(Unit);
  const RelaxationResult Want = referenceRelaxUnit(Unit);
  EXPECT_EQ(Got.Converged, Want.Converged) << What;
  EXPECT_EQ(Got.Iterations, Want.Iterations) << What;
  EXPECT_EQ(Got.SectionSizes, Want.SectionSizes) << What;
  EXPECT_TRUE(GotEntries == entryLayouts(Unit)) << What;
}

uint64_t incrementalRelaxations() {
  return StatsRegistry::instance().counter("relax.incremental").value();
}

TEST(UnitLayout, MatchesReferenceAfterEveryEdit) {
  // Seeded random NOP, .p2align and erase edits through the layout, each
  // checked against a fresh reference relaxation of the same unit.
  const auto Corpus = differentialCorpus();
  uint64_t Seed = 1;
  for (const auto &[Name, Text] : Corpus) {
    MaoUnit Unit = parseOk(Text);
    UnitLayout Layout(Unit);
    RandomSource Rng(Seed++);
    const unsigned Edits = Unit.entries().size() > 10000 ? 8 : 30;
    for (unsigned I = 0; I < Edits; ++I) {
      const std::string Edit = randomEdit(Unit, Layout, Rng, false);
      if (Edit.empty())
        continue;
      expectMatchesReference(Unit, Layout,
                             Name + " edit " + std::to_string(I) + ": " +
                                 Edit);
      if (HasFailure())
        return;
    }
  }

  // Batches of 2-4 edits, jumps and labels included, between relax()
  // calls that keep the layout's result, so the dirty-span path serves
  // every relaxation it can. The SPEC units (all rel8) must use it; the
  // cliff and cascade units, whose layouts hold rel32 branches or grow one,
  // must fall back to the whole-unit fixpoint.
  std::set<std::string> SpecNames;
  for (const WorkloadSpec &S : spec2000IntProfiles())
    SpecNames.insert(S.Name);
  for (const WorkloadSpec &S : spec2006Profiles())
    SpecNames.insert(S.Name);
  Seed = 1000;
  for (const auto &[Name, Text] : Corpus) {
    MaoUnit Unit = parseOk(Text);
    UnitLayout Layout(Unit);
    expectSpanMatchesReference(Unit, Layout, Name + " initial");
    RandomSource Rng(Seed++);
    const uint64_t Before = incrementalRelaxations();
    const unsigned Batches = Unit.entries().size() > 10000 ? 4 : 12;
    for (unsigned B = 0; B < Batches; ++B) {
      std::string What = Name + " batch " + std::to_string(B) + ":";
      for (uint64_t E = 2 + Rng.nextBelow(3); E > 0; --E)
        What += " " + randomEdit(Unit, Layout, Rng, true);
      expectSpanMatchesReference(Unit, Layout, What);
      if (HasFailure())
        return;
    }
    const uint64_t Served = incrementalRelaxations() - Before;
    if (SpecNames.count(Name)) {
      EXPECT_GT(Served, 0u) << Name;
    }
    if (Name == "growth-cascade" || Name == "non-converging") {
      EXPECT_EQ(Served, 0u) << Name;
    }
  }

  // Edits in two sections before one relax.
  {
    std::string S = "\t.text\nf:\n\tjmp .LA\n\t.zero 100\n.LA:\n\tret\n";
    S += "\t.section .text.unlikely\ng:\n\tjne .LB\n\t.zero 90\n.LB:\n"
         "\tret\n";
    MaoUnit Unit = parseOk(S);
    UnitLayout Layout(Unit);
    expectSpanMatchesReference(Unit, Layout, "two sections");
    const uint64_t Before = incrementalRelaxations();
    for (const char *Label : {".LA", ".LB"})
      Layout.insertBefore(Unit.labelMap().at(Label),
                          MaoEntry::makeInstruction(makeNop(9)));
    expectSpanMatchesReference(Unit, Layout, "two sections");
    EXPECT_EQ(incrementalRelaxations() - Before, 1u);
    EXPECT_EQ(Unit.labelMap().at(".LB")->Address, 101);
  }

  // Erasing a branch's target label: with a second definition the branch
  // rebinds to it and still fits rel8, without one the target turns
  // external (rel32).
  for (bool Duplicate : {true, false}) {
    std::string S = "\t.text\n\tjmp .LT\n\t.zero 20\n.LT:\n\tret\n";
    if (Duplicate)
      S += "\t.zero 50\n.LT:\n\tret\n";
    MaoUnit Unit = parseOk(S);
    UnitLayout Layout(Unit);
    expectSpanMatchesReference(Unit, Layout, "target erase");
    Layout.erase(Unit.labelMap().at(".LT"));
    expectSpanMatchesReference(Unit, Layout, "target erase");
    EXPECT_EQ(findInsn(Unit, Mnemonic::JMP)->instruction().BranchSize,
              Duplicate ? 1 : 4);
  }

  // A relax right after takeResult() runs the whole-unit fixpoint.
  {
    MaoUnit Unit = parseOk(paperExample(4, false));
    UnitLayout Layout(Unit);
    expectMatchesReference(Unit, Layout, "after takeResult");
    Layout.insertBefore(Unit.labelMap().at(".LTAIL"),
                        MaoEntry::makeInstruction(makeNop(3)));
    const uint64_t Before = incrementalRelaxations();
    expectSpanMatchesReference(Unit, Layout, "after takeResult");
    EXPECT_EQ(incrementalRelaxations(), Before);
    // And resumes from the dirty span after that.
    Layout.insertBefore(Unit.labelMap().at(".LTAIL"),
                        MaoEntry::makeInstruction(makeNop(3)));
    expectSpanMatchesReference(Unit, Layout, "after takeResult");
    EXPECT_EQ(incrementalRelaxations(), Before + 1);
  }

  // From an all-rel8 layout, a NOP pushes a branch over the cliff: the
  // span's re-check sees it and the whole-unit fixpoint grows it. The
  // NOP goes between the branch and its target.
  for (bool Forward : {true, false}) {
    MaoUnit Unit = parseOk(
        Forward ? "\t.text\n\tjmp .LT\n\t.zero 127\n.LT:\n\tret\n"
                : "\t.text\n.LT:\n\t.zero 126\n\tjmp .LT\n");
    UnitLayout Layout(Unit);
    expectSpanMatchesReference(Unit, Layout, "cliff");
    ASSERT_EQ(findInsn(Unit, Mnemonic::JMP)->Size, 2u);
    const uint64_t Before = incrementalRelaxations();
    EntryIter Label = Unit.labelMap().at(".LT");
    Layout.insertBefore(Forward ? Label : std::next(Label),
                        MaoEntry::makeInstruction(makeNop(1)));
    expectSpanMatchesReference(Unit, Layout, "cliff");
    EXPECT_EQ(incrementalRelaxations(), Before);
    EXPECT_EQ(findInsn(Unit, Mnemonic::JMP)->Size, 5u);
  }
}


// --- gas as the oracle -------------------------------------------------------

/// A seeded random unit alone in section \p Section, for the gas oracle:
/// runs of 1- to 15-byte filler instructions, `.p2align` with and without
/// a max skip, `.balign`, and forward and backward `jmp`/`jcc` to the
/// unit's labels, some as `sym+N`, spread so that branches fall on both
/// sides of the rel8 reach.
std::string randomGasUnit(RandomSource &Rng, const std::string &Section) {
  static const char *const Fillers[] = {
      "nop", "addl $1, %eax", "imull $3, %eax, %eax", "movl $5, %ecx",
      "leaq 8(%rsp), %rdx", "addq $1000, %rax"};
  static const char *const Branches[] = {"jmp", "jne", "je", "jg", "jb"};
  const unsigned NumLabels = 2 + static_cast<unsigned>(Rng.nextBelow(6));
  const unsigned Items = 10 + static_cast<unsigned>(Rng.nextBelow(40));
  auto Label = [&](unsigned I) { return Section + "_L" + std::to_string(I); };
  std::string S = "\t.section " + Section + ",\"ax\",@progbits\n";
  unsigned Defined = 0;
  for (unsigned I = 0; I < Items; ++I) {
    if (Defined < NumLabels && Rng.nextChance(NumLabels, Items))
      S += Label(Defined++) + ":\n";
    switch (Rng.nextBelow(10)) {
    case 0:
    case 1:
      S += std::string("\t") + Branches[Rng.nextBelow(5)] + " " +
           Label(static_cast<unsigned>(Rng.nextBelow(NumLabels)));
      if (Rng.nextChance(1, 6))
        S += "+" + std::to_string(1 + Rng.nextBelow(3));
      S += "\n";
      break;
    case 2: {
      const unsigned Pow = 1 + static_cast<unsigned>(Rng.nextBelow(5));
      S += Rng.nextChance(1, 2) ? "\t.p2align " + std::to_string(Pow)
                                : "\t.balign " + std::to_string(1u << Pow);
      // A max skip from 1 up to past the boundary (where it never binds).
      if (Rng.nextChance(1, 2))
        S += ",," + std::to_string(1 + Rng.nextBelow((1u << Pow) + 2));
      S += "\n";
      break;
    }
    default:
      for (uint64_t N = 1 + Rng.nextBelow(4); N > 0; --N)
        S += Rng.nextChance(1, 4)
                 ? "\tnop" + std::to_string(2 + Rng.nextBelow(14)) + "\n"
                 : std::string("\t") + Fillers[Rng.nextBelow(6)] + "\n";
    }
  }
  while (Defined < NumLabels)
    S += Label(Defined++) + ":\n";
  return S + "\tret\n";
}

std::string hexOf(const std::vector<uint8_t> &Bytes) {
  std::string Hex;
  char Buf[4];
  for (uint8_t B : Bytes) {
    std::snprintf(Buf, sizeof(Buf), "%02x", B);
    Hex += Buf;
  }
  return Hex;
}

TEST(Relaxer, MatchesGasOnRandomUnits) {
  // Each unit is a section of its own, so one gas run checks a batch. Per
  // unit, MAO's bytes, label addresses and instruction addresses must be
  // the ones in gas's object.
  if (!haveBinutils())
    GTEST_SKIP() << "binutils not installed";
  constexpr unsigned Batches = 12, UnitsPerBatch = 50;
  RandomSource Rng(2011);
  unsigned Checked = 0, Grown = 0;
  for (unsigned B = 0; B < Batches; ++B) {
    std::map<std::string, std::string> Units;
    std::string Asm;
    for (unsigned U = 0; U < UnitsPerBatch; ++U) {
      const std::string Section = ".text.u" + std::to_string(U);
      Units[Section] = randomGasUnit(Rng, Section);
      Asm += Units[Section];
    }
    MaoUnit Unit = parseOk(Asm);
    const RelaxationResult Relax = relaxUnit(Unit);
    ASSERT_TRUE(Relax.Converged);
    std::map<std::string, std::vector<int64_t>> InsnAddresses;
    for (SectionInfo &Sec : Unit.sections())
      for (const MaoFunction::Range &R : Sec.Ranges)
        for (EntryIter It = R.Begin; It != R.End; ++It)
          if (It->isInstruction())
            InsnAddresses[Sec.Name].push_back(It->Address);
    for (const MaoEntry &E : Unit.entries())
      Grown += E.isInstruction() && E.instruction().BranchSize == 4;
    auto BytesOr = assembleUnit(Unit, Relax);
    ASSERT_TRUE(BytesOr.ok()) << BytesOr.message();

    std::map<std::string, GasSection> Gas;
    std::string Error;
    ASSERT_TRUE(assembleWithGas(gasDialect(Asm), Gas, &Error)) << Error;
    for (const auto &[Section, Text] : Units) {
      const GasSection &Want = Gas[Section];
      EXPECT_EQ(hexOf(BytesOr->at(Section)), Want.Hex) << Text;
      std::map<std::string, int64_t> Labels;
      for (const auto &[Name, Address] : Relax.sectionLabels(Section))
        Labels.emplace(Name, Address);
      EXPECT_EQ(Labels, Want.Labels) << Text;
      for (int64_t Address : InsnAddresses[Section])
        EXPECT_EQ(Want.InsnStarts.count(Address), 1u)
            << "no gas instruction at " << Address << " in\n"
            << Text;
      if (HasFailure())
        return;
      ++Checked;
    }
  }
  EXPECT_EQ(Checked, Batches * UnitsPerBatch);
  EXPECT_GT(Grown, 0u); // The units reach past rel8, not only within it.
}

} // namespace
