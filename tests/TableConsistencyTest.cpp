//===- tests/TableConsistencyTest.cpp - Opcode table vs emulator ---------------==//
//
// The opcode table (x86/Opcodes.def) declares, per mnemonic, which status
// flags it defines and uses. Everything downstream — dataflow liveness, the
// peephole passes, the linter, the semantic validator — trusts those masks.
// This test executes every modelled mnemonic in the architectural emulator
// and checks the declarations against observed behaviour:
//
//  * soundness of FlagsDef: a flag the execution changed must be declared
//    defined (the table may over-declare: ISA-"undefined" flags are
//    modelled as clobbered, and data-dependent flags need not change for
//    one specific input);
//  * soundness of FlagsUse: a flag whose initial value changes the
//    observable outcome (registers, xmm state, written flags) must be
//    declared used — for the condition-code families the per-CC flag set
//    (condCodeFlagsUsed) joins the table mask;
//  * coverage: every mnemonic in Opcodes.def except OPAQUE is executed;
//  * uniqueness: no two mnemonics share a name, so the parser's spelling
//    table maps each base name to exactly one mnemonic;
//  * the triangle: each straight-line sample also runs through the symbolic
//    evaluator (check/SymbolicEval) from the same constant inputs, and every
//    register and flag it folds to a constant must equal the emulator's
//    final state — table, emulator and evaluator agree.
//
//===----------------------------------------------------------------------===//

#include "asm/Parser.h"
#include "check/SymbolicEval.h"
#include "sim/Emulator.h"
#include "x86/Opcodes.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

using namespace mao;

namespace {

struct Sample {
  Mnemonic Mn;
  std::string Body; ///< Function body including the final ret.
};

/// One representative execution per mnemonic. Bodies set up their own
/// inputs (div avoids #DE, leave builds a frame first); scaffolding sticks
/// to flag-neutral instructions wherever the mnemonic under test writes
/// flags, so flag changes attribute to the right declaration.
std::vector<Sample> samples() {
  std::vector<Sample> S = {
      {Mnemonic::MOV, "\tmovq $123, %rax\n\tret\n"},
      {Mnemonic::MOVZX, "\tmovzbl %dil, %eax\n\tret\n"},
      {Mnemonic::MOVSX, "\tmovsbq %dil, %rax\n\tret\n"},
      {Mnemonic::LEA, "\tleaq 5(%rdi,%rsi,4), %rax\n\tret\n"},
      {Mnemonic::PUSH, "\tpushq %rdi\n\tpopq %rax\n\tret\n"},
      {Mnemonic::POP, "\tpushq %rsi\n\tpopq %rcx\n\tret\n"},
      {Mnemonic::XCHG, "\txchgq %rdi, %rsi\n\tret\n"},
      {Mnemonic::BSWAP, "\tbswapq %rdi\n\tret\n"},
      {Mnemonic::ADD, "\taddq %rsi, %rdi\n\tret\n"},
      {Mnemonic::OR, "\torq %rsi, %rdi\n\tret\n"},
      {Mnemonic::ADC, "\tadcq %rsi, %rdi\n\tret\n"},
      {Mnemonic::SBB, "\tsbbq %rsi, %rdi\n\tret\n"},
      {Mnemonic::AND, "\tandq %rsi, %rdi\n\tret\n"},
      {Mnemonic::SUB, "\tsubq %rsi, %rdi\n\tret\n"},
      {Mnemonic::XOR, "\txorq %rsi, %rdi\n\tret\n"},
      {Mnemonic::CMP, "\tcmpq %rsi, %rdi\n\tret\n"},
      {Mnemonic::TEST, "\ttestq %rsi, %rdi\n\tret\n"},
      {Mnemonic::NOT, "\tnotq %rdi\n\tret\n"},
      {Mnemonic::NEG, "\tnegq %rdi\n\tret\n"},
      {Mnemonic::INC, "\tincq %rdi\n\tret\n"},
      {Mnemonic::DEC, "\tdecq %rdi\n\tret\n"},
      {Mnemonic::IMUL, "\timulq %rsi, %rdi\n\tret\n"},
      {Mnemonic::MUL, "\tmulq %rsi\n\tret\n"},
      {Mnemonic::DIV,
       "\tmovq $0, %rdx\n\tmovq $1000, %rax\n\tdivq %rcx\n\tret\n"},
      {Mnemonic::IDIV,
       "\tmovq $0, %rdx\n\tmovq $1000, %rax\n\tidivq %rcx\n\tret\n"},
      {Mnemonic::SHL, "\tshlq $3, %rdi\n\tret\n"},
      {Mnemonic::SHR, "\tshrq $3, %rdi\n\tret\n"},
      {Mnemonic::SAR, "\tsarq $3, %rdi\n\tret\n"},
      {Mnemonic::ROL, "\trolq $3, %rdi\n\tret\n"},
      {Mnemonic::ROR, "\trorq $3, %rdi\n\tret\n"},
      {Mnemonic::JMP, "\tjmp .Lj\n.Lj:\n\tret\n"},
      {Mnemonic::CALL,
       "\tpushq %rbp\n\tcall .Lc\n\tpopq %rbp\n\tret\n.Lc:\n\tret\n"},
      {Mnemonic::RET, "\tret\n"},
      {Mnemonic::LEAVE,
       "\tpushq %rbp\n\tmovq %rsp, %rbp\n\tpushq %rax\n\tleave\n\tret\n"},
      {Mnemonic::CLTQ, "\tcltq\n\tret\n"},
      {Mnemonic::CWTL, "\tcwtl\n\tret\n"},
      {Mnemonic::CBTW, "\tcbtw\n\tret\n"},
      {Mnemonic::CLTD, "\tcltd\n\tret\n"},
      {Mnemonic::CQTO, "\tcqto\n\tret\n"},
      {Mnemonic::NOP, "\tnop\n\tret\n"},
      {Mnemonic::MOVSS, "\tmovss %xmm1, %xmm0\n\tret\n"},
      {Mnemonic::MOVSD, "\tmovsd %xmm1, %xmm0\n\tret\n"},
      {Mnemonic::MOVAPS, "\tmovaps %xmm2, %xmm3\n\tret\n"},
      {Mnemonic::MOVUPS, "\tmovups %xmm2, %xmm3\n\tret\n"},
      {Mnemonic::MOVD, "\tmovd %edi, %xmm0\n\tret\n"},
      {Mnemonic::MOVQX, "\tmovq %rdi, %xmm0\n\tret\n"},
      {Mnemonic::ADDSS, "\taddss %xmm1, %xmm0\n\tret\n"},
      {Mnemonic::ADDSD, "\taddsd %xmm1, %xmm0\n\tret\n"},
      {Mnemonic::SUBSS, "\tsubss %xmm1, %xmm0\n\tret\n"},
      {Mnemonic::SUBSD, "\tsubsd %xmm1, %xmm0\n\tret\n"},
      {Mnemonic::MULSS, "\tmulss %xmm1, %xmm0\n\tret\n"},
      {Mnemonic::MULSD, "\tmulsd %xmm1, %xmm0\n\tret\n"},
      {Mnemonic::DIVSS, "\tdivss %xmm1, %xmm0\n\tret\n"},
      {Mnemonic::DIVSD, "\tdivsd %xmm1, %xmm0\n\tret\n"},
      {Mnemonic::XORPS, "\txorps %xmm1, %xmm0\n\tret\n"},
      {Mnemonic::PXOR, "\tpxor %xmm1, %xmm0\n\tret\n"},
      {Mnemonic::UCOMISS, "\tucomiss %xmm1, %xmm0\n\tret\n"},
      {Mnemonic::UCOMISD, "\tucomisd %xmm1, %xmm0\n\tret\n"},
      {Mnemonic::PREFETCHNTA, "\tprefetchnta (%rsp)\n\tret\n"},
      {Mnemonic::PREFETCHT0, "\tprefetcht0 (%rsp)\n\tret\n"},
      {Mnemonic::PREFETCHT1, "\tprefetcht1 (%rsp)\n\tret\n"},
      {Mnemonic::PREFETCHT2, "\tprefetcht2 (%rsp)\n\tret\n"},
      {Mnemonic::CPUID, "\tcpuid\n\tret\n"},
      {Mnemonic::RDTSC, "\trdtsc\n\tret\n"},
  };
  // Shift/rotate variable-count forms read %cl; one representative.
  S.push_back({Mnemonic::SHL, "\tshlq %cl, %rdi\n\tret\n"});
  // Narrow widths, byte views and immediate forms, so the triangle below
  // sees each width-dependent flag and value rule at least once.
  S.push_back({Mnemonic::ADD, "\taddb %sil, %dil\n\tret\n"});
  S.push_back({Mnemonic::ADC, "\tadcw $-3, %di\n\tret\n"});
  S.push_back({Mnemonic::SBB, "\tsbbl %esi, %edi\n\tret\n"});
  S.push_back({Mnemonic::SUB, "\tsubb $0x7f, %ah\n\tret\n"});
  S.push_back({Mnemonic::NEG, "\tnegw %si\n\tret\n"});
  S.push_back({Mnemonic::INC, "\tincb %dil\n\tret\n"});
  S.push_back({Mnemonic::DEC, "\tdecl %esi\n\tret\n"});
  S.push_back({Mnemonic::IMUL, "\timull $-3, %esi, %eax\n\tret\n"});
  S.push_back({Mnemonic::IMUL, "\timulq %rsi\n\tret\n"});
  S.push_back({Mnemonic::MUL, "\tmull %esi\n\tret\n"});
  S.push_back({Mnemonic::MUL, "\tmulb %cl\n\tret\n"});
  S.push_back({Mnemonic::IMUL, "\timulb %sil\n\tret\n"});
  S.push_back({Mnemonic::DIV, "\tmovl $1000, %eax\n\tdivb %cl\n\tret\n"});
  S.push_back({Mnemonic::IDIV, "\tmovl $-100, %eax\n\tidivb %cl\n\tret\n"});
  S.push_back({Mnemonic::DIV, "\tmovl $0, %edx\n\tmovl $1000, %eax\n"
                              "\tdivl %ecx\n\tret\n"});
  S.push_back({Mnemonic::IDIV, "\tmovq $-1, %rdx\n\tmovq $-1000, %rax\n"
                               "\tidivq %rcx\n\tret\n"});
  S.push_back({Mnemonic::SHL, "\tshlb $3, %dil\n\tret\n"});
  S.push_back({Mnemonic::SHR, "\tshrw %di\n\tret\n"});
  S.push_back({Mnemonic::SAR, "\tsarl %cl, %esi\n\tret\n"});
  S.push_back({Mnemonic::ROL, "\trolw $8, %si\n\tret\n"});
  S.push_back({Mnemonic::ROR, "\trorb %cl, %dil\n\tret\n"});
  S.push_back({Mnemonic::BSWAP, "\tbswapl %esi\n\tret\n"});
  S.push_back({Mnemonic::MOVZX, "\tmovzwq %si, %rax\n\tret\n"});
  S.push_back({Mnemonic::MOVSX, "\tmovslq %esi, %rax\n\tret\n"});
  S.push_back({Mnemonic::MOV, "\tmovb %cl, %ah\n\tret\n"});
  S.push_back({Mnemonic::MOVD, "\tmovd %xmm2, %eax\n\tret\n"});
  // Condition-code families: every CC once.
  for (unsigned Enc = 0; Enc < 16; ++Enc) {
    const char *CC = condCodeName(static_cast<CondCode>(Enc));
    S.push_back({Mnemonic::SETCC,
                 "\tset" + std::string(CC) + " %al\n\tret\n"});
    S.push_back({Mnemonic::CMOVCC, "\tmovq $11, %rax\n\tmovq $22, %rcx\n"
                                   "\tcmov" +
                                       std::string(CC) +
                                       "q %rcx, %rax\n\tret\n"});
    S.push_back({Mnemonic::JCC, "\tmovq $1, %rax\n\tj" + std::string(CC) +
                                    " .Lt\n\tmovq $2, %rax\n.Lt:\n\tret\n"});
  }
  return S;
}

std::string wrap(const std::string &Body) {
  return "\t.text\n\t.globl\tf\n\t.type\tf, @function\nf:\n" + Body +
         "\t.size\tf, .-f\n";
}

/// Rich deterministic seed state: distinctive GPR values (rdx kept small so
/// the div samples don't fault) and valid double bit patterns in the xmm
/// registers.
MachineState seededState() {
  MachineState S;
  for (unsigned I = 0; I < NumGprSupers; ++I)
    S.Gpr[I] = 0x0123456789abcdefULL ^ (0x1111111111111111ULL * I);
  S.gpr(Reg::RDX) = 0;
  S.gpr(Reg::RCX) = 7; // div/idiv divisor; also a small shift count in %cl.
  for (unsigned I = 0; I < 16; ++I)
    S.XmmLo[I] = 0x3ff0000000000000ULL + 0x0010000000000000ULL * I;
  return S;
}

void setFlags(MachineState &S, uint8_t Mask) {
  S.CF = Mask & FlagCF;
  S.PF = Mask & FlagPF;
  S.AF = Mask & FlagAF;
  S.ZF = Mask & FlagZF;
  S.SF = Mask & FlagSF;
  S.OF = Mask & FlagOF;
}

uint8_t getFlags(const MachineState &S) {
  uint8_t Mask = 0;
  if (S.CF)
    Mask |= FlagCF;
  if (S.PF)
    Mask |= FlagPF;
  if (S.AF)
    Mask |= FlagAF;
  if (S.ZF)
    Mask |= FlagZF;
  if (S.SF)
    Mask |= FlagSF;
  if (S.OF)
    Mask |= FlagOF;
  return Mask;
}

struct PreparedSample {
  MaoUnit Unit;
  uint8_t DefUnion = 0; ///< Table FlagsDef over all executed instructions.
  uint8_t UseUnion = 0; ///< Table FlagsUse plus per-CC flags.
};

PreparedSample prepare(const Sample &Spec) {
  PreparedSample P;
  auto UnitOr = parseAssembly(wrap(Spec.Body));
  EXPECT_TRUE(UnitOr.ok()) << Spec.Body << ": " << UnitOr.message();
  P.Unit = std::move(*UnitOr);
  bool SawMnemonic = false;
  for (auto It = P.Unit.entries().begin(); It != P.Unit.entries().end(); ++It) {
    if (!It->isInstruction())
      continue;
    const Instruction &Insn = It->instruction();
    const OpcodeInfo &Info = opcodeInfo(Insn.Mn);
    P.DefUnion |= Info.FlagsDef & FlagsAllStatus;
    P.UseUnion |= Info.FlagsUse & FlagsAllStatus;
    if (Insn.CC != CondCode::None)
      P.UseUnion |= condCodeFlagsUsed(Insn.CC);
    if (Insn.Mn == Spec.Mn)
      SawMnemonic = true;
  }
  EXPECT_TRUE(SawMnemonic) << "sample body lost its mnemonic: " << Spec.Body;
  return P;
}

MachineState runSample(MaoUnit &Unit, const MachineState &Initial,
                       const std::string &Body) {
  Emulator Emu(Unit);
  EmulationResult Result = Emu.run("f", Initial);
  EXPECT_EQ(Result.Reason, StopReason::Returned)
      << Body << ": " << Result.Message;
  return Result.Final;
}

} // namespace

TEST(TableConsistency, FlagsDefIsSoundAndFlagsUseIsComplete) {
  for (const Sample &Spec : samples()) {
    SCOPED_TRACE(Spec.Body);
    PreparedSample P = prepare(Spec);

    // FlagsDef soundness, from both all-clear and all-set baselines: any
    // flag whose value changed must be declared defined.
    for (uint8_t Baseline : {uint8_t(0), FlagsAllStatus}) {
      MachineState Initial = seededState();
      setFlags(Initial, Baseline);
      MachineState Final = runSample(P.Unit, Initial, Spec.Body);
      uint8_t Changed = getFlags(Final) ^ Baseline;
      EXPECT_EQ(Changed & ~P.DefUnion, 0)
          << "undeclared flag write: " << flagMaskToString(Changed &
                                                           ~P.DefUnion);
    }

    // FlagsUse completeness: toggling a single input flag may only change
    // the outcome (registers, xmm state, and the flags the code writes)
    // when that flag is declared used.
    MachineState BaseInit = seededState();
    setFlags(BaseInit, 0);
    MachineState BaseFinal = runSample(P.Unit, BaseInit, Spec.Body);
    uint8_t AffectMask = 0;
    for (unsigned Pos = 0; Pos < 6; ++Pos) {
      uint8_t Bit = static_cast<uint8_t>(1u << Pos);
      MachineState Toggled = BaseInit;
      setFlags(Toggled, Bit);
      MachineState Final = runSample(P.Unit, Toggled, Spec.Body);
      bool Differs = Final.Gpr != BaseFinal.Gpr ||
                     Final.XmmLo != BaseFinal.XmmLo ||
                     ((getFlags(Final) ^ getFlags(BaseFinal)) & P.DefUnion);
      if (Differs)
        AffectMask |= Bit;
    }
    EXPECT_EQ(AffectMask & ~P.UseUnion, 0)
        << "undeclared flag read: "
        << flagMaskToString(AffectMask & ~P.UseUnion);

    // Non-vacuity for the flag consumers: each condition code family
    // sample must actually react to at least one of its declared flags.
    if (Spec.Mn == Mnemonic::SETCC || Spec.Mn == Mnemonic::CMOVCC ||
        Spec.Mn == Mnemonic::JCC)
      EXPECT_NE(AffectMask, 0) << "condition never reacted to its flags";
    if (Spec.Mn == Mnemonic::ADC || Spec.Mn == Mnemonic::SBB)
      EXPECT_NE(AffectMask & FlagCF, 0) << "carry input had no effect";
  }
}

namespace {

/// True when \p Unit's function is one block: no jump or call before the
/// final ret, so BlockEvaluator sees exactly what the emulator executes.
bool straightLine(const MaoUnit &Unit,
                  std::vector<const Instruction *> &Insns) {
  for (auto It = Unit.entries().begin(); It != Unit.entries().end(); ++It) {
    if (!It->isInstruction())
      continue;
    const Instruction &Insn = It->instruction();
    if (Insn.isCall() || Insn.isUncondJump() || Insn.isCondJump())
      return false;
    Insns.push_back(&Insn);
  }
  return true;
}

} // namespace

TEST(TableConsistency, EvaluatorFoldsToTheEmulatorsState) {
  static const char *const FlagNames[6] = {"CF", "PF", "AF",
                                           "ZF", "SF", "OF"};
  // Besides the table samples, forms whose flags pass through unchanged
  // (which the FlagsUse check above would count as reads): a shift count
  // that is zero, also through %cl, a rotate by a multiple of the width,
  // and an xmm-to-xmm movq.
  std::vector<Sample> Triangle = samples();
  Triangle.insert(
      Triangle.end(),
      {{Mnemonic::SHL, "\tshlq $0, %rdi\n\tret\n"},
       {Mnemonic::SHL, "\tmovb $0, %cl\n\tshlb %cl, %bl\n\tret\n"},
       {Mnemonic::ROR, "\tmovb $0, %cl\n\trorl %cl, %edi\n\tret\n"},
       {Mnemonic::SAR, "\tmovb $64, %cl\n\tsarq %cl, %rsi\n\tret\n"},
       {Mnemonic::ROL, "\trolw $16, %si\n\tret\n"},
       {Mnemonic::ROR, "\trorb $8, %dil\n\tret\n"},
       {Mnemonic::MOVQX, "\tmovq %xmm3, %xmm5\n\tret\n"}});
  const size_t TableSamples = samples().size();
  unsigned Compared = 0;
  for (size_t SI = 0; SI < Triangle.size(); ++SI) {
    const Sample &Spec = Triangle[SI];
    SCOPED_TRACE(Spec.Body);
    PreparedSample P = prepare(Spec);
    std::vector<const Instruction *> Insns;
    if (!straightLine(P.Unit, Insns))
      continue;

    // From symbolic inputs the evaluator writes exactly the flags the
    // table declares defined, undefined ones included.
    if (SI < TableSamples) {
      SymTable Table;
      BlockSummary Sum = BlockEvaluator(Table).evaluate(Insns);
      for (unsigned F = 0; F < NumStatusFlags; ++F)
        EXPECT_EQ(Sum.Flags[F] != Table.makeInitFlag(F),
                  ((P.DefUnion >> F) & 1) != 0)
            << FlagNames[F] << " written against the table";
    }
    for (uint8_t Baseline : {uint8_t(0), FlagsAllStatus}) {
      MachineState Initial = seededState();
      setFlags(Initial, Baseline);
      MachineState Final = runSample(P.Unit, Initial, Spec.Body);

      // The emulator enters f with its sentinel return address pushed and
      // its ret pops it; the evaluator stops at the ret.
      MachineState Entry = Initial;
      Entry.gpr(Reg::RSP) = Emulator::Config().StackBase - 8;
      SymTable Table;
      BlockEvaluator Eval(Table);
      for (unsigned I = 0; I < NumGprSupers; ++I)
        Eval.setInitialReg(I, Table.makeConst(Entry.Gpr[I]));
      for (unsigned I = 0; I < 16; ++I)
        Eval.setInitialReg(16 + I, Table.makeConst(Entry.XmmLo[I]));
      for (unsigned F = 0; F < NumStatusFlags; ++F)
        Eval.setInitialFlag(F, Table.makeConst((Baseline >> F) & 1));
      BlockSummary Sum = Eval.evaluate(Insns);
      ASSERT_TRUE(Sum.Supported) << Sum.UnsupportedWhy;
      ASSERT_EQ(Sum.Term.Kind, TermKind::Return);

      for (unsigned I = 0; I < NumDenseRegs; ++I) {
        const SymNode &N = Table.node(Sum.Regs[I]);
        if (!N.isConst())
          continue;
        ++Compared;
        uint64_t Want = I < 16 ? Final.Gpr[I] : Final.XmmLo[I - 16];
        if (I == gprSuperIndex(Reg::RSP))
          Want -= 8; // The emulator's ret.
        EXPECT_EQ(N.Value, Want) << "dense register " << I;
      }
      uint8_t EmuFlags = getFlags(Final);
      for (unsigned F = 0; F < NumStatusFlags; ++F) {
        const SymNode &N = Table.node(Sum.Flags[F]);
        if (!N.isConst())
          continue;
        ++Compared;
        EXPECT_EQ(N.Value, (EmuFlags >> F) & 1u)
            << FlagNames[F] << " from baseline " << int(Baseline);
      }
    }
  }
  EXPECT_GT(Compared, 1000u);
}

TEST(TableConsistency, EveryMnemonicIsCovered) {
  std::set<Mnemonic> Covered;
  for (const Sample &Spec : samples())
    Covered.insert(Spec.Mn);
  for (unsigned M = 1; M < static_cast<unsigned>(Mnemonic::NumMnemonics);
       ++M) {
    Mnemonic Mn = static_cast<Mnemonic>(M);
    if (Mn == Mnemonic::OPAQUE)
      continue; // Unmodelled by construction; the emulator rejects it.
    EXPECT_TRUE(Covered.count(Mn))
        << "no emulator sample for mnemonic " << opcodeInfo(Mn).Name;
  }
}

TEST(TableConsistency, OpcodeNamesAreUnique) {
  std::set<std::string> Seen;
  for (unsigned M = 0; M < static_cast<unsigned>(Mnemonic::NumMnemonics);
       ++M) {
    const std::string Name = opcodeInfo(static_cast<Mnemonic>(M)).Name;
    EXPECT_TRUE(Seen.insert(Name).second) << "duplicate opcode name " << Name;
  }
}
