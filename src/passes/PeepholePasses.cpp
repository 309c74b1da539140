//===- passes/PeepholePasses.cpp - Pattern-matching peepholes ---------------===//
///
/// \file
/// The pattern-matching passes of paper Sec. III-B. They "try to cleanup
/// redundant or bad code sequences which typically come from weaknesses or
/// deficiencies in the compiler":
///
///   ZEE     - redundant zero extension:    andl $255,%eax ; mov %eax,%eax
///   REDTEST - redundant test instructions: subl $16,%r15d ; testl %r15d,%r15d
///   REDMOV  - redundant memory access:     movq 24(%rsp),%rdx ; movq 24(%rsp),%rcx
///   ADDADD  - add/add sequences:           add $I1,rX ; ... ; add $I2,rX
///   SYNTH   - superoptimizer-synthesized window rewrites (mao --synth)
///
/// The first four are hand-written matchers. SYNTH runs every row of the
/// active rule table (PeepholeEngine.h) through the window matcher and
/// adds each rule's applications to its `peep.fire.<rule>` counter once
/// per function. Each pass traces its rewrites at level 1.
///
//===----------------------------------------------------------------------===//

#include "pass/MaoPass.h"
#include "passes/PassUtil.h"
#include "passes/PeepholeEngine.h"
#include "support/Stats.h"

#include <utility>

using namespace mao;

namespace {

/// A block's instructions as a pass edits them: the matchers erase from
/// this copy as they erase from the unit, so later scans never see an
/// erased entry. The kept CFG itself is refreshed on its next use.
using BlockInsns = std::vector<EntryIter>;

/// Erases Insns[I] from the unit and from \p Insns.
void eraseAt(MaoUnit &Unit, BlockInsns &Insns, size_t I) {
  Unit.erase(Insns[I]);
  Insns.erase(Insns.begin() + static_cast<long>(I));
}

/// Traces one rewrite at level 1, rendering \p At only when someone
/// listens.
void traceFire(const MaoPass &Pass, const char *What, const Instruction &At) {
  if (Pass.traceLevel() >= 1)
    Pass.trace(1, "%s fired at: %s", What, At.toString().c_str());
}

//===----------------------------------------------------------------------===//
// ZEE: redundant zero extension.
//===----------------------------------------------------------------------===//

bool isSelfMove32(const Instruction &Insn) {
  return Insn.Mn == Mnemonic::MOV && Insn.W == Width::L &&
         Insn.Ops.size() == 2 && Insn.Ops[0].isReg() && Insn.Ops[1].isReg() &&
         Insn.Ops[0].R == Insn.Ops[1].R;
}

/// Scans backward for the nearest definition of \p R; true when it is a
/// 32-bit GPR write (which zero-extends) with no barrier in between.
bool precedingDefZeroExtends(const BlockInsns &Insns, size_t MovIdx, Reg R) {
  const RegMask Bit = regMaskBit(R);
  for (size_t I = MovIdx; I-- > 0;) {
    const Instruction &Prev = std::as_const(*Insns[I]).instruction();
    const InstructionEffects Fx = Insns[I]->effects();
    if (Fx.Barrier)
      return false;
    if (!(Fx.RegDefs & Bit))
      continue;
    // Found the def: it must be an explicit 32-bit register write.
    Reg Dst = plainRegDest(Prev);
    return Dst != Reg::None && superReg(Dst) == superReg(R) &&
           regWidth(Dst) == Width::L && !Fx.MemWrite;
  }
  return false; // Def not in this block: value may have set high bits.
}

/// ZEE: removes `movl %rX, %rX` (a zero-extension idiom) when the
/// preceding definition of %rX in the same block is a 32-bit operation.
class ZeroExtentElimPass : public MaoFunctionPass {
public:
  ZeroExtentElimPass(MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : MaoFunctionPass("ZEE", Options, Unit, Fn) {}

  bool go() override {
    BlockInsns Insns;
    for (const BasicBlock &BB : keptCFG(function()).blocks()) {
      Insns.assign(BB.Insns.begin(), BB.Insns.end());
      for (size_t I = 0; I < Insns.size(); ++I) {
        const Instruction &Insn = std::as_const(*Insns[I]).instruction();
        if (!isSelfMove32(Insn) ||
            !precedingDefZeroExtends(Insns, I, Insn.Ops[0].R))
          continue;
        traceFire(*this, "zero extension", Insn);
        eraseAt(unit(), Insns, I--);
        countTransformation();
      }
    }
    return true;
  }
};

REGISTER_SHARDED_FUNC_PASS("ZEE", ZeroExtentElimPass)

//===----------------------------------------------------------------------===//
// REDTEST: redundant test instructions.
//===----------------------------------------------------------------------===//

bool isSelfTest(const Instruction &Insn) {
  return Insn.Mn == Mnemonic::TEST && Insn.Ops.size() == 2 &&
         Insn.Ops[0].isReg() && Insn.Ops[1].isReg() &&
         Insn.Ops[0].R == Insn.Ops[1].R;
}

/// Scans backward from the test: the nearest flag-writing instruction
/// must be a result-flag ALU op into the tested register, same width,
/// with no intervening redefinition of the register.
bool precedingAluSetsSameFlags(const BlockInsns &Insns, size_t TestIdx,
                               const Instruction &Test) {
  const Reg Tested = Test.Ops[0].R;
  const RegMask Bit = regMaskBit(Tested);
  for (size_t I = TestIdx; I-- > 0;) {
    const Instruction &Prev = std::as_const(*Insns[I]).instruction();
    const InstructionEffects Fx = Insns[I]->effects();
    if (Fx.Barrier)
      return false;
    if (Fx.FlagsDef) {
      if (!flagsReflectResult(Prev.Mn))
        return false;
      Reg Dst = plainRegDest(Prev);
      return Dst == Tested && Prev.W == Test.W;
    }
    if (Fx.RegDefs & Bit)
      return false; // Register changed after the flags were set.
  }
  return false;
}

/// REDTEST: removes `test %r, %r` when the preceding flag-writing
/// instruction is an ALU operation whose result landed in %r, and no
/// later reader needs a flag other than ZF, SF or PF.
class RedundantTestElimPass : public MaoFunctionPass {
public:
  RedundantTestElimPass(MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : MaoFunctionPass("REDTEST", Options, Unit, Fn) {}

  bool go() override {
    const LivenessResult &Liveness = keptLiveness(function());
    const CFG &Graph = keptCFG(function());
    BlockInsns Insns;
    for (const BasicBlock &BB : Graph.blocks()) {
      InsnLiveness IL = perInstructionLiveness(Graph, BB.Index, Liveness);
      Insns.assign(BB.Insns.begin(), BB.Insns.end());
      for (size_t I = 0; I < Insns.size(); ++I) {
        const Instruction &Insn = std::as_const(*Insns[I]).instruction();
        if (!isSelfTest(Insn))
          continue;
        const uint8_t SafeFlags = FlagZF | FlagSF | FlagPF;
        if (IL.FlagsLiveAfter[I] & ~SafeFlags)
          continue;
        if (!precedingAluSetsSameFlags(Insns, I, Insn))
          continue;
        traceFire(*this, "redundant test", Insn);
        IL.RegLiveAfter.erase(IL.RegLiveAfter.begin() + static_cast<long>(I));
        IL.FlagsLiveAfter.erase(IL.FlagsLiveAfter.begin() +
                                static_cast<long>(I));
        eraseAt(unit(), Insns, I--);
        countTransformation();
      }
    }
    return true;
  }
};

REGISTER_SHARDED_FUNC_PASS("REDTEST", RedundantTestElimPass)

//===----------------------------------------------------------------------===//
// REDMOV: redundant memory access.
//===----------------------------------------------------------------------===//

/// `mov mem, %gpr` of 32- or 64-bit width (narrow widths merge and are
/// not worth the pattern).
bool isRegLoad(const Instruction &Insn) {
  return Insn.Mn == Mnemonic::MOV && Insn.Ops.size() == 2 &&
         Insn.Ops[0].isMem() && Insn.Ops[1].isReg() &&
         regIsGpr(Insn.Ops[1].R) &&
         (Insn.W == Width::L || Insn.W == Width::Q) &&
         !Insn.Ops[0].Mem.isRipRelative();
}

/// REDMOV: rewrites the second of two identical loads to a register move.
class RedundantMemMovePass : public MaoFunctionPass {
public:
  RedundantMemMovePass(MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : MaoFunctionPass("REDMOV", Options, Unit, Fn) {}

  bool go() override {
    for (const BasicBlock &BB : keptCFG(function()).blocks()) {
      // Track the most recent load: (address, width) -> value register.
      struct LastLoad {
        bool Valid = false;
        /// The recorded load's memory operand: the whole operand, so a
        /// match sees displacement and symbol as well as the registers.
        /// Only the current instruction is ever rewritten, so it stays put.
        const Operand *Addr = nullptr;
        Width W = Width::None;
        Reg Value = Reg::None;
      } Last;

      for (EntryIter InsnIt : BB.Insns) {
        // Read through a const view so unchanged instructions keep their
        // length memos; only a rewrite takes the mutable accessor.
        const Instruction &Insn = std::as_const(*InsnIt).instruction();
        const InstructionEffects Fx = InsnIt->effects();

        if (Last.Valid && isRegLoad(Insn) && Insn.W == Last.W &&
            Insn.Ops[0] == *Last.Addr &&
            superReg(Insn.Ops[1].R) != superReg(Last.Value)) {
          traceFire(*this, "repeated load", Insn);
          InsnIt->instruction().Ops[0] =
              Operand::makeReg(gprWithWidth(superReg(Last.Value), Insn.W));
          countTransformation();
          // The destination now holds the same value: it can forward too.
          Last.Value = Insn.Ops[1].R;
          continue;
        }

        // Invalidate on anything that could change the address registers,
        // the cached value register, or memory.
        if (Last.Valid) {
          RegMask Watched = regMaskBit(Last.Addr->Mem.Base) |
                            regMaskBit(Last.Addr->Mem.Index) |
                            regMaskBit(Last.Value);
          if (Fx.MemWrite || Fx.Barrier || (Fx.RegDefs & Watched))
            Last.Valid = false;
        }
        if (isRegLoad(Insn)) {
          // A load overwritten by itself (same dest as an address reg) is
          // not cacheable.
          const MemRef &M = Insn.Ops[0].Mem;
          Reg Dst = Insn.Ops[1].R;
          if (superReg(Dst) != superReg(M.Base) &&
              (M.Index == Reg::None || superReg(Dst) != superReg(M.Index))) {
            Last.Valid = true;
            Last.Addr = &Insn.Ops[0];
            Last.W = Insn.W;
            Last.Value = Dst;
          }
        }
      }
    }
    return true;
  }
};

REGISTER_SHARDED_FUNC_PASS("REDMOV", RedundantMemMovePass)

//===----------------------------------------------------------------------===//
// ADDADD: add/add sequences.
//===----------------------------------------------------------------------===//

bool isImmAddSub(const Instruction &Insn) {
  return (Insn.Mn == Mnemonic::ADD || Insn.Mn == Mnemonic::SUB) &&
         Insn.Ops.size() == 2 && Insn.Ops[0].isConstImm() &&
         Insn.Ops[1].isReg() && (Insn.W == Width::L || Insn.W == Width::Q);
}

int64_t signedDelta(const Instruction &Insn) {
  return Insn.Mn == Mnemonic::ADD ? Insn.Ops[0].Imm : -Insn.Ops[0].Imm;
}

/// Returns the index of a second add/sub on the same register that can be
/// folded into instruction \p I, or 0 when none.
size_t findFoldablePartner(const BlockInsns &Insns, size_t I,
                           const InsnLiveness &IL) {
  const Instruction &First = std::as_const(*Insns[I]).instruction();
  if (!isImmAddSub(First))
    return 0;
  const Reg RX = First.Ops[1].R;
  const RegMask Bit = regMaskBit(RX);
  for (size_t J = I + 1; J < Insns.size(); ++J) {
    const Instruction &Next = std::as_const(*Insns[J]).instruction();
    const InstructionEffects Fx = Insns[J]->effects();
    if (isImmAddSub(Next) && Next.Ops[1].R == RX && Next.W == First.W) {
      // CF/OF of the folded op can differ from the original sequence;
      // only fold when downstream consumers look at ZF/SF/PF at most.
      const uint8_t SafeFlags = FlagZF | FlagSF | FlagPF;
      if (IL.FlagsLiveAfter[J] & ~SafeFlags)
        return 0;
      return J;
    }
    if (Fx.Barrier)
      return 0;
    if ((Fx.RegDefs | Fx.RegUses) & Bit)
      return 0; // rX redefined or consumed in between.
    if (Fx.FlagsUse)
      return 0; // Someone reads the first op's flags.
    if (Fx.FlagsDef)
      return 0; // Conservative: keep the flag chain simple.
  }
  return 0;
}

/// ADDADD: folds `add/sub $I1, rX ; ... ; add/sub $I2, rX` pairs into the
/// second instruction.
class AddAddElimPass : public MaoFunctionPass {
public:
  AddAddElimPass(MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : MaoFunctionPass("ADDADD", Options, Unit, Fn) {}

  bool go() override {
    const LivenessResult &Liveness = keptLiveness(function());
    BlockInsns Insns;
    for (const BasicBlock &BB : keptCFG(function()).blocks()) {
      Insns.assign(BB.Insns.begin(), BB.Insns.end());
      // Each fold shifts the indices and the liveness; rescan the block.
      while (foldFirstPair(Insns, perInstructionLiveness(Insns, Liveness,
                                                         BB.Index)))
        countTransformation();
    }
    return true;
  }

private:
  bool foldFirstPair(BlockInsns &Insns, const InsnLiveness &IL) {
    for (size_t I = 0; I + 1 < Insns.size(); ++I) {
      const size_t J = findFoldablePartner(Insns, I, IL);
      if (J == 0)
        continue;
      const Instruction &First = std::as_const(*Insns[I]).instruction();
      Instruction &Second = Insns[J]->instruction();
      const int64_t Net = signedDelta(First) + signedDelta(Second);
      traceFire(*this, "add/add", First);
      Second.Mn = Net >= 0 ? Mnemonic::ADD : Mnemonic::SUB;
      Second.Ops[0] = Operand::makeImm(Net >= 0 ? Net : -Net);
      eraseAt(unit(), Insns, I);
      return true;
    }
    return false;
  }
};

REGISTER_SHARDED_FUNC_PASS("ADDADD", AddAddElimPass)

//===----------------------------------------------------------------------===//
// SYNTH: the synthesized window rules.
//===----------------------------------------------------------------------===//

/// SYNTH: applies every rule of the active table. Not in the default
/// pipeline; enable with --mao-passes=SYNTH (or the tuner's
/// --tune-synth-axis), and swap the table with --synth-rules=FILE.
class SynthRulesPass : public MaoFunctionPass {
public:
  SynthRulesPass(MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : MaoFunctionPass("SYNTH", Options, Unit, Fn) {}

  bool go() override {
    BlockInsns Insns;
    std::array<Reg, MaxRuleVars> Bind{};
    for (const PeepholeRule &R : activePeepholeRules()) {
      unsigned Fired = 0;
      const LivenessResult &Liveness = keptLiveness(function());
      for (const BasicBlock &BB : keptCFG(function()).blocks()) {
        Insns.assign(BB.Insns.begin(), BB.Insns.end());
        // Each rewrite shifts the indices and the liveness; rescan.
        size_t I = 0;
        while ((I = findWindow(R, Insns, Liveness, BB.Index, Bind)) <
               Insns.size()) {
          traceFire(*this, R.Name.c_str(),
                    std::as_const(*Insns[I]).instruction());
          applyWindow(unit(), R, Insns, I, Bind);
          ++Fired;
        }
      }
      if (Fired)
        StatsRegistry::instance().counter("peep.fire." + R.Name).add(Fired);
      countTransformation(Fired);
    }
    return true;
  }
};

REGISTER_SHARDED_FUNC_PASS("SYNTH", SynthRulesPass)

} // namespace

namespace mao {
void linkPeepholePasses() {}
} // namespace mao
