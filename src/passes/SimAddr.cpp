//===- passes/SimAddr.cpp - Forward/backward address simulation --------------===//

#include "passes/SimAddr.h"

#include "pass/FunctionAnalyses.h"
#include "pass/MaoPass.h"

#include <algorithm>

using namespace mao;

std::optional<int64_t> mao::effectiveAddress(const Instruction &Insn,
                                             const RegSnapshot &Regs) {
  const Operand *Mem = Insn.memOperand();
  if (!Mem)
    return std::nullopt;
  const MemRef &M = Mem->Mem;
  if (Mem->hasSymDisp() || M.isRipRelative())
    return std::nullopt;
  int64_t Address = Mem->Imm;
  if (M.Base != Reg::None) {
    auto Base = Regs.get(M.Base);
    if (!Base)
      return std::nullopt;
    Address += *Base;
  }
  if (M.Index != Reg::None) {
    auto Index = Regs.get(M.Index);
    if (!Index)
      return std::nullopt;
    Address += *Index * M.Scale;
  }
  return Address;
}

namespace {

/// Applies \p Insn to \p Regs going forward. Registers written in ways the
/// simulator does not interpret become unknown.
void stepForward(const Instruction &Insn, RegSnapshot &Regs) {
  const InstructionEffects Fx = Insn.effects();

  // Interpreted forms first.
  if (Insn.Ops.size() == 2 && Insn.Ops[1].isReg() &&
      regIsGpr(Insn.Ops[1].R)) {
    const Reg Dst = Insn.Ops[1].R;
    const Operand &Src = Insn.Ops[0];
    switch (Insn.Mn) {
    case Mnemonic::MOV:
      if (Src.isConstImm()) {
        Regs.set(Dst, Src.Imm);
        return;
      }
      if (Src.isReg() && regIsGpr(Src.R)) {
        if (auto V = Regs.get(Src.R))
          Regs.set(Dst, *V);
        else
          Regs.invalidate(Dst);
        return;
      }
      break; // Loads: value unknown.
    case Mnemonic::ADD:
    case Mnemonic::SUB:
      if (Src.isConstImm()) {
        if (auto V = Regs.get(Dst)) {
          Regs.set(Dst, Insn.Mn == Mnemonic::ADD ? *V + Src.Imm
                                                 : *V - Src.Imm);
          return;
        }
      }
      break;
    case Mnemonic::LEA: {
      RegSnapshot Copy = Regs; // effectiveAddress reads the pre-state.
      if (auto A = effectiveAddress(Insn, Copy)) {
        Regs.set(Dst, *A);
        return;
      }
      break;
    }
    default:
      break;
    }
  }

  // Anything else: every register the instruction defines becomes unknown.
  for (unsigned I = 0; I < NumGprSupers; ++I)
    if (Fx.RegDefs & (1u << I))
      Regs.Gpr[I] = std::nullopt;
}

/// Un-applies \p Insn to \p Regs going backward: derives the register file
/// *before* the instruction from the one after it.
void stepBackward(const Instruction &Insn, RegSnapshot &Regs) {
  const InstructionEffects Fx = Insn.effects();

  if (Insn.Ops.size() == 2 && Insn.Ops[1].isReg() &&
      regIsGpr(Insn.Ops[1].R)) {
    const Reg Dst = Insn.Ops[1].R;
    const Operand &Src = Insn.Ops[0];
    switch (Insn.Mn) {
    case Mnemonic::ADD:
    case Mnemonic::SUB:
      // Reversible: before = after -/+ imm.
      if (Src.isConstImm()) {
        if (auto V = Regs.get(Dst)) {
          Regs.set(Dst, Insn.Mn == Mnemonic::ADD ? *V - Src.Imm
                                                 : *V + Src.Imm);
          return;
        }
      }
      break;
    case Mnemonic::MOV:
      if (Src.isReg() && regIsGpr(Src.R)) {
        // After the move both held the same value; before it, only the
        // source is known (dest's prior value is lost).
        auto V = Regs.get(Dst);
        Regs.invalidate(Dst);
        if (V)
          Regs.set(Src.R, *V);
        return;
      }
      break;
    default:
      break;
    }
  }

  // Irreversible definition: the register's prior value is unknown.
  for (unsigned I = 0; I < NumGprSupers; ++I)
    if (Fx.RegDefs & (1u << I))
      Regs.Gpr[I] = std::nullopt;
}

} // namespace

std::vector<RecoveredAddress>
mao::simulateAddresses(const BasicBlock &BB, size_t SampleIdx,
                       const RegSnapshot &Snapshot, unsigned Window) {
  std::vector<RecoveredAddress> Result;
  assert(SampleIdx < BB.Insns.size() && "sample index out of range");
  const size_t ForwardEnd =
      Window ? std::min(BB.Insns.size(), SampleIdx + Window + 1)
             : BB.Insns.size();
  const size_t BackwardEnd =
      Window && SampleIdx > Window ? SampleIdx - Window : 0;

  // The sampled instruction itself.
  {
    const Instruction &Insn = std::as_const(*BB.Insns[SampleIdx]).instruction();
    if (auto A = effectiveAddress(Insn, Snapshot))
      Result.push_back({&*BB.Insns[SampleIdx], *A, true});
  }

  // Forward simulation: apply the sampled instruction, then walk down.
  {
    RegSnapshot Regs = Snapshot;
    for (size_t I = SampleIdx; I < ForwardEnd; ++I) {
      const Instruction &Insn = std::as_const(*BB.Insns[I]).instruction();
      if (I != SampleIdx) {
        if (BB.Insns[I]->effects().Barrier)
          break;
        if (auto A = effectiveAddress(Insn, Regs))
          Result.push_back({&*BB.Insns[I], *A, false});
      }
      stepForward(Insn, Regs);
    }
  }

  // Backward simulation: walk up, un-applying instructions; at each prior
  // instruction the derived register file is its entry state, which is
  // what its address computation used.
  {
    RegSnapshot Regs = Snapshot;
    for (size_t I = SampleIdx; I-- > BackwardEnd;) {
      const Instruction &Insn = std::as_const(*BB.Insns[I]).instruction();
      if (BB.Insns[I]->effects().Barrier)
        break;
      stepBackward(Insn, Regs);
      if (auto A = effectiveAddress(Insn, Regs))
        Result.push_back({&*BB.Insns[I], *A, false});
    }
  }
  return Result;
}

namespace {

using namespace mao;

/// SIMADDR pass: reports, for synthetic full-register samples on every
/// instruction, how many additional addresses simulation recovers — the
/// multiplication factor the paper quotes as 4.1x-6.3x.
class SimAddrPass : public MaoFunctionPass {
public:
  SimAddrPass(const MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : MaoFunctionPass("SIMADDR", Options, Unit, Fn) {}

  bool go() override {
    const CFG &Graph = keptCFG(function());
    size_t Sampled = 0, Recovered = 0;
    RegSnapshot Snapshot;
    for (unsigned I = 0; I < NumGprSupers; ++I)
      Snapshot.Gpr[I] = 0x10000 + 0x1000 * I; // Synthetic register file.
    for (const BasicBlock &BB : Graph.blocks()) {
      for (size_t I = 0; I < BB.Insns.size(); ++I) {
        if (!std::as_const(*BB.Insns[I]).instruction().memOperand())
          continue;
        auto Addresses = simulateAddresses(BB, I, Snapshot);
        size_t FromSample = 0;
        for (const RecoveredAddress &A : Addresses)
          FromSample += A.FromSample ? 1 : 0;
        if (FromSample == 0)
          continue;
        ++Sampled;
        Recovered += Addresses.size();
        countTransformation(
            static_cast<unsigned>(Addresses.size() - FromSample));
      }
    }
    if (Sampled > 0)
      trace(0, "func %s: %zu samples -> %zu addresses (%.1fx)",
            function().name().c_str(), Sampled, Recovered,
            static_cast<double>(Recovered) / static_cast<double>(Sampled));
    return true;
  }
};

REGISTER_SHARDED_FUNC_PASS("SIMADDR", SimAddrPass)

} // namespace

namespace mao {
void linkSimAddrPass() {}
} // namespace mao
