//===- passes/ScalarPasses.cpp - Scalar optimizations ------------------------===//
///
/// \file
/// The standard scalar optimizations of paper Sec. III-D: "we added a few
/// scalar optimizations as well, e.g., for unreachable code elimination and
/// constant folding. There is typically not much opportunity left in
/// compiler generated output files", but they make MAO useful below simple
/// code generators.
///
///   DCE       - removes instructions in CFG-unreachable basic blocks
///   CONSTFOLD - folds `mov $A, r ; op $B, r` into a single constant move
///
//===----------------------------------------------------------------------===//

#include "pass/MaoPass.h"
#include "passes/PassUtil.h"

using namespace mao;

namespace {

//===----------------------------------------------------------------------===//
// DCE: unreachable code elimination.
//===----------------------------------------------------------------------===//

class UnreachableCodeElimPass : public MaoFunctionPass {
public:
  UnreachableCodeElimPass(const MaoOptionMap *Options, MaoUnit *Unit,
                          MaoFunction *Fn)
      : MaoFunctionPass("DCE", Options, Unit, Fn) {}

  bool go() override {
    const CFG &Graph = keptCFG(function());
    // With unresolved indirect control flow any block may be a target:
    // the pass "decides whether or not to proceed" (paper Sec. II) - here,
    // it declines.
    if (function().HasUnresolvedIndirect) {
      reportUnresolvedSkip();
      return true;
    }

    std::vector<bool> Reachable(Graph.blocks().size(), false);
    std::vector<unsigned> Work = {0};
    while (!Work.empty()) {
      unsigned B = Work.back();
      Work.pop_back();
      if (Reachable[B])
        continue;
      Reachable[B] = true;
      for (unsigned S : Graph.blocks()[B].Succs)
        Work.push_back(S);
    }

    for (const BasicBlock &BB : Graph.blocks()) {
      if (Reachable[BB.Index])
        continue;
      for (EntryIter InsnIt : BB.Insns) {
        trace(1, "removing unreachable: %s",
              std::as_const(*InsnIt).instruction().toString().c_str());
        unit().erase(InsnIt);
        countTransformation();
      }
    }
    return true;
  }
};

REGISTER_SHARDED_FUNC_PASS("DCE", UnreachableCodeElimPass)

//===----------------------------------------------------------------------===//
// CONSTFOLD: constant folding into register moves.
//===----------------------------------------------------------------------===//

class ConstantFoldPass : public MaoFunctionPass {
public:
  ConstantFoldPass(const MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : MaoFunctionPass("CONSTFOLD", Options, Unit, Fn) {}

  bool go() override {
    const LivenessResult &Liveness = keptLiveness(function());
    const CFG &Graph = keptCFG(function());
    std::vector<EntryIter> Insns; // Erased from as the unit is.
    for (const BasicBlock &BB : Graph.blocks()) {
      InsnLiveness IL = perInstructionLiveness(Graph, BB.Index, Liveness);
      Insns.assign(BB.Insns.begin(), BB.Insns.end());
      for (size_t I = 0; I + 1 < Insns.size(); ++I) {
        const Instruction &MovInsn = std::as_const(*Insns[I]).instruction();
        const Instruction &OpInsn = std::as_const(*Insns[I + 1]).instruction();
        if (!isConstMove(MovInsn))
          continue;
        const Reg R = MovInsn.Ops[1].R;
        if (!isFoldableImmOp(OpInsn, R) || OpInsn.W != MovInsn.W)
          continue;
        // The ALU flags must be dead: the folded move sets none.
        if (IL.FlagsLiveAfter[I + 1] & FlagsAllStatus)
          continue;
        int64_t Folded = apply(OpInsn.Mn, MovInsn.Ops[0].Imm,
                               OpInsn.Ops[0].Imm, MovInsn.W);
        trace(1, "folding '%s ; %s' -> mov $%lld",
              MovInsn.toString().c_str(), OpInsn.toString().c_str(),
              static_cast<long long>(Folded));
        Insns[I]->instruction().Ops[0] = Operand::makeImm(Folded);
        unit().erase(Insns[I + 1]);
        Insns.erase(Insns.begin() + static_cast<long>(I + 1));
        IL.RegLiveAfter.erase(IL.RegLiveAfter.begin() +
                              static_cast<long>(I + 1));
        IL.FlagsLiveAfter.erase(IL.FlagsLiveAfter.begin() +
                                static_cast<long>(I + 1));
        countTransformation();
        --I; // The fold may enable another fold with the next instruction.
      }
    }
    return true;
  }

private:
  static bool isConstMove(const Instruction &Insn) {
    return Insn.Mn == Mnemonic::MOV && Insn.Ops.size() == 2 &&
           Insn.Ops[0].isConstImm() && Insn.Ops[1].isReg() &&
           (Insn.W == Width::L || Insn.W == Width::Q);
  }

  static bool isFoldableImmOp(const Instruction &Insn, Reg R) {
    switch (Insn.Mn) {
    case Mnemonic::ADD:
    case Mnemonic::SUB:
    case Mnemonic::AND:
    case Mnemonic::OR:
    case Mnemonic::XOR:
      break;
    default:
      return false;
    }
    return Insn.Ops.size() == 2 && Insn.Ops[0].isConstImm() &&
           Insn.Ops[1].isReg() && Insn.Ops[1].R == R;
  }

  static int64_t apply(Mnemonic Mn, int64_t A, int64_t B, Width W) {
    int64_t Result;
    switch (Mn) {
    case Mnemonic::ADD:
      Result = A + B;
      break;
    case Mnemonic::SUB:
      Result = A - B;
      break;
    case Mnemonic::AND:
      Result = A & B;
      break;
    case Mnemonic::OR:
      Result = A | B;
      break;
    case Mnemonic::XOR:
      Result = A ^ B;
      break;
    default:
      assert(false && "unexpected foldable op");
      return 0;
    }
    if (W == Width::L)
      Result = static_cast<int64_t>(static_cast<int32_t>(Result));
    return Result;
  }
};

REGISTER_SHARDED_FUNC_PASS("CONSTFOLD", ConstantFoldPass)

} // namespace

namespace mao {
void linkScalarPasses() {}
} // namespace mao
