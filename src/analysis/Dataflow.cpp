//===- analysis/Dataflow.cpp - Simple dataflow apparatus ---------------------==//

#include "analysis/Dataflow.h"

#include <algorithm>
#include <cassert>
#include <utility>

using namespace mao;

namespace {

/// True when \p BB ends the function conservatively: a tail jump to a label
/// outside the function or an unresolved indirect jump (no successors
/// despite not returning).
bool exitsConservatively(const CFG &G, const BasicBlock &BB) {
  if (BB.empty())
    return BB.Succs.empty() && BB.Index + 1 >= G.blocks().size();
  const Instruction &Last = BB.lastInstruction();
  if (Last.isReturn())
    return false; // Handled with the precise return mask.
  if (Last.isUncondJump() && BB.Succs.empty())
    return true; // Tail jump out of the function / unresolved indirect.
  if (!Last.endsStraightLine() && BB.Succs.empty())
    return true; // Falls off the end of the function body.
  return false;
}

} // namespace

LivenessResult mao::computeLiveness(const CFG &G) {
  const std::vector<BasicBlock> &Blocks = G.blocks();
  const size_t N = Blocks.size();
  LivenessResult R;
  R.RegLiveIn.assign(N, 0);
  R.RegLiveOut.assign(N, 0);
  R.FlagsLiveIn.assign(N, 0);
  R.FlagsLiveOut.assign(N, 0);

  // Precompute per-block gen (upward-exposed uses) and kill (defs).
  std::vector<RegMask> UseMask(N, 0), DefMask(N, 0);
  std::vector<uint8_t> FUse(N, 0), FDef(N, 0);
  for (size_t B = 0; B < N; ++B) {
    RegMask LiveUse = 0, Defined = 0;
    uint8_t FlagUse = 0, FlagDef = 0;
    for (EntryIter It : Blocks[B].Insns) {
      const InstructionEffects Fx = std::as_const(*It).instruction().effects();
      LiveUse |= Fx.RegUses & ~Defined;
      FlagUse |= Fx.FlagsUse & ~FlagDef;
      Defined |= Fx.RegDefs;
      FlagDef |= Fx.FlagsDef;
    }
    UseMask[B] = LiveUse;
    DefMask[B] = Defined;
    FUse[B] = FlagUse;
    FDef[B] = FlagDef;
  }

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t BI = N; BI-- > 0;) {
      const BasicBlock &BB = Blocks[BI];
      RegMask Out = 0;
      uint8_t FOut = 0;
      for (unsigned S : BB.Succs) {
        Out |= R.RegLiveIn[S];
        FOut |= R.FlagsLiveIn[S];
      }
      if (!BB.empty() && BB.lastInstruction().isReturn()) {
        Out |= RetUsedMask;
      } else if (exitsConservatively(G, BB)) {
        Out = ~RegMask(0);
        FOut = FlagsAllStatus | FlagDF;
      }
      RegMask NewIn = UseMask[BI] | (Out & ~DefMask[BI]);
      uint8_t NewFIn =
          static_cast<uint8_t>(FUse[BI] | (FOut & ~FDef[BI]));
      if (Out != R.RegLiveOut[BI] || NewIn != R.RegLiveIn[BI] ||
          FOut != R.FlagsLiveOut[BI] || NewFIn != R.FlagsLiveIn[BI]) {
        R.RegLiveOut[BI] = Out;
        R.RegLiveIn[BI] = NewIn;
        R.FlagsLiveOut[BI] = FOut;
        R.FlagsLiveIn[BI] = NewFIn;
        Changed = true;
      }
    }
  }
  return R;
}

InsnLiveness mao::perInstructionLiveness(const CFG &G, unsigned Block,
                                         const LivenessResult &Live) {
  const BasicBlock &BB = G.blocks()[Block];
  const size_t N = BB.Insns.size();
  InsnLiveness R;
  R.RegLiveAfter.assign(N, 0);
  R.FlagsLiveAfter.assign(N, 0);
  RegMask Cur = Live.RegLiveOut[Block];
  uint8_t FCur = Live.FlagsLiveOut[Block];
  for (size_t I = N; I-- > 0;) {
    R.RegLiveAfter[I] = Cur;
    R.FlagsLiveAfter[I] = FCur;
    const InstructionEffects Fx =
        std::as_const(*BB.Insns[I]).instruction().effects();
    Cur = (Cur & ~Fx.RegDefs) | Fx.RegUses;
    FCur = static_cast<uint8_t>((FCur & ~Fx.FlagsDef) | Fx.FlagsUse);
  }
  return R;
}

ReachingDefs ReachingDefs::compute(const CFG &G) {
  ReachingDefs R;
  const std::vector<BasicBlock> &Blocks = G.blocks();
  const size_t N = Blocks.size();

  // Enumerate definitions.
  std::vector<std::vector<unsigned>> DefsInBlock(N);
  for (unsigned B = 0; B < N; ++B) {
    for (unsigned I = 0, E = static_cast<unsigned>(Blocks[B].Insns.size());
         I != E; ++I) {
      const InstructionEffects Fx =
          std::as_const(*Blocks[B].Insns[I]).instruction().effects();
      if (!Fx.RegDefs)
        continue;
      DefsInBlock[B].push_back(static_cast<unsigned>(R.AllDefs.size()));
      R.AllDefs.push_back({B, I, Blocks[B].Insns[I], Fx.RegDefs});
    }
  }

  const size_t D = R.AllDefs.size();
  R.Words = (D + 63) / 64;
  auto SetBit = [&](std::vector<BitWord> &V, size_t Bit) {
    V[Bit / 64] |= BitWord(1) << (Bit % 64);
  };

  // Per-block Gen/Kill.
  std::vector<std::vector<BitWord>> Gen(N), Kill(N), Out(N);
  R.In.assign(N, std::vector<BitWord>(R.Words, 0));
  for (size_t B = 0; B < N; ++B) {
    Gen[B].assign(R.Words, 0);
    Kill[B].assign(R.Words, 0);
    Out[B].assign(R.Words, 0);
    RegMask KilledAfter = 0; // Registers redefined later in the block.
    for (auto It = DefsInBlock[B].rbegin(), E = DefsInBlock[B].rend();
         It != E; ++It) {
      const Def &Dd = R.AllDefs[*It];
      if (Dd.Regs & ~KilledAfter)
        SetBit(Gen[B], *It);
      KilledAfter |= Dd.Regs;
    }
    // Kill: any def elsewhere of a register this block defines.
    RegMask BlockDefs = 0;
    for (unsigned DefIdx : DefsInBlock[B])
      BlockDefs |= R.AllDefs[DefIdx].Regs;
    for (size_t DefIdx = 0; DefIdx < D; ++DefIdx)
      if (R.AllDefs[DefIdx].Regs & BlockDefs)
        SetBit(Kill[B], DefIdx);
  }

  // Forward fixpoint.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t B = 0; B < N; ++B) {
      std::vector<BitWord> NewIn(R.Words, 0);
      for (unsigned P : Blocks[B].Preds)
        for (size_t W = 0; W < R.Words; ++W)
          NewIn[W] |= Out[P][W];
      std::vector<BitWord> NewOut(R.Words);
      for (size_t W = 0; W < R.Words; ++W)
        NewOut[W] = Gen[B][W] | (NewIn[W] & ~Kill[B][W]);
      if (NewIn != R.In[B] || NewOut != Out[B]) {
        R.In[B] = std::move(NewIn);
        Out[B] = std::move(NewOut);
        Changed = true;
      }
    }
  }
  return R;
}

std::vector<const ReachingDefs::Def *>
ReachingDefs::reachingBlockEntry(unsigned Block, RegMask Mask) const {
  std::vector<const Def *> Result;
  if (Block >= In.size())
    return Result;
  for (size_t DefIdx = 0; DefIdx < AllDefs.size(); ++DefIdx) {
    if (!(AllDefs[DefIdx].Regs & Mask))
      continue;
    if (In[Block][DefIdx / 64] & (BitWord(1) << (DefIdx % 64)))
      Result.push_back(&AllDefs[DefIdx]);
  }
  return Result;
}

std::vector<const ReachingDefs::Def *>
ReachingDefs::reachingInstruction(const CFG &G, unsigned Block,
                                  unsigned InsnIdx, RegMask Mask) const {
  // Start from block entry, then apply in-block definitions in order.
  std::vector<const Def *> Reaching = reachingBlockEntry(Block, Mask);
  const BasicBlock &BB = G.blocks()[Block];
  for (unsigned I = 0; I < InsnIdx && I < BB.Insns.size(); ++I) {
    const InstructionEffects Fx =
        std::as_const(*BB.Insns[I]).instruction().effects();
    if (!(Fx.RegDefs & Mask))
      continue;
    // This def kills earlier defs of the same registers.
    Reaching.erase(std::remove_if(Reaching.begin(), Reaching.end(),
                                  [&](const Def *Dd) {
                                    return (Dd->Regs & Mask & Fx.RegDefs) ==
                                           (Dd->Regs & Mask);
                                  }),
                   Reaching.end());
    // And becomes a reaching def itself: find its Def record.
    for (const Def &Dd : AllDefs)
      if (Dd.Block == Block && Dd.InsnIdx == I) {
        Reaching.push_back(&Dd);
        break;
      }
  }
  return Reaching;
}

unsigned mao::resolveIndirectJumps(CFG &G) {
  if (G.unresolvedJumps().empty())
    return 0;
  ReachingDefs RD = ReachingDefs::compute(G);

  unsigned Resolved = 0;
  auto &Pending = G.unresolvedJumps();
  for (auto It = Pending.begin(); It != Pending.end();) {
    const Instruction &Jump = std::as_const(*It->Jump).instruction();
    const Operand *Target = Jump.branchTarget();
    if (!Target || !Target->isReg()) {
      ++It;
      continue;
    }
    const Reg JumpReg = Target->R;
    const unsigned Block = It->Block;
    const unsigned JumpIdx =
        static_cast<unsigned>(G.blocks()[Block].Insns.size()) - 1;
    std::vector<const ReachingDefs::Def *> Defs =
        RD.reachingInstruction(G, Block, JumpIdx, regMaskBit(JumpReg));
    if (Defs.size() == 1) {
      std::string Table =
          CFG::matchTableLoad(std::as_const(*Defs[0]->Insn).instruction(),
                              JumpReg);
      if (!Table.empty() && G.connectJumpTable(Block, Table)) {
        ++Resolved;
        ++G.stats().ResolvedReachingDefs;
        It = Pending.erase(It);
        continue;
      }
    }
    ++It;
  }
  G.function().HasUnresolvedIndirect = !Pending.empty();
  return Resolved;
}
