//===- tests/SchedDagTest.cpp - SCHED list schedule tests ----------------------===//
//
// The reverse-walk priorities and the sorted schedule of passes/SchedDag.h
// against the pairwise dependence DAG and the scan-based list loop they
// replaced, kept here as referenceBuildDag (with its flag-reader-writer
// self-edge removed) and referenceListSchedule. On seeded random blocks
// both must give the same priorities and the same pick order, and every
// reference edge must run forward in the sorted order.
//
//===----------------------------------------------------------------------===//

#include "passes/SchedDag.h"
#include "x86/X86Defs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

using namespace mao;

namespace {

/// The pairwise dependence DAG: successor lists, predecessor counts and
/// longest-path priorities.
struct ReferenceDag {
  std::vector<std::vector<unsigned>> Succs;
  std::vector<unsigned> PredCount;
  std::vector<unsigned> Priority;

  size_t size() const { return PredCount.size(); }
};

/// The pairwise construction: every instruction pair is tested against the
/// register, memory, barrier and terminator rules, and the flag rules add
/// every reader -> every later def and every def -> every later live def.
ReferenceDag referenceBuildDag(const std::vector<SchedNode> &Nodes,
                               bool FlagsLiveOut) {
  const size_t N = Nodes.size();
  ReferenceDag Dag;
  Dag.Succs.resize(N);
  Dag.PredCount.assign(N, 0);
  std::vector<bool> Has(N * N, false); // Has[From * N + To]: edge exists.
  auto AddEdge = [&](unsigned From, unsigned To) {
    if (Has[From * N + To])
      return;
    Has[From * N + To] = true;
    Dag.Succs[From].push_back(To);
    ++Dag.PredCount[To];
  };

  for (unsigned J = 0; J < N; ++J) {
    const InstructionEffects &FJ = Nodes[J].Fx;
    for (unsigned I = 0; I < J; ++I) {
      const InstructionEffects &FI = Nodes[I].Fx;
      const bool Raw = (FI.RegDefs & FJ.RegUses) != 0;
      const bool War = (FI.RegUses & FJ.RegDefs) != 0;
      const bool Waw = (FI.RegDefs & FJ.RegDefs) != 0;
      const bool Mem = (FI.MemWrite && (FJ.MemRead || FJ.MemWrite)) ||
                       (FI.MemRead && FJ.MemWrite);
      const bool Barrier = FI.Barrier || FJ.Barrier;
      if (Raw || War || Waw || Mem || Barrier || Nodes[J].Terminator)
        AddEdge(I, J);
    }
  }

  std::vector<bool> LiveDef(N, false);
  int LastDef = -1;
  for (unsigned J = 0; J < N; ++J) {
    if (Nodes[J].Fx.FlagsUse && LastDef >= 0)
      LiveDef[LastDef] = true;
    if (Nodes[J].Fx.FlagsDef)
      LastDef = static_cast<int>(J);
  }
  if (FlagsLiveOut && LastDef >= 0)
    LiveDef[LastDef] = true;

  std::vector<unsigned> AllReaders, DefsSoFar;
  int Producer = -1;
  for (unsigned J = 0; J < N; ++J) {
    if (Nodes[J].Fx.FlagsUse) {
      if (Producer >= 0)
        AddEdge(static_cast<unsigned>(Producer), J);
      AllReaders.push_back(J);
    }
    if (Nodes[J].Fx.FlagsDef) {
      for (unsigned R : AllReaders)
        if (R != J)
          AddEdge(R, J);
      if (LiveDef[J])
        for (unsigned D : DefsSoFar)
          AddEdge(D, J);
      DefsSoFar.push_back(J);
      Producer = static_cast<int>(J);
    }
  }

  Dag.Priority.assign(N, 0);
  for (size_t I = N; I-- > 0;) {
    unsigned Best = 0;
    for (unsigned S : Dag.Succs[I])
      Best = std::max(Best, Dag.Priority[S]);
    Dag.Priority[I] = Best + Nodes[I].Latency;
  }
  return Dag;
}

/// The list loop the scheduler replaced: a front-to-back scan for the
/// ready node of strictly greatest priority, once per pick.
std::vector<unsigned> referenceListSchedule(const ReferenceDag &Dag) {
  const size_t N = Dag.size();
  std::vector<unsigned> Order;
  std::vector<unsigned> PredLeft = Dag.PredCount;
  std::vector<bool> Emitted(N, false);
  for (size_t Step = 0; Step < N; ++Step) {
    unsigned Best = ~0u;
    for (unsigned I = 0; I < N; ++I) {
      if (Emitted[I] || PredLeft[I] != 0)
        continue;
      if (Best == ~0u || Dag.Priority[I] > Dag.Priority[Best])
        Best = I;
    }
    if (Best == ~0u)
      return Order; // A cycle; the caller sees a short order.
    Emitted[Best] = true;
    Order.push_back(Best);
    for (unsigned S : Dag.Succs[Best])
      --PredLeft[S];
  }
  return Order;
}

/// Instruction shapes of a random block, as their effect summaries. Eight
/// GPRs and two XMMs keep register dependences dense.
SchedNode randomNode(std::mt19937_64 &Rng, unsigned Profile) {
  auto Pick = [&Rng](unsigned N) {
    return static_cast<unsigned>(Rng() % N);
  };
  auto Reg = [&]() -> RegMask {
    const unsigned Bit = Pick(10);
    return RegMask(1) << (Bit < 8 ? Bit : 16 + Bit - 8);
  };
  SchedNode Node;
  InstructionEffects &Fx = Node.Fx;
  Node.Latency = Pick(6);
  // Profile 0 is ALU-heavy, 1 flag-reader-heavy, 2 memory- and call-heavy.
  static const unsigned Weights[3][12] = {
      {30, 10, 10, 8, 4, 2, 3, 3, 3, 3, 6, 2},
      {10, 5, 5, 3, 3, 1, 6, 10, 10, 10, 8, 1},
      {10, 5, 15, 15, 10, 6, 3, 2, 2, 2, 4, 1}};
  unsigned Total = 0;
  for (unsigned W : Weights[Profile])
    Total += W;
  unsigned Roll = Pick(Total), Kind = 0;
  while (Roll >= Weights[Profile][Kind])
    Roll -= Weights[Profile][Kind++];
  const uint8_t AllFlags = FlagsAllStatus, Carry = FlagCF, Zero = FlagZF;
  switch (Kind) {
  case 0: // addl %src, %dst
    Fx.RegUses = Reg() | Reg();
    Fx.RegDefs = Reg();
    Fx.RegUses |= Fx.RegDefs;
    Fx.FlagsDef = AllFlags;
    break;
  case 1: // movl %src, %dst
    Fx.RegUses = Reg();
    Fx.RegDefs = Reg();
    break;
  case 2: // movl off(%base), %dst
    Fx.RegUses = Reg();
    Fx.RegDefs = Reg();
    Fx.MemRead = true;
    break;
  case 3: // movl %src, off(%base)
    Fx.RegUses = Reg() | Reg();
    Fx.MemWrite = true;
    break;
  case 4: // addl %src, off(%base)
    Fx.RegUses = Reg() | Reg();
    Fx.MemRead = Fx.MemWrite = true;
    Fx.FlagsDef = AllFlags;
    break;
  case 5: // call g
    Fx.RegUses = CallUsedMask;
    Fx.RegDefs = CallClobberedMask;
    Fx.FlagsDef = AllFlags;
    Fx.MemRead = Fx.MemWrite = true;
    Fx.Barrier = true;
    break;
  case 6: // jne .L
    Fx.FlagsUse = Zero;
    Node.Terminator = true;
    break;
  case 7: // sete %dst
    Fx.FlagsUse = Zero;
    Fx.RegDefs = Reg();
    Fx.RegUses = Fx.RegDefs;
    break;
  case 8: // cmovne %src, %dst
    Fx.FlagsUse = Zero;
    Fx.RegDefs = Reg();
    Fx.RegUses = Reg() | Fx.RegDefs;
    break;
  case 9: // adcl / sbbl %src, %dst
    Fx.FlagsUse = Carry;
    Fx.FlagsDef = AllFlags;
    Fx.RegDefs = Reg();
    Fx.RegUses = Reg() | Fx.RegDefs;
    break;
  case 10: // cmpl %a, %b
    Fx.RegUses = Reg() | Reg();
    Fx.FlagsDef = AllFlags;
    break;
  default: // ret
    Fx.RegUses = RetUsedMask;
    Node.Terminator = true;
    break;
  }
  return Node;
}

std::vector<SchedNode> randomBlock(std::mt19937_64 &Rng, size_t N,
                                   unsigned Profile) {
  std::vector<SchedNode> Block;
  Block.reserve(N);
  for (size_t I = 0; I < N; ++I)
    Block.push_back(randomNode(Rng, Profile));
  return Block;
}

void expectSameSchedule(ListScheduler &Scheduler,
                        const std::vector<SchedNode> &Block,
                        bool FlagsLiveOut) {
  const ReferenceDag Want = referenceBuildDag(Block, FlagsLiveOut);
  const std::vector<unsigned> &Order = Scheduler.schedule(Block, FlagsLiveOut);
  EXPECT_EQ(Scheduler.priorities(), Want.Priority);
  EXPECT_EQ(Order.size(), Block.size());
  EXPECT_EQ(Order, referenceListSchedule(Want));
}

TEST(SchedDag, MatchesReferenceOnRandomBlocks) {
  std::mt19937_64 Rng(20110402);
  ListScheduler Scheduler; // Reused, as the pass reuses it across blocks.
  for (unsigned Round = 0; Round < 120; ++Round) {
    // Mostly basic-block-sized regions, some up to 600 instructions.
    const size_t N = Round % 8 == 0 ? 1 + Rng() % 600 : 1 + Rng() % 64;
    const std::vector<SchedNode> Block = randomBlock(Rng, N, Round % 3);
    SCOPED_TRACE(testing::Message() << "round " << Round << ", N=" << N);
    expectSameSchedule(Scheduler, Block, /*FlagsLiveOut=*/false);
    expectSameSchedule(Scheduler, Block, /*FlagsLiveOut=*/true);
    if (testing::Test::HasFailure())
      return;
  }
}

TEST(SchedDag, SortedOrderRespectsEveryReferenceEdge) {
  // The lemma the sort rests on: along every dependence u -> v, u < v and
  // Priority[u] >= Priority[v] + Latency[u], so u sorts before v.
  std::mt19937_64 Rng(1103);
  ListScheduler Scheduler;
  for (unsigned Round = 0; Round < 60; ++Round) {
    const size_t N = 1 + Rng() % 200;
    const std::vector<SchedNode> Block = randomBlock(Rng, N, Round % 3);
    const bool FlagsLiveOut = Round % 2 == 0;
    const std::vector<unsigned> Order =
        Scheduler.schedule(Block, FlagsLiveOut);
    const std::vector<unsigned> &Priority = Scheduler.priorities();
    std::vector<unsigned> Position(N);
    for (unsigned P = 0; P < N; ++P)
      Position[Order[P]] = P;
    const ReferenceDag Dag = referenceBuildDag(Block, FlagsLiveOut);
    for (unsigned U = 0; U < N; ++U)
      for (unsigned V : Dag.Succs[U]) {
        EXPECT_LT(U, V) << "round " << Round;
        EXPECT_GE(Priority[U], Priority[V] + Block[U].Latency)
            << "round " << Round << ", edge " << U << " -> " << V;
        EXPECT_LT(Position[U], Position[V])
            << "round " << Round << ", edge " << U << " -> " << V;
      }
    if (testing::Test::HasFailure())
      return;
  }
}

TEST(SchedDag, FlagReaderWritersGetNoSelfEdge) {
  // adc; adc; sbb; adc ... each reads the carry the previous one wrote. A
  // self-edge would leave the reference loop a short order.
  std::vector<SchedNode> Block(6);
  for (unsigned I = 0; I < Block.size(); ++I) {
    Block[I].Fx.FlagsUse = FlagCF;
    Block[I].Fx.FlagsDef = FlagsAllStatus;
    Block[I].Fx.RegDefs = Block[I].Fx.RegUses = RegMask(1) << I;
    Block[I].Latency = 1;
  }
  ListScheduler Scheduler;
  EXPECT_EQ(Scheduler.schedule(Block, /*FlagsLiveOut=*/true),
            (std::vector<unsigned>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(Scheduler.priorities(),
            (std::vector<unsigned>{6, 5, 4, 3, 2, 1}));
  expectSameSchedule(Scheduler, Block, /*FlagsLiveOut=*/true);
}

TEST(SchedDag, LargeBlocksMatchReference) {
  // Whole-function-sized blocks in each mix.
  for (unsigned Profile = 0; Profile < 3; ++Profile) {
    std::mt19937_64 Rng(4096 + Profile);
    const std::vector<SchedNode> Big = randomBlock(Rng, 4096, Profile);
    SCOPED_TRACE(testing::Message() << "profile " << Profile);
    ListScheduler Scheduler;
    expectSameSchedule(Scheduler, Big, /*FlagsLiveOut=*/true);
  }
}

} // namespace
