//===- tests/SchedDagTest.cpp - SCHED dependence DAG tests --------------------===//
//
// The table-driven DAG of passes/SchedDag.h against the pairwise DAG it
// replaced, kept here as referenceBuildDag (with its flag-reader-writer
// self-edge removed). On seeded random blocks both must have the same
// transitive closure, the same priorities and the same pick order, and the
// table-driven one must stay within a fixed number of edges per
// instruction where the reference grows with the block.
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

/// The pairwise construction: every instruction pair is tested against the
/// register, memory, barrier and terminator rules, and the flag rules add
/// every reader -> every later def and every def -> every later live def.
SchedDag referenceBuildDag(const std::vector<SchedNode> &Nodes,
                           bool FlagsLiveOut) {
  const size_t N = Nodes.size();
  std::vector<std::vector<unsigned>> Succs(N);
  std::vector<unsigned> PredCount(N, 0);
  auto AddEdge = [&](unsigned From, unsigned To) {
    auto &S = Succs[From];
    if (std::find(S.begin(), S.end(), To) != S.end())
      return;
    S.push_back(To);
    ++PredCount[To];
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

  SchedDag Dag;
  Dag.PredCount = PredCount;
  Dag.Priority.assign(N, 0);
  Dag.SuccBegin.push_back(0);
  for (unsigned I = 0; I < N; ++I) {
    Dag.Succs.insert(Dag.Succs.end(), Succs[I].begin(), Succs[I].end());
    Dag.SuccBegin.push_back(static_cast<unsigned>(Dag.Succs.size()));
  }
  for (size_t I = N; I-- > 0;) {
    unsigned Best = 0;
    for (unsigned S : Succs[I])
      Best = std::max(Best, Dag.Priority[S]);
    Dag.Priority[I] = Best + Nodes[I].Latency;
  }
  return Dag;
}

/// The list loop the heap replaced: a front-to-back scan for the ready node
/// of strictly greatest priority, once per pick.
std::vector<unsigned> referenceListSchedule(const SchedDag &Dag) {
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
    for (unsigned E = Dag.SuccBegin[Best]; E < Dag.SuccBegin[Best + 1]; ++E)
      --PredLeft[Dag.Succs[E]];
  }
  return Order;
}

/// Reach[I] has bit J set when the DAG has a path I -> ... -> J.
std::vector<std::vector<uint64_t>> transitiveClosure(const SchedDag &Dag) {
  const size_t N = Dag.size();
  const size_t Words = (N + 63) / 64;
  std::vector<std::vector<uint64_t>> Reach(N,
                                           std::vector<uint64_t>(Words, 0));
  for (size_t I = N; I-- > 0;)
    for (unsigned E = Dag.SuccBegin[I]; E < Dag.SuccBegin[I + 1]; ++E) {
      const unsigned S = Dag.Succs[E];
      EXPECT_GT(S, I) << "edges must run forward";
      Reach[I][S / 64] |= uint64_t(1) << (S % 64);
      for (size_t W = 0; W < Words; ++W)
        Reach[I][W] |= Reach[S][W];
    }
  return Reach;
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
  const SchedDag Want = referenceBuildDag(Block, FlagsLiveOut);
  const SchedDag &Got = Scheduler.buildDag(Block, FlagsLiveOut);
  ASSERT_EQ(Got.size(), Block.size());
  EXPECT_LE(Got.edgeCount(), Want.edgeCount());
  EXPECT_TRUE(transitiveClosure(Got) == transitiveClosure(Want))
      << "closures differ on a block of " << Block.size();
  EXPECT_EQ(Got.Priority, Want.Priority);
  const std::vector<unsigned> &Order = Scheduler.schedule();
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

TEST(SchedDag, FlagReaderWritersGetNoSelfEdge) {
  // adc; adc; sbb; adc ... each reads the carry the previous one wrote.
  std::vector<SchedNode> Block(6);
  for (unsigned I = 0; I < Block.size(); ++I) {
    Block[I].Fx.FlagsUse = FlagCF;
    Block[I].Fx.FlagsDef = FlagsAllStatus;
    Block[I].Fx.RegDefs = Block[I].Fx.RegUses = RegMask(1) << I;
    Block[I].Latency = 1;
  }
  ListScheduler Scheduler;
  const SchedDag &Dag = Scheduler.buildDag(Block, /*FlagsLiveOut=*/true);
  for (unsigned I = 0; I < Dag.size(); ++I)
    for (unsigned E = Dag.SuccBegin[I]; E < Dag.SuccBegin[I + 1]; ++E)
      EXPECT_NE(Dag.Succs[E], I);
  EXPECT_EQ(Scheduler.schedule(), (std::vector<unsigned>{0, 1, 2, 3, 4, 5}));
  expectSameSchedule(Scheduler, Block, /*FlagsLiveOut=*/true);
}

TEST(SchedDag, EdgesPerInstructionStayBounded) {
  // The "near-linear" gate as a count: edges per instruction stay under a
  // fixed constant however long the block, where the pairwise DAG's grow
  // with it.
  constexpr double MaxEdgesPerInsn = 12.0;
  for (unsigned Profile = 0; Profile < 3; ++Profile) {
    std::mt19937_64 Rng(4096 + Profile);
    const std::vector<SchedNode> Big = randomBlock(Rng, 4096, Profile);
    ListScheduler Scheduler;
    const SchedDag &Dag = Scheduler.buildDag(Big, /*FlagsLiveOut=*/true);
    const double PerInsn =
        static_cast<double>(Dag.edgeCount()) / static_cast<double>(Big.size());
    EXPECT_LT(PerInsn, MaxEdgesPerInsn) << "profile " << Profile;
    EXPECT_EQ(Scheduler.schedule().size(), Big.size());

    const std::vector<SchedNode> Small(Big.begin(), Big.begin() + 128);
    const std::vector<SchedNode> Large(Big.begin(), Big.begin() + 1024);
    const double RefSmall =
        static_cast<double>(referenceBuildDag(Small, true).edgeCount()) / 128;
    const double RefLarge =
        static_cast<double>(referenceBuildDag(Large, true).edgeCount()) / 1024;
    EXPECT_GT(RefLarge, 4 * RefSmall) << "profile " << Profile;
    EXPECT_GT(RefLarge, MaxEdgesPerInsn) << "profile " << Profile;
  }
}

} // namespace
