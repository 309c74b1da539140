//===- passes/SchedDag.cpp - List-scheduling dependence DAG -------------------===//
///
/// \file
/// Table-driven DAG construction and the heap-driven list loop; see
/// SchedDag.h. Every edge ends at the node being visited, so one stamp per
/// source node deduplicates edges in O(1).
///
//===----------------------------------------------------------------------===//

#include "passes/SchedDag.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace mao;

namespace {
constexpr unsigned NoNode = ~0u;
} // namespace

const SchedDag &ListScheduler::buildDag(const std::vector<SchedNode> &Nodes,
                                        bool FlagsLiveOut) {
  const unsigned N = static_cast<unsigned>(Nodes.size());
  Stamp.assign(N, NoNode);
  PredBegin.clear();
  Preds.clear();
  UseLinks.clear();
  const Resource Fresh{NoNode, NoNode};
  Regs.fill(Fresh);
  Mem = Fresh;
  LastBarrier = LastTerminator = NoNode;
  FlagProducer = NoNode;
  FlagReadersPending.clear();
  FlagDefsSinceLive.clear();
  markLiveFlagDefs(Nodes, FlagsLiveOut);

  for (Cur = 0; Cur < N; ++Cur) {
    PredBegin.push_back(static_cast<unsigned>(Preds.size()));
    const SchedNode &Node = Nodes[Cur];
    const InstructionEffects &Fx = Node.Fx;

    // Register RAW/WAR/WAW, per register.
    for (RegMask M = Fx.RegUses; M; M &= M - 1) {
      const unsigned Bit = static_cast<unsigned>(std::countr_zero(M));
      use(Regs[Bit]);
      if (!((Fx.RegDefs >> Bit) & 1))
        pushUse(Regs[Bit]);
    }
    for (RegMask M = Fx.RegDefs; M; M &= M - 1)
      def(Regs[std::countr_zero(M)]);

    // Memory, with no alias analysis: a store is ordered against every
    // access, loads are free among themselves.
    if (Fx.MemRead || Fx.MemWrite)
      use(Mem);
    if (Fx.MemWrite)
      def(Mem);
    else if (Fx.MemRead)
      pushUse(Mem);

    // A barrier is ordered against every node, a terminator after every
    // node. Nodes before the last barrier (terminator) reach a new one
    // through it.
    if (LastBarrier != NoNode)
      addEdge(LastBarrier);
    if (Fx.Barrier) {
      addEdgesSince(LastBarrier);
      LastBarrier = Cur;
    }
    if (Node.Terminator) {
      addEdgesSince(LastTerminator);
      LastTerminator = Cur;
    }

    addFlagEdges(Fx);
  }
  PredBegin.push_back(static_cast<unsigned>(Preds.size()));
  finishDag(Nodes);
  return Dag;
}

/// A flag def is live when a reader consumes it before the next def, or
/// when it is the final def and flags are live-out.
void ListScheduler::markLiveFlagDefs(const std::vector<SchedNode> &Nodes,
                                     bool FlagsLiveOut) {
  LiveFlagDef.assign(Nodes.size(), false);
  unsigned LastDef = NoNode;
  for (unsigned J = 0; J < Nodes.size(); ++J) {
    if (Nodes[J].Fx.FlagsUse && LastDef != NoNode)
      LiveFlagDef[LastDef] = true;
    if (Nodes[J].Fx.FlagsDef)
      LastDef = J;
  }
  if (FlagsLiveOut && LastDef != NoNode)
    LiveFlagDef[LastDef] = true;
}

/// Flag dependences are precise: most x86 ALU instructions clobber flags
/// nobody reads, and chaining those dead writers would serialize the block.
/// The rules, with the edges each one implies through others:
///  - live def -> each of its readers (RAW);
///  - reader -> every later def (WAR). Edges past the reader's next live def
///    L are implied: reader -> L -> L's reader -> later def.
///  - every def -> each later live def, so a dead writer cannot drift into a
///    live def's producer-consumer window. Defs before the previous live def
///    reach the new one through it.
/// Dead def against dead def stays unordered.
void ListScheduler::addFlagEdges(const InstructionEffects &Fx) {
  if (Fx.FlagsUse && FlagProducer != NoNode)
    addEdge(FlagProducer);
  if (Fx.FlagsDef) {
    addEdges(FlagReadersPending);
    if (LiveFlagDef[Cur]) {
      addEdges(FlagDefsSinceLive);
      FlagReadersPending.clear();
      FlagDefsSinceLive.clear();
    }
    FlagDefsSinceLive.push_back(Cur);
    FlagProducer = Cur;
  }
  // Pushed after the def so a reader-writer (adc, sbb) never gets an edge
  // to itself.
  if (Fx.FlagsUse)
    FlagReadersPending.push_back(Cur);
}

void ListScheduler::use(const Resource &R) {
  if (R.LastDef != NoNode)
    addEdge(R.LastDef);
}

void ListScheduler::pushUse(Resource &R) {
  UseLinks.push_back({Cur, R.UsesHead});
  R.UsesHead = static_cast<unsigned>(UseLinks.size() - 1);
}

/// Earlier defs reach this one through the last def, earlier uses through
/// the def that followed them.
void ListScheduler::def(Resource &R) {
  use(R);
  for (unsigned L = R.UsesHead; L != NoNode; L = UseLinks[L].Next)
    addEdge(UseLinks[L].Node);
  R.UsesHead = NoNode;
  R.LastDef = Cur;
}

void ListScheduler::addEdge(unsigned From) {
  assert(From < Cur && "edges run forward");
  if (Stamp[From] == Cur)
    return;
  Stamp[From] = Cur;
  Preds.push_back(From);
}

void ListScheduler::addEdges(const std::vector<unsigned> &From) {
  for (unsigned F : From)
    addEdge(F);
}

void ListScheduler::addEdgesSince(unsigned First) {
  for (unsigned F = First == NoNode ? 0 : First; F < Cur; ++F)
    addEdge(F);
}

/// Transposes the predecessor lists into the DAG's successor lists and
/// computes the priorities.
void ListScheduler::finishDag(const std::vector<SchedNode> &Nodes) {
  const unsigned N = static_cast<unsigned>(Nodes.size());
  Dag.PredCount.resize(N);
  Dag.SuccBegin.assign(N + 1, 0);
  for (unsigned P : Preds)
    ++Dag.SuccBegin[P + 1];
  for (unsigned I = 0; I < N; ++I)
    Dag.SuccBegin[I + 1] += Dag.SuccBegin[I];
  Dag.Succs.resize(Preds.size());
  std::vector<unsigned> &Fill = Scratch;
  Fill.assign(Dag.SuccBegin.begin(), Dag.SuccBegin.end() - 1);
  for (unsigned J = 0; J < N; ++J) {
    Dag.PredCount[J] = PredBegin[J + 1] - PredBegin[J];
    for (unsigned E = PredBegin[J]; E < PredBegin[J + 1]; ++E)
      Dag.Succs[Fill[Preds[E]]++] = J;
  }

  // Critical-path priorities: longest latency-weighted path to a sink.
  // Successors have higher indices, so a reverse walk settles each node's
  // successors before the node itself.
  std::vector<unsigned> &LongestSucc = Scratch;
  LongestSucc.assign(N, 0);
  Dag.Priority.resize(N);
  for (unsigned J = N; J-- > 0;) {
    Dag.Priority[J] = LongestSucc[J] + Nodes[J].Latency;
    for (unsigned E = PredBegin[J]; E < PredBegin[J + 1]; ++E)
      LongestSucc[Preds[E]] = std::max(LongestSucc[Preds[E]], Dag.Priority[J]);
  }
}

const std::vector<unsigned> &ListScheduler::schedule() {
  const unsigned N = static_cast<unsigned>(Dag.size());
  // Max-heap on (priority, lowest index): the node a front-to-back scan for
  // the strictly greatest priority would pick.
  auto PicksLater = [this](unsigned A, unsigned B) {
    if (Dag.Priority[A] != Dag.Priority[B])
      return Dag.Priority[A] < Dag.Priority[B];
    return A > B;
  };
  PredLeft = Dag.PredCount;
  Ready.clear();
  for (unsigned I = 0; I < N; ++I)
    if (PredLeft[I] == 0)
      Ready.push_back(I);
  std::make_heap(Ready.begin(), Ready.end(), PicksLater);

  Order.clear();
  while (!Ready.empty()) {
    std::pop_heap(Ready.begin(), Ready.end(), PicksLater);
    const unsigned Best = Ready.back();
    Ready.pop_back();
    Order.push_back(Best);
    for (unsigned E = Dag.SuccBegin[Best]; E < Dag.SuccBegin[Best + 1]; ++E)
      if (--PredLeft[Dag.Succs[E]] == 0) {
        Ready.push_back(Dag.Succs[E]);
        std::push_heap(Ready.begin(), Ready.end(), PicksLater);
      }
  }
  assert(Order.size() == N && "dependence DAG has a cycle");
  return Order;
}
