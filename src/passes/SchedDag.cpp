//===- passes/SchedDag.cpp - Critical-path list scheduling --------------------===//
///
/// \file
/// Priorities in one backward walk and the schedule as a sort; see
/// SchedDag.h and DESIGN.md "List scheduling".
///
//===----------------------------------------------------------------------===//

#include "passes/SchedDag.h"

#include <algorithm>
#include <array>
#include <bit>

using namespace mao;

namespace {

/// One register, or memory as a whole, seen from the node being visited:
/// the highest priority among the later nodes that write it, and among
/// those that read or write it. A use precedes every later def, a def every
/// later access. 0 stands for none, which adds nothing to a maximum.
struct Resource {
  unsigned Defs = 0;
  unsigned Any = 0;

  /// Notes a node of priority \p P. A def's priority is at least that of
  /// every later access, its dependents.
  void note(bool Def, unsigned P) {
    Any = std::max(Any, P);
    if (Def)
      Defs = P;
  }
};

} // namespace

/// A node's priority is its latency plus the highest priority among its
/// dependents. The walk runs backward, so every dependent is settled first,
/// and reads that maximum off tables over the later nodes, one per rule.
/// Returns the highest priority.
unsigned ListScheduler::computePriorities(const std::vector<SchedNode> &Nodes,
                                          bool FlagsLiveOut) {
  std::array<Resource, 8 * sizeof(RegMask)> Regs{}; // By RegMask bit.
  Resource Mem;
  // A barrier precedes every later node, and every node precedes a later
  // barrier or terminator.
  unsigned AnyLater = 0, Barriers = 0, Terminators = 0;
  // Flags are precise: a def precedes its readers (up to the next def,
  // itself included when it is a reader-writer such as adc), a reader
  // precedes every later def, and every def precedes every later live def.
  // A def is live when a reader follows it before the next def, or when it
  // is the last def and flags are live-out.
  unsigned ProducerReaders = 0, FlagDefs = 0, LiveFlagDefs = 0;
  bool ReaderBeforeNextDef = false, DefLater = false;

  Priority.resize(Nodes.size());
  for (size_t I = Nodes.size(); I-- > 0;) {
    const SchedNode &Node = Nodes[I];
    const InstructionEffects &Fx = Node.Fx;

    unsigned Succ = std::max(Fx.Barrier ? AnyLater : Barriers, Terminators);
    for (RegMask M = Fx.RegUses; M; M &= M - 1)
      Succ = std::max(Succ, Regs[std::countr_zero(M)].Defs);
    for (RegMask M = Fx.RegDefs; M; M &= M - 1)
      Succ = std::max(Succ, Regs[std::countr_zero(M)].Any);
    // Memory, with no alias analysis: a store is a def, a load a use.
    if (Fx.MemWrite)
      Succ = std::max(Succ, Mem.Any);
    else if (Fx.MemRead)
      Succ = std::max(Succ, Mem.Defs);
    if (Fx.FlagsUse)
      Succ = std::max(Succ, FlagDefs);
    if (Fx.FlagsDef)
      Succ = std::max({Succ, ProducerReaders, LiveFlagDefs});
    const unsigned P = Succ + Node.Latency;
    Priority[I] = P;

    for (RegMask M = Fx.RegDefs; M; M &= M - 1)
      Regs[std::countr_zero(M)].note(true, P);
    for (RegMask M = Fx.RegUses & ~Fx.RegDefs; M; M &= M - 1)
      Regs[std::countr_zero(M)].note(false, P);
    if (Fx.MemRead || Fx.MemWrite)
      Mem.note(Fx.MemWrite, P);
    AnyLater = std::max(AnyLater, P);
    if (Fx.Barrier)
      Barriers = std::max(Barriers, P);
    if (Node.Terminator)
      Terminators = std::max(Terminators, P);
    if (Fx.FlagsDef) {
      FlagDefs = std::max(FlagDefs, P);
      if (ReaderBeforeNextDef || (!DefLater && FlagsLiveOut))
        LiveFlagDefs = std::max(LiveFlagDefs, P);
      ProducerReaders = 0;
      ReaderBeforeNextDef = false;
      DefLater = true;
    }
    // After the def, so a reader-writer reads the previous def's flags.
    if (Fx.FlagsUse) {
      ProducerReaders = std::max(ProducerReaders, P);
      ReaderBeforeNextDef = true;
    }
  }
  return AnyLater;
}

/// Along every dependence u -> v, u < v and Priority[u] >= Priority[v], so
/// this order lists each node after all its predecessors. At each step of
/// the list loop its next node is therefore ready and beats every other
/// remaining node: the loop would emit exactly this order.
const std::vector<unsigned> &
ListScheduler::schedule(const std::vector<SchedNode> &Nodes,
                        bool FlagsLiveOut) {
  const unsigned Top = computePriorities(Nodes, FlagsLiveOut);
  // A counting sort: priorities are small integers (at most the sum of the
  // latencies), and placing nodes in index order keeps ties ascending.
  Start.assign(Top + 2, 0);
  for (unsigned P : Priority)
    ++Start[Top - P + 1];
  for (unsigned K = 1; K <= Top; ++K)
    Start[K + 1] += Start[K];
  Order.resize(Nodes.size());
  for (unsigned I = 0; I < Nodes.size(); ++I)
    Order[Start[Top - Priority[I]]++] = I;
  return Order;
}
