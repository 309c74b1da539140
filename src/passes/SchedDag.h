//===- passes/SchedDag.h - List-scheduling dependence DAG -------*- C++ -*-===//
///
/// \file
/// The dependence DAG and the list loop behind SCHED (paper Sec. III-F),
/// kept apart from the IR so tests can drive them on synthetic blocks. A
/// block is a vector of SchedNodes: each instruction's side-effect summary,
/// its latency, and whether it is a branch or return.
///
/// The dependence rules (register, flag, conservative memory, barrier and
/// terminator; DESIGN.md "List scheduling") are the pairwise rules of the
/// original quadratic pass. ListScheduler::buildDag emits just enough of
/// those edges for every other one to follow along a path, read off running
/// tables in one forward walk, so a block of N instructions costs near-O(N)
/// edges. The DAG has the same transitive closure as the pairwise one, so
/// readiness, longest-path priorities and hence the emitted schedule are
/// identical.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_PASSES_SCHEDDAG_H
#define MAO_PASSES_SCHEDDAG_H

#include "x86/Instruction.h"

#include <array>
#include <cstddef>
#include <vector>

namespace mao {

/// One instruction of a scheduling region.
struct SchedNode {
  InstructionEffects Fx;
  unsigned Latency = 0;
  /// Branch or return: every earlier instruction stays before it.
  bool Terminator = false;
};

/// Dependence DAG over one scheduling region. Every edge runs from a lower
/// to a higher node index.
struct SchedDag {
  /// Successors of node I are Succs[SuccBegin[I] .. SuccBegin[I + 1]).
  std::vector<unsigned> SuccBegin;
  std::vector<unsigned> Succs;
  std::vector<unsigned> PredCount;
  /// Latency-weighted critical-path length from the node to a DAG exit.
  std::vector<unsigned> Priority;

  size_t size() const { return PredCount.size(); }
  size_t edgeCount() const { return Succs.size(); }
};

/// Builds dependence DAGs and list schedules, one region at a time. The
/// scheduler owns its working storage, so scheduling many regions through
/// one instance allocates only when a region outgrows the earlier ones.
class ListScheduler {
public:
  /// Builds the DAG of \p Nodes. \p FlagsLiveOut says whether a status flag
  /// is read after the region, which keeps its final flag def live. The
  /// result is valid until the next call.
  const SchedDag &buildDag(const std::vector<SchedNode> &Nodes,
                           bool FlagsLiveOut);

  /// Greedy list schedule of the last built DAG: repeatedly takes the ready
  /// node with the highest priority, the lowest index among equals. Returns
  /// node indices in emission order, valid until the next call.
  const std::vector<unsigned> &schedule();

private:
  /// A resource written by defs and read by uses (one register, or memory
  /// as a whole): its last def and the uses since that def, as a list
  /// threaded through UseLinks.
  struct Resource {
    unsigned LastDef = 0;
    unsigned UsesHead = 0;
  };
  struct UseLink {
    unsigned Node = 0;
    unsigned Next = 0;
  };

  void markLiveFlagDefs(const std::vector<SchedNode> &Nodes, bool FlagsLiveOut);
  void addFlagEdges(const InstructionEffects &Fx);
  void use(const Resource &R);
  void pushUse(Resource &R);
  void def(Resource &R);
  void addEdge(unsigned From);
  void addEdges(const std::vector<unsigned> &From);
  /// Adds edges from every node in [First, Cur), from node 0 when there is
  /// no First.
  void addEdgesSince(unsigned First);
  void finishDag(const std::vector<SchedNode> &Nodes);

  SchedDag Dag;
  // Working storage of buildDag.
  unsigned Cur = 0; ///< The node being visited; every new edge ends here.
  std::vector<unsigned> Stamp; ///< Stamp[I] == Cur: edge I -> Cur exists.
  std::vector<unsigned> PredBegin, Preds;
  std::vector<UseLink> UseLinks;
  std::array<Resource, 8 * sizeof(RegMask)> Regs; ///< By RegMask bit.
  Resource Mem;
  unsigned LastBarrier = 0, LastTerminator = 0; ///< Or none.
  std::vector<bool> LiveFlagDef;
  unsigned FlagProducer = 0;
  std::vector<unsigned> FlagReadersPending, FlagDefsSinceLive;
  std::vector<unsigned> Scratch;
  // Working storage of schedule().
  std::vector<unsigned> PredLeft, Ready, Order;
};

} // namespace mao

#endif // MAO_PASSES_SCHEDDAG_H
