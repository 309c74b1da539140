//===- passes/SchedDag.h - Critical-path list scheduling --------*- C++ -*-===//
///
/// \file
/// The list schedule behind SCHED (paper Sec. III-F), kept apart from the IR
/// so tests can drive it on synthetic blocks. A block is a vector of
/// SchedNodes: each instruction's side-effect summary, its latency, and
/// whether it is a branch or return.
///
/// The dependence rules (register, flag, conservative memory, barrier and
/// terminator; DESIGN.md "List scheduling") are stated between pairs of
/// instructions, but no dependence graph is built. Each node's
/// priority, the latency-weighted longest path to the block's exit, is read
/// off running tables in one backward walk. Along every dependence u -> v
/// the priority does not rise and the index does, so the greedy list loop
/// (take the ready node with the highest priority, the lowest index among
/// equals) emits exactly the nodes sorted by (priority desc, index asc),
/// and the scheduler sorts.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_PASSES_SCHEDDAG_H
#define MAO_PASSES_SCHEDDAG_H

#include "x86/Instruction.h"

#include <vector>

namespace mao {

/// One instruction of a scheduling region.
struct SchedNode {
  InstructionEffects Fx;
  unsigned Latency = 0;
  /// Branch or return: every earlier instruction stays before it.
  bool Terminator = false;
};

/// Schedules regions one at a time. The scheduler owns its working storage,
/// so scheduling many regions through one instance allocates only when a
/// region outgrows the earlier ones.
class ListScheduler {
public:
  /// The list schedule of \p Nodes: node indices in emission order, valid
  /// until the next call. \p FlagsLiveOut says whether a status flag is
  /// read after the region, which keeps its final flag def live.
  const std::vector<unsigned> &schedule(const std::vector<SchedNode> &Nodes,
                                        bool FlagsLiveOut);

  /// The last scheduled region's priorities: each node's latency-weighted
  /// critical-path length to the region's exit.
  const std::vector<unsigned> &priorities() const { return Priority; }

private:
  unsigned computePriorities(const std::vector<SchedNode> &Nodes,
                             bool FlagsLiveOut);

  std::vector<unsigned> Priority;
  std::vector<unsigned> Start; ///< The sort's first slot per priority.
  std::vector<unsigned> Order;
};

} // namespace mao

#endif // MAO_PASSES_SCHEDDAG_H
