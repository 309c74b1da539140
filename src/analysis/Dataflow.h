//===- analysis/Dataflow.h - Simple dataflow apparatus ----------*- C++ -*-===//
///
/// \file
/// "MAO offers a simple data flow apparatus, but no alias or points-to
/// analysis. Since many assembly instructions work on registers, this data
/// flow mechanism is powerful and solves many otherwise difficult to reason
/// about problems for the optimization passes." (paper Sec. II)
///
/// Two analyses over the CFG:
///  - Liveness of super registers and condition flags (backward). Drives
///    the redundant-test/zero-extension peepholes and the scheduler.
///  - Reaching definitions of super registers (forward). Drives the Tier-2
///    jump-table pattern for indirect-branch resolution and the SIMADDR
///    pass.
///
/// Both treat opaque instructions as defining and using everything, and
/// function exits conservatively.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_ANALYSIS_DATAFLOW_H
#define MAO_ANALYSIS_DATAFLOW_H

#include "analysis/CFG.h"
#include "x86/Instruction.h"

#include <cstdint>
#include <span>
#include <vector>

namespace mao {

/// Per-block liveness fixpoint.
struct LivenessResult {
  std::vector<RegMask> RegLiveIn;
  std::vector<RegMask> RegLiveOut;
  std::vector<uint8_t> FlagsLiveIn;
  std::vector<uint8_t> FlagsLiveOut;
};

/// Computes liveness over \p G. Blocks ending in unresolved indirect jumps
/// or tail jumps out of the function have everything live-out.
LivenessResult computeLiveness(const CFG &G);

/// Liveness immediately *after* each instruction of one block, derived by
/// a backward walk from the block's live-out. Element i corresponds to
/// Blocks[B].Insns[i].
struct InsnLiveness {
  std::vector<RegMask> RegLiveAfter;
  std::vector<uint8_t> FlagsLiveAfter;
};
InsnLiveness perInstructionLiveness(const CFG &G, unsigned Block,
                                    const LivenessResult &Live);
/// The same over \p Insns, block \p Block's instructions as a pass has
/// edited them since \p Live was computed.
InsnLiveness perInstructionLiveness(std::span<const EntryIter> Insns,
                                    const LivenessResult &Live,
                                    unsigned Block);

/// Reaching definitions of super registers.
class ReachingDefs {
public:
  struct Def {
    unsigned Block;
    unsigned InsnIdx;   ///< Index into Blocks[Block].Insns.
    EntryIter Insn;
    RegMask Regs;       ///< Super registers this instruction defines.
  };

  static ReachingDefs compute(const CFG &G);

  const std::vector<Def> &defs() const { return AllDefs; }

  /// All definitions of any register in \p Mask that reach the entry of
  /// \p Block.
  std::vector<const Def *> reachingBlockEntry(unsigned Block,
                                              RegMask Mask) const;

  /// All definitions of any register in \p Mask that reach \p InsnIdx in
  /// \p Block (i.e. immediately before that instruction executes).
  std::vector<const Def *> reachingInstruction(const CFG &G, unsigned Block,
                                               unsigned InsnIdx,
                                               RegMask Mask) const;

private:
  using BitWord = uint64_t;
  std::vector<Def> AllDefs;
  size_t Words = 0;
  std::vector<std::vector<BitWord>> In; // per block
};

/// Tier-2 indirect-jump resolution: for each unresolved `jmp *%r`, if the
/// unique reaching definition of %r is a jump-table load, connect the
/// table's targets. Returns the number of jumps resolved and updates
/// G.stats() and the function's HasUnresolvedIndirect flag.
unsigned resolveIndirectJumps(CFG &G);

} // namespace mao

#endif // MAO_ANALYSIS_DATAFLOW_H
