//===- analysis/CFG.h - Per-function control-flow graph ---------*- C++ -*-===//
///
/// \file
/// MAO offers a per-function control-flow graph (paper Sec. II). In the
/// presence of indirect jumps building it is undecidable in general; MAO
/// relies on compiler-generated patterns (jump tables) and flags the
/// function when a branch cannot be resolved, letting each optimization
/// pass decide whether to proceed.
///
/// Resolution runs in two tiers, mirroring the paper's anecdote (246/320
/// indirect branches initially unresolved; one additional reaching-
/// definitions-based pattern brought it down to 4):
///   Tier 1: the table-load feeding `jmp *%r` is in the same basic block.
///   Tier 2: the unique reaching definition of the jump register across
///           blocks is a table load (requires the dataflow framework; see
///           resolveIndirectJumps in Dataflow.h).
///
//===----------------------------------------------------------------------===//

#ifndef MAO_ANALYSIS_CFG_H
#define MAO_ANALYSIS_CFG_H

#include "ir/MaoUnit.h"

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mao {

/// One basic block: a maximal straight-line run of instructions.
struct BasicBlock {
  unsigned Index = 0;
  /// Labels attached to the block start, in source order.
  std::vector<std::string> Labels;
  /// Instruction entries, in order (iterators into the unit's entry list).
  std::vector<EntryIter> Insns;
  std::vector<unsigned> Succs;
  std::vector<unsigned> Preds;

  bool empty() const { return Insns.empty(); }
  Instruction &lastInstruction() { return Insns.back()->instruction(); }
  const Instruction &lastInstruction() const {
    return std::as_const(*Insns.back()).instruction();
  }
};

/// Control-flow graph of one function. Block 0 is the function entry.
class CFG {
public:
  /// Builds the CFG for \p Fn. Direct branches are resolved immediately;
  /// indirect jumps are attempted with the same-block jump-table pattern
  /// (Tier 1) and otherwise recorded in unresolvedJumps() and reflected in
  /// Fn.HasUnresolvedIndirect.
  static CFG build(MaoFunction &Fn);

  std::vector<BasicBlock> &blocks() { return Blocks; }
  const std::vector<BasicBlock> &blocks() const { return Blocks; }
  MaoFunction &function() const { return *Fn; }

  /// Block starting with \p Label, or ~0u.
  unsigned blockOfLabel(const std::string &Label) const;

  /// Adds an edge (idempotent).
  void addEdge(unsigned From, unsigned To);

  /// Indirect jumps not yet resolved: (block index, jump instruction).
  struct UnresolvedJump {
    unsigned Block;
    EntryIter Jump;
  };
  std::vector<UnresolvedJump> &unresolvedJumps() { return Unresolved; }

  /// Reads the jump-table rooted at \p TableLabel: consecutive .quad/.long
  /// entries naming code labels. Returns label names (empty when the
  /// pattern does not hold). Shared by both resolution tiers.
  static std::vector<std::string> readJumpTable(MaoUnit &Unit,
                                                const std::string &TableLabel);

  /// Checks whether \p Insn is a jump-table load into register \p JumpReg
  /// ("movq TBL(,%rI,8), %rT"); returns the table label or "".
  static std::string matchTableLoad(const Instruction &Insn, Reg JumpReg);

  /// Connects \p Jump in \p Block to the blocks named by \p TableLabel's
  /// entries. Returns false when the table is empty/unreadable.
  bool connectJumpTable(unsigned Block, const std::string &TableLabel);

  /// Statistics for the indirect-branch experiment (E3).
  struct Stats {
    unsigned IndirectJumps = 0;
    unsigned ResolvedSameBlock = 0;
    unsigned ResolvedReachingDefs = 0; // Filled by resolveIndirectJumps().
  };
  Stats &stats() { return TheStats; }
  const Stats &stats() const { return TheStats; }

private:
  std::vector<BasicBlock> Blocks;
  std::unordered_map<std::string, unsigned> LabelToBlock;
  std::vector<UnresolvedJump> Unresolved;
  MaoFunction *Fn = nullptr;
  Stats TheStats;
};

} // namespace mao

#endif // MAO_ANALYSIS_CFG_H
