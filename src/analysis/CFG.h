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

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mao {

/// One basic block: a maximal straight-line run of instructions. The block
/// is a view: its fields are ranges of the CFG's flat per-function arrays
/// (entries in block order, CSR successor and predecessor rows).
struct BasicBlock {
  unsigned Index = 0;
  /// Label entries attached to the block start, in source order.
  std::span<const EntryIter> Labels;
  /// Instruction entries, in order (iterators into the unit's entry list).
  std::span<const EntryIter> Insns;
  std::span<const unsigned> Succs;
  std::span<const unsigned> Preds;

  bool empty() const { return Insns.empty(); }
  /// True when the block holds nothing observable (NOPs at most): such a
  /// block may appear or vanish freely.
  bool isInert() const {
    for (EntryIter It : Insns)
      if (!std::as_const(*It).instruction().isNop())
        return false;
    return true;
  }
  const Instruction &lastInstruction() const {
    return std::as_const(*Insns.back()).instruction();
  }
};

/// Control-flow graph of one function. Block 0 is the function entry. The
/// blocks view arrays the CFG owns, so a CFG moves but does not copy.
class CFG {
public:
  CFG() = default;
  CFG(CFG &&) = default;
  CFG &operator=(CFG &&) = default;
  CFG(const CFG &) = delete;
  CFG &operator=(const CFG &) = delete;

  /// Builds the CFG for \p Fn. Direct branches are resolved immediately;
  /// indirect jumps are attempted with the same-block jump-table pattern
  /// (Tier 1) and otherwise recorded in unresolvedJumps() and reflected in
  /// Fn.HasUnresolvedIndirect. Counted in analysis.cfg_builds.
  static CFG build(MaoFunction &Fn);

  const std::vector<BasicBlock> &blocks() const { return Blocks; }
  MaoFunction &function() const { return *Fn; }

  /// Block starting with \p Label, or ~0u. Labels are held by entry id:
  /// the unit's label map names the entry, a sorted id table the block.
  unsigned blockOfLabel(std::string_view Label) const;

  /// Adds edges (idempotent), after the ones already present.
  void addEdges(const std::vector<std::pair<unsigned, unsigned>> &Edges);

  /// Brings the blocks' instruction ranges up to date after edits that
  /// were not control-flow edits, with one walk of the function. Returns
  /// false, leaving the CFG as it was, when the blocks would no longer be
  /// those of a fresh build: a different block count or different block
  /// labels, a same-block table load that no longer feeds its jump, or an
  /// indirect jump left to (or resolved by) the reaching-definitions tier,
  /// which reads the whole function.
  bool refreshInstructions();

  /// Indirect jumps not yet resolved: (block index, jump instruction).
  struct UnresolvedJump {
    unsigned Block;
    EntryIter Jump;
  };
  std::vector<UnresolvedJump> &unresolvedJumps() { return Unresolved; }
  const std::vector<UnresolvedJump> &unresolvedJumps() const {
    return Unresolved;
  }

  /// Checks whether \p Insn is a jump-table load into register \p JumpReg
  /// ("movq TBL(,%rI,8), %rT"); returns the table label or "".
  static std::string matchTableLoad(const Instruction &Insn, Reg JumpReg);

  /// Reads the jump table rooted at \p TableLabel (consecutive .quad/.long
  /// entries naming code labels) and returns the blocks they name, in
  /// table order; targets outside this function are dropped. Empty when
  /// the pattern does not hold. Shared by both resolution tiers.
  std::vector<unsigned> jumpTableBlocks(const std::string &TableLabel) const;

  /// Statistics for the indirect-branch experiment (E3).
  struct Stats {
    unsigned IndirectJumps = 0;
    unsigned ResolvedSameBlock = 0;
    unsigned ResolvedReachingDefs = 0; // Filled by resolveIndirectJumps().
  };
  Stats &stats() { return TheStats; }
  const Stats &stats() const { return TheStats; }

private:
  /// Block formation over \p Fn's labels and instructions: fills the flat
  /// arrays and the per-block offsets into them (one past the last block
  /// included).
  static void formBlocks(MaoFunction &Fn, std::vector<EntryIter> &Insns,
                         std::vector<EntryIter> &Labels,
                         std::vector<unsigned> &InsnStart,
                         std::vector<unsigned> &LabelStart);
  /// Points every block's Insns at InsnList per \p InsnStart.
  void viewInstructions(const std::vector<unsigned> &InsnStart);
  /// Tier 1: the table a load in \p Insns feeds into their closing
  /// `jmp *%r`, or "".
  static std::string sameBlockTable(std::span<const EntryIter> Insns);
  /// Appends \p Edges, none of them present yet, to the CSR rows: each
  /// row keeps its edges and takes its new ones after them, in order.
  void appendEdges(const std::vector<std::pair<unsigned, unsigned>> &Edges);

  std::vector<BasicBlock> Blocks;
  std::vector<EntryIter> InsnList;
  std::vector<EntryIter> LabelList;
  std::vector<unsigned> SuccList;
  std::vector<unsigned> PredList;
  /// (label entry id, block) of every label in LabelList, sorted.
  std::vector<std::pair<uint32_t, unsigned>> LabelBlocks;
  /// (block, table) of every `jmp *%r` tier 1 resolved.
  std::vector<std::pair<unsigned, std::string>> SameBlockTables;
  std::vector<UnresolvedJump> Unresolved;
  MaoFunction *Fn = nullptr;
  Stats TheStats;
};

} // namespace mao

#endif // MAO_ANALYSIS_CFG_H
