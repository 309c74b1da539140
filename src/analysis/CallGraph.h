//===- analysis/CallGraph.h - Whole-unit call graph -------------*- C++ -*-===//
///
/// \file
/// The interprocedural layer's backbone: one node per unit function, one
/// CallSite per call/tail-jump instruction, classified as Direct (plain
/// `call sym` to a function in this unit), Plt (`call sym@PLT` resolving to
/// a unit function — still an edge, but the lazy-binding stub may clobber
/// %r10/%r11 on top of the callee), Indirect (`call *%reg` / `call *mem`),
/// or TailCall (`jmp sym` to another unit function). Calls to symbols the
/// unit does not define are external: they stay in the site list with no
/// edge, and summary consumers fall back to the architectural ABI model.
///
/// On top of the edges the graph computes Tarjan's strongly-connected
/// components; Tarjan finalizes each SCC only after every SCC reachable
/// from it, so the components come out callee-first — exactly the
/// bottom-up order the summary fixpoint (Summaries.h) wants.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_ANALYSIS_CALLGRAPH_H
#define MAO_ANALYSIS_CALLGRAPH_H

#include "ir/MaoUnit.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace mao {

enum class CallEdgeKind : uint8_t { Direct, Plt, Indirect, TailCall };

/// Strips a trailing "@PLT" (any case) from \p Sym in place. Returns true
/// when the suffix was present.
bool stripPltSuffix(std::string &Sym);

/// One call or tail-jump instruction inside a function.
struct CallSite {
  /// Callee's function index, or External for targets outside the unit
  /// (including every Indirect site).
  static constexpr unsigned External = ~0u;
  unsigned Callee = External;
  CallEdgeKind Kind = CallEdgeKind::Direct;
  /// Target symbol with any @PLT suffix stripped; empty for Indirect.
  std::string Target;
  /// The call/jmp entry in the unit list.
  EntryIter Insn;
};

class CallGraph {
public:
  struct Node {
    MaoFunction *Fn = nullptr;
    /// Every call site in source order (Direct, Plt, Indirect, TailCall).
    std::vector<CallSite> Sites;
    /// Resolved local callees (deduplicated, ascending) — the edge set the
    /// SCC condensation runs over. Includes Plt and TailCall edges.
    std::vector<unsigned> Callees;
    bool HasIndirectCall = false;
    /// A direct/PLT call to a symbol the unit does not define.
    bool HasExternalCall = false;
    /// A branch leaves the function for a target that is neither a label
    /// of this function nor a known function — control flow escapes in a
    /// way the summaries cannot model.
    bool HasUnknownTailJump = false;
  };

  /// Builds the graph over \p Unit's current function structure.
  static CallGraph build(MaoUnit &Unit);

  size_t size() const { return Nodes.size(); }
  const Node &node(unsigned I) const { return Nodes[I]; }
  /// Function index by name, or ~0u.
  unsigned indexOf(const std::string &Name) const;

  /// SCC id of a function (ids are dense, callee-first).
  unsigned sccOf(unsigned Fn) const { return SccIds[Fn]; }
  /// Member function indices per SCC, in callee-first SCC order.
  const std::vector<std::vector<unsigned>> &sccs() const { return Sccs; }
  /// True when the SCC has more than one member or a self edge.
  bool sccIsRecursive(unsigned Scc) const;

private:
  std::vector<Node> Nodes;
  std::unordered_map<std::string, unsigned> NameToIndex;
  std::vector<unsigned> SccIds;
  std::vector<std::vector<unsigned>> Sccs;
};

} // namespace mao

#endif // MAO_ANALYSIS_CALLGRAPH_H
