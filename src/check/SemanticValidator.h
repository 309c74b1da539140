//===- check/SemanticValidator.h - Per-pass translation validation -*- C++ -*-//
///
/// \file
/// The MaoCheck semantic validator: proves (per function, per basic block)
/// that a pass preserved observable behaviour, by symbolically evaluating
/// each block of the pre-pass checkpoint and the post-pass unit into a
/// shared hash-consed DAG (SymbolicEval.h) and comparing the observable
/// outputs — live-out registers and flags, the ordered store/call/opaque
/// event lists, and the terminator. The comparison is conservative: a
/// reported divergence names the first block whose observables differ, and
/// blocks outside the modelled subset fall back to a textual comparison.
///
/// Wired into the transactional pass runner via
/// PipelineOptions::SemanticCheck (--mao-validate=semantic), so a
/// semantics-changing pass is rolled back or skipped under the existing
/// OnErrorPolicy machinery.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_CHECK_SEMANTICVALIDATOR_H
#define MAO_CHECK_SEMANTICVALIDATOR_H

#include "ir/MaoUnit.h"

#include <string>
#include <vector>

namespace mao {

/// One point of semantic disagreement between checkpoint and result.
struct SemanticDivergence {
  std::string Function;
  std::string Block;   ///< First label of the block, or "<entry>"/"<block N>".
  unsigned BlockIndex = 0;
  std::string Detail;  ///< Which observable differs, with both expressions.

  std::string toString() const;
};

/// Outcome of one validation run.
struct ValidationReport {
  bool Equivalent = true;
  std::vector<SemanticDivergence> Divergences;
  unsigned FunctionsChecked = 0;
  unsigned BlocksChecked = 0;
  /// Blocks compared textually because they contain unmodelled instructions.
  unsigned BlocksFallback = 0;

  /// The first divergence rendered as a one-line message ("" when clean).
  std::string firstMessage() const;
};

/// Validates that \p After is observably equivalent to \p Before.
ValidationReport validateSemantics(MaoUnit &Before, MaoUnit &After);

} // namespace mao

#endif // MAO_CHECK_SEMANTICVALIDATOR_H
