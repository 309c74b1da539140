//===- ir/Verifier.h - IR and layout consistency verifier -------*- C++ -*-===//
///
/// \file
/// Consistency checking for a MaoUnit, runnable standalone (maofuzz, tests)
/// and after every pass by the transactional pass runner. The invariants:
///
///  1. Structure: the unit's maintained views (sections, functions, label
///     map) equal a fresh derivation from the entry list, ignoring ranges
///     that edits emptied, and section and function entry chains are
///     well-formed — every range endpoint is an entry of the unit (or
///     end()), Begin precedes End, ranges are ordered and disjoint, and
///     every function starts at a label carrying its own name.
///  2. Labels: no local label (".L" prefix) is defined twice, and every
///     local-label reference from an instruction operand resolves to a
///     definition. (Non-local symbols may legitimately be external.)
///  3. Encoding: every non-opaque instruction still encodes through the
///     binary x86 encoder — a pass cannot have produced an operand
///     combination the byte-level substrate cannot realize.
///  4. Layout: repeated relaxation converges within the paper's iteration
///     bound, and the resulting addresses/sizes are self-consistent:
///     addresses accumulate monotonically from the annotated sizes with no
///     gap or overlap, and every relaxed direct branch holds a valid
///     rel8/rel32 choice that is a fixpoint (a rel8 branch's displacement
///     actually fits) — the branch-displacement well-formedness conditions
///     of Boender & Sacerdoti Coen.
///
/// The structure and layout checks start with the view comparison and
/// report a stale view as VerifyStaleView, naming the first section,
/// function or label that differs; the layout check, which walks the
/// views, is then skipped. The verifier never repairs a view. The label
/// and encoding checks walk the raw entry list and skip the derivation.
/// Layout checks re-run relaxation and therefore refresh the Address/Size
/// annotations; textual emission is unaffected.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_IR_VERIFIER_H
#define MAO_IR_VERIFIER_H

#include "ir/MaoUnit.h"
#include "support/Diag.h"

#include <string>
#include <vector>

namespace mao {

struct VerifierOptions {
  bool CheckStructure = true;
  bool CheckLabels = true;
  bool CheckEncodings = true;
  bool CheckLayout = true;
  /// Stop after this many issues (a corrupted unit fails fast).
  unsigned MaxIssues = 16;

  /// The cheap configuration: label invariants only, one allocation-free
  /// walk over the entry list with no view derivation, no entry index,
  /// no re-encoding, and no relaxation. This is what the pass runner uses
  /// after every pass; drivers run the full configuration once at the end
  /// of the pipeline, where the encoding and layout invariants are checked
  /// a single time instead of once per pass.
  static VerifierOptions fast() {
    VerifierOptions Options;
    Options.CheckStructure = false;
    Options.CheckEncodings = false;
    Options.CheckLayout = false;
    return Options;
  }
};

/// Result of one verification run.
struct [[nodiscard]] VerifierReport {
  std::vector<Diagnostic> Issues;

  bool clean() const { return Issues.empty(); }
  /// First issue rendered as text, or "" when clean.
  std::string firstMessage() const {
    return Issues.empty() ? std::string() : Issues.front().toString();
  }
};

/// Verifies \p Unit against the invariants above. Issues are returned and,
/// when \p Diags is non-null, also reported through the engine (with
/// \p Context as the pass name attribution).
VerifierReport verifyUnit(MaoUnit &Unit, const VerifierOptions &Options = {},
                          DiagEngine *Diags = nullptr,
                          const std::string &Context = {});

} // namespace mao

#endif // MAO_IR_VERIFIER_H
