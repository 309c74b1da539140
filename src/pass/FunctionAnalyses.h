//===- pass/FunctionAnalyses.h - Analyses kept between passes ---*- C++ -*-===//
///
/// \file
/// The paper gives MAO one per-function CFG that every pass consults (Sec.
/// II). The pass pipeline keeps it: each function owns its flat CFG (both
/// indirect-jump tiers applied), the loop structure graph over it and the
/// block liveness, built on first use and kept until the function's edit
/// epochs say they moved (DESIGN.md, "Analysis lifetime"):
///  - a control-flow edit drops the CFG and its loops;
///  - any other edit of a label or an instruction only re-derives the
///    blocks' instruction ranges, and liveness is recomputed.
/// A reference returned here stays valid until the next call for the same
/// function, which may refresh it in place: a pass takes what it needs at
/// its start and does not hold block spans across a later call.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_PASS_FUNCTIONANALYSES_H
#define MAO_PASS_FUNCTIONANALYSES_H

#include "analysis/CFG.h"
#include "analysis/Dataflow.h"
#include "analysis/Loops.h"
#include "ir/Verifier.h"

#include <string>

namespace mao {

/// \p Fn's kept CFG, resolved by both tiers.
const CFG &keptCFG(MaoFunction &Fn);

/// The loop structure graph over keptCFG(Fn).
const LoopStructureGraph &keptLoops(MaoFunction &Fn);

/// Block liveness over keptCFG(Fn), recomputed when the function's
/// instruction epoch moved.
const LivenessResult &keptLiveness(MaoFunction &Fn);

/// The verify-stale-cfg check: compares every kept CFG that no
/// control-flow edit dropped, as keptCFG() would return it, with a fresh
/// CFG::build plus resolveIndirectJumps (blocks' entries and labels,
/// successor and predecessor sets, unresolved jumps and
/// HasUnresolvedIndirect) and reports each mismatch as
/// DiagCode::VerifyStaleCFG, like verifyUnit's issues.
VerifierReport verifyKeptAnalyses(MaoUnit &Unit, DiagEngine *Diags,
                                  const std::string &Context);

} // namespace mao

#endif // MAO_PASS_FUNCTIONANALYSES_H
