//===- pass/FunctionAnalyses.cpp - Analyses kept between passes ------------==//

#include "pass/FunctionAnalyses.h"

#include "support/Timeline.h"

#include <algorithm>
#include <cassert>
#include <optional>

namespace mao {

/// What MaoFunction::Kept holds, with the epochs each part was made at.
struct KeptAnalyses {
  CFG Graph;
  uint32_t ControlFlowEpoch = 0;
  uint32_t InstructionEpoch = 0;
  std::optional<LoopStructureGraph> Loops;
  std::optional<LivenessResult> Liveness;
  uint32_t LivenessEpoch = 0;
};

} // namespace mao

using namespace mao;

namespace {

CFG buildResolved(MaoFunction &Fn) {
  CFG G = CFG::build(Fn);
  resolveIndirectJumps(G);
  return G;
}

/// Records that \p K's CFG matches \p Fn as it is now.
void caughtUp(KeptAnalyses &K, MaoFunction &Fn) {
  K.ControlFlowEpoch = Fn.Epochs.ControlFlow;
  K.InstructionEpoch = Fn.Epochs.Instructions;
}

KeptAnalyses &current(MaoFunction &Fn) {
  KeptAnalyses *K = Fn.Kept.get();
  if (K && K->ControlFlowEpoch == Fn.Epochs.ControlFlow) {
    if (K->InstructionEpoch == Fn.Epochs.Instructions)
      return *K;
    PhaseTimer Timer("analysis", "time.phase.analysis_us");
    if (K->Graph.refreshInstructions()) {
      caughtUp(*K, Fn);
      return *K;
    }
  }
  PhaseTimer Timer("analysis", "time.phase.analysis_us");
  if (!K) {
    Fn.Kept = {new KeptAnalyses, [](KeptAnalyses *P) { delete P; }};
    K = Fn.Kept.get();
  }
  const uint32_t Edits = Fn.Epochs.Instructions;
  K->Graph = buildResolved(Fn);
  assert(Fn.Epochs.Instructions == Edits && "building the CFG edited it");
  (void)Edits;
  caughtUp(*K, Fn);
  K->Loops.reset();
  K->Liveness.reset();
  return *K;
}

/// The first difference between \p Kept and \p Fresh, or "".
std::string firstDifference(const CFG &Kept, const CFG &Fresh) {
  auto Sorted = [](std::span<const unsigned> S) {
    std::vector<unsigned> V(S.begin(), S.end());
    std::sort(V.begin(), V.end());
    return V;
  };
  const auto &KB = Kept.blocks(), &FB = Fresh.blocks();
  if (KB.size() != FB.size())
    return std::to_string(KB.size()) + " blocks, a fresh build has " +
           std::to_string(FB.size());
  for (size_t B = 0; B < KB.size(); ++B) {
    const std::string Block = "block " + std::to_string(B);
    if (!std::equal(KB[B].Insns.begin(), KB[B].Insns.end(),
                    FB[B].Insns.begin(), FB[B].Insns.end()))
      return Block + ": instructions differ";
    if (!std::equal(KB[B].Labels.begin(), KB[B].Labels.end(),
                    FB[B].Labels.begin(), FB[B].Labels.end()))
      return Block + ": labels differ";
    if (Sorted(KB[B].Succs) != Sorted(FB[B].Succs))
      return Block + ": successors differ";
    if (Sorted(KB[B].Preds) != Sorted(FB[B].Preds))
      return Block + ": predecessors differ";
  }
  const auto &KU = Kept.unresolvedJumps(), &FU = Fresh.unresolvedJumps();
  if (!std::equal(KU.begin(), KU.end(), FU.begin(), FU.end(),
                  [](const CFG::UnresolvedJump &A,
                     const CFG::UnresolvedJump &B) {
                    return A.Block == B.Block && A.Jump == B.Jump;
                  }))
    return "unresolved jumps differ";
  return "";
}

} // namespace

const CFG &mao::keptCFG(MaoFunction &Fn) { return current(Fn).Graph; }

const LoopStructureGraph &mao::keptLoops(MaoFunction &Fn) {
  KeptAnalyses &K = current(Fn);
  if (!K.Loops) {
    PhaseTimer Timer("analysis", "time.phase.analysis_us");
    K.Loops = LoopStructureGraph::build(K.Graph);
  }
  return *K.Loops;
}

const LivenessResult &mao::keptLiveness(MaoFunction &Fn) {
  KeptAnalyses &K = current(Fn);
  if (!K.Liveness || K.LivenessEpoch != Fn.Epochs.Instructions) {
    PhaseTimer Timer("analysis", "time.phase.analysis_us");
    K.Liveness = computeLiveness(K.Graph);
    K.LivenessEpoch = Fn.Epochs.Instructions;
  }
  return *K.Liveness;
}

VerifierReport mao::verifyKeptAnalyses(MaoUnit &Unit, DiagEngine *Diags,
                                       const std::string &Context) {
  VerifierReport Report;
  for (MaoFunction &Fn : Unit.functions()) {
    const KeptAnalyses *K = Fn.Kept.get();
    if (!K || K->ControlFlowEpoch != Fn.Epochs.ControlFlow)
      continue; // Nothing kept, or dropped by a control-flow edit.
    const CFG &Kept = keptCFG(Fn); // What the next pass would get.
    const bool KeptUnresolved = Fn.HasUnresolvedIndirect;
    CFG Fresh = buildResolved(Fn);
    std::string Why = firstDifference(Kept, Fresh);
    if (Why.empty() && KeptUnresolved != Fn.HasUnresolvedIndirect)
      Why = "HasUnresolvedIndirect differs";
    if (Why.empty())
      continue;
    Diagnostic D;
    D.Severity = DiagSeverity::Error;
    D.Code = DiagCode::VerifyStaleCFG;
    D.PassName = Context;
    D.Message = "function " + Fn.name() +
                ": kept CFG differs from a fresh build: " + Why;
    if (Diags)
      Diags->report(D);
    Report.Issues.push_back(std::move(D));
  }
  return Report;
}
