//===- check/SemanticValidator.cpp - Per-pass translation validation ------===//

#include "check/SemanticValidator.h"

#include "analysis/CFG.h"
#include "analysis/Dataflow.h"
#include "check/SymbolicEval.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <unordered_map>

using namespace mao;

namespace {

const char *denseRegName(unsigned I) {
  static const char *Names[NumDenseRegs] = {
      "rax",  "rcx",  "rdx",  "rbx",  "rsp",   "rbp",   "rsi",   "rdi",
      "r8",   "r9",   "r10",  "r11",  "r12",   "r13",   "r14",   "r15",
      "xmm0", "xmm1", "xmm2", "xmm3", "xmm4",  "xmm5",  "xmm6",  "xmm7",
      "xmm8", "xmm9", "xmm10", "xmm11", "xmm12", "xmm13", "xmm14", "xmm15"};
  return I < NumDenseRegs ? Names[I] : "?";
}

const char *flagName(unsigned Pos) {
  static const char *Names[NumStatusFlags] = {"CF", "PF", "AF", "ZF", "SF",
                                              "OF"};
  return Pos < NumStatusFlags ? Names[Pos] : "?";
}

/// Everything the validator derives once per function side.
struct FnSide {
  CFG Graph;
  LivenessResult Live;
  std::vector<std::string> Keys;     ///< Stable per-block matching key.
  std::vector<bool> Reachable;
};

/// Labels defined at block starts of \p G.
std::set<std::string> blockLabels(const CFG &G) {
  std::set<std::string> Out;
  for (const BasicBlock &B : G.blocks())
    for (EntryIter L : B.Labels)
      Out.insert(L->labelName());
  return Out;
}

/// Assigns each block a key (anchor label, ordinal since anchor). Anchors
/// are labels present on BOTH sides, so labels a pass invents (alignment
/// targets, relaxation islands) do not desynchronize the matching; blocks
/// between anchors match by position. A block headed by several anchors is
/// keyed by the last: the labels before it may have headed code a pass
/// deleted (DCE leaves a dead block's label on the next block), so only
/// the last one names the same code on both sides.
std::vector<std::string> blockKeys(const CFG &G,
                                   const std::set<std::string> &Common) {
  std::vector<std::string> Keys;
  std::string Anchor; // Entry anchor is "".
  unsigned Ordinal = 0;
  for (const BasicBlock &B : G.blocks()) {
    for (auto L = B.Labels.rbegin(); L != B.Labels.rend(); ++L)
      if (Common.count((*L)->labelName())) {
        Anchor = (*L)->labelName();
        Ordinal = 0;
        break;
      }
    Keys.push_back(Anchor + "#" + std::to_string(Ordinal));
    ++Ordinal;
  }
  return Keys;
}

std::vector<bool> reachableBlocks(const CFG &G, bool AllReachable) {
  std::vector<bool> Seen(G.blocks().size(), AllReachable);
  if (AllReachable || G.blocks().empty())
    return Seen;
  std::vector<unsigned> Work = {0};
  Seen[0] = true;
  while (!Work.empty()) {
    unsigned B = Work.back();
    Work.pop_back();
    for (unsigned S : G.blocks()[B].Succs)
      if (!Seen[S]) {
        Seen[S] = true;
        Work.push_back(S);
      }
  }
  return Seen;
}

std::string blockDisplayName(const BasicBlock &B) {
  if (!B.Labels.empty())
    return B.Labels.front()->labelName();
  if (B.Index == 0)
    return "<entry>";
  return "<block " + std::to_string(B.Index) + ">";
}

std::vector<const Instruction *> blockInsns(const BasicBlock &B) {
  std::vector<const Instruction *> Out;
  Out.reserve(B.Insns.size());
  for (EntryIter It : B.Insns)
    if (It->isInstruction())
      Out.push_back(&std::as_const(*It).instruction());
  return Out;
}

/// Non-NOP instruction text of a block, for the textual fallback on
/// unmodelled content.
std::vector<std::string> blockText(const BasicBlock &B) {
  std::vector<std::string> Out;
  for (const Instruction *I : blockInsns(B))
    if (!I->isNop())
      Out.push_back(I->toString());
  return Out;
}

class Validator {
public:
  explicit Validator(MaoUnit &Before, MaoUnit &After)
      : Before(Before), After(After) {}

  ValidationReport run();

private:
  void checkFunction(MaoFunction &FnB, MaoFunction &FnA);
  void compareBlocks(const FnSide &SideB, const FnSide &SideA, unsigned BiB,
                     unsigned BiA, const std::string &FnName);
  void diverge(const std::string &Fn, const BasicBlock &B, std::string Detail);

  /// Maps a direct branch target to a comparable name: the matching key when
  /// the label is inside the function, else the raw label (external target).
  static std::string targetKey(const FnSide &S, const std::string &Label) {
    unsigned B = S.Graph.blockOfLabel(Label);
    return B == ~0u ? "@" + Label : S.Keys[B];
  }

  MaoUnit &Before;
  MaoUnit &After;
  ValidationReport Report;
  /// Before-side fallthrough blocks of inverted branches, paired with the
  /// after-side blocks those branches now jump to (one function at a time).
  std::unordered_map<unsigned, unsigned> MatchedByBranch;
  static constexpr unsigned MaxDivergences = 20;
};

void Validator::diverge(const std::string &Fn, const BasicBlock &B,
                        std::string Detail) {
  Report.Equivalent = false;
  if (Report.Divergences.size() >= MaxDivergences)
    return;
  Report.Divergences.push_back(
      {Fn, blockDisplayName(B), B.Index, std::move(Detail)});
}

void Validator::compareBlocks(const FnSide &SideB, const FnSide &SideA,
                              unsigned BiB, unsigned BiA,
                              const std::string &FnName) {
  const BasicBlock &BB = SideB.Graph.blocks()[BiB];
  const BasicBlock &BA = SideA.Graph.blocks()[BiA];
  ++Report.BlocksChecked;

  SymTable T;
  BlockEvaluator EvB(T), EvA(T);
  BlockSummary SB = EvB.evaluate(blockInsns(BB));
  BlockSummary SA = EvA.evaluate(blockInsns(BA));

  if (!SB.Supported || !SA.Supported) {
    ++Report.BlocksFallback;
    if (blockText(BB) != blockText(BA))
      diverge(FnName, BA,
              "block contains unmodelled instructions and its text changed (" +
                  (SB.Supported ? SA.UnsupportedWhy : SB.UnsupportedWhy) + ")");
    return;
  }

  // Registers and flags: only live-out state is observable. Take the union
  // of both sides' liveness so neither side can hide a change behind its own
  // (possibly already wrong) CFG.
  RegMask LiveRegs =
      SideB.Live.RegLiveOut[BiB] | SideA.Live.RegLiveOut[BiA];
  uint8_t LiveFlags = (SideB.Live.FlagsLiveOut[BiB] |
                       SideA.Live.FlagsLiveOut[BiA]) &
                      FlagsAllStatus;

  for (unsigned I = 0; I < NumDenseRegs; ++I) {
    if (!(LiveRegs & (1u << I)))
      continue;
    if (SB.Regs[I] != SA.Regs[I]) {
      diverge(FnName, BA,
              std::string("live-out register %") + denseRegName(I) +
                  " differs: " + renderNode(T, SB.Regs[I]) + " vs " +
                  renderNode(T, SA.Regs[I]));
      return;
    }
  }
  for (unsigned F = 0; F < NumStatusFlags; ++F) {
    if (!(LiveFlags & (1u << F)))
      continue;
    if (SB.Flags[F] != SA.Flags[F]) {
      diverge(FnName, BA,
              std::string("live-out flag ") + flagName(F) +
                  " differs: " + renderNode(T, SB.Flags[F]) + " vs " +
                  renderNode(T, SA.Flags[F]));
      return;
    }
  }

  if (SB.Stores != SA.Stores) {
    size_t N = std::min(SB.Stores.size(), SA.Stores.size());
    std::string Detail = "store sequence differs";
    for (size_t I = 0; I < N; ++I)
      if (!(SB.Stores[I] == SA.Stores[I])) {
        Detail += " at store " + std::to_string(I) + ": [" +
                  renderNode(T, SB.Stores[I].Addr) +
                  "] := " + renderNode(T, SB.Stores[I].Value) + " vs [" +
                  renderNode(T, SA.Stores[I].Addr) +
                  "] := " + renderNode(T, SA.Stores[I].Value);
        break;
      }
    if (SB.Stores.size() != SA.Stores.size())
      Detail += " (" + std::to_string(SB.Stores.size()) + " vs " +
                std::to_string(SA.Stores.size()) + " stores)";
    diverge(FnName, BA, Detail);
    return;
  }
  if (SB.Calls != SA.Calls) {
    diverge(FnName, BA, "call sequence differs (" +
                            std::to_string(SB.Calls.size()) + " vs " +
                            std::to_string(SA.Calls.size()) + " calls)");
    return;
  }
  if (SB.Opaques != SA.Opaques) {
    diverge(FnName, BA, "opaque-instruction sequence differs");
    return;
  }

  // Terminator.
  const Terminator &TB = SB.Term, &TA = SA.Term;
  if (TB.Kind != TA.Kind) {
    diverge(FnName, BA, "terminator kind differs");
    return;
  }
  switch (TB.Kind) {
  case TermKind::Fallthrough:
    break; // Position-based matching covers the successor.
  case TermKind::Jump:
    if (targetKey(SideB, TB.TargetLabel) != targetKey(SideA, TA.TargetLabel))
      diverge(FnName, BA, "jump target differs: " + TB.TargetLabel + " vs " +
                              TA.TargetLabel);
    break;
  case TermKind::CondJump: {
    const std::string TakenB = targetKey(SideB, TB.TargetLabel);
    if (TB.Cond == TA.Cond) {
      if (TakenB != targetKey(SideA, TA.TargetLabel))
        diverge(FnName, BA, "branch target differs: " + TB.TargetLabel +
                                " vs " + TA.TargetLabel);
      break;
    }
    // (¬c, F, T) ≡ (c, T, F): the inverted branch now falls through to the
    // old target and jumps to the old fallthrough block, which the pass may
    // have moved and labelled; that block is then matched to the new target.
    const unsigned TakenA = SideA.Graph.blockOfLabel(TA.TargetLabel);
    if (TB.Cond == TA.InvertedCond && TakenA != ~0u &&
        BiB + 1 < SideB.Keys.size() && BiA + 1 < SideA.Keys.size() &&
        TakenB == SideA.Keys[BiA + 1]) {
      MatchedByBranch.emplace(BiB + 1, TakenA);
      break;
    }
    diverge(FnName, BA,
            "branch condition differs: " + renderNode(T, TB.Cond) + " vs " +
                renderNode(T, TA.Cond));
    return;
  }
  case TermKind::IndirectJump:
    if (TB.Target != TA.Target)
      diverge(FnName, BA, "indirect jump target expression differs: " +
                              renderNode(T, TB.Target) + " vs " +
                              renderNode(T, TA.Target));
    break;
  case TermKind::Return:
    if (TB.RetValues != TA.RetValues)
      diverge(FnName, BA, "return-value state differs");
    break;
  }
}

void Validator::checkFunction(MaoFunction &FnB, MaoFunction &FnA) {
  ++Report.FunctionsChecked;

  FnSide SideB{CFG::build(FnB), {}, {}, {}};
  FnSide SideA{CFG::build(FnA), {}, {}, {}};
  resolveIndirectJumps(SideB.Graph);
  resolveIndirectJumps(SideA.Graph);
  SideB.Live = computeLiveness(SideB.Graph);
  SideA.Live = computeLiveness(SideA.Graph);

  std::set<std::string> LabelsB = blockLabels(SideB.Graph);
  std::set<std::string> LabelsA = blockLabels(SideA.Graph);
  std::set<std::string> Common;
  std::set_intersection(LabelsB.begin(), LabelsB.end(), LabelsA.begin(),
                        LabelsA.end(), std::inserter(Common, Common.begin()));

  SideB.Keys = blockKeys(SideB.Graph, Common);
  SideA.Keys = blockKeys(SideA.Graph, Common);
  SideB.Reachable =
      reachableBlocks(SideB.Graph, FnB.HasUnresolvedIndirect);
  SideA.Reachable =
      reachableBlocks(SideA.Graph, FnA.HasUnresolvedIndirect);

  std::unordered_map<std::string, unsigned> KeyToA;
  for (unsigned I = 0; I < SideA.Keys.size(); ++I)
    KeyToA.emplace(SideA.Keys[I], I);

  std::vector<bool> MatchedA(SideA.Keys.size(), false);
  MatchedByBranch.clear();
  for (unsigned BiB = 0; BiB < SideB.Keys.size(); ++BiB) {
    if (!SideB.Reachable[BiB])
      continue; // Unreachable before the pass: nothing observable.
    // A block's inverted predecessor comes before it, so its pairing is
    // known by now.
    unsigned BiA;
    if (auto Paired = MatchedByBranch.find(BiB);
        Paired != MatchedByBranch.end()) {
      BiA = Paired->second;
    } else if (auto It = KeyToA.find(SideB.Keys[BiB]); It != KeyToA.end()) {
      BiA = It->second;
    } else {
      const BasicBlock &BB = SideB.Graph.blocks()[BiB];
      if (!BB.isInert())
        diverge(FnB.name(), BB,
                "reachable block disappeared from the pass output");
      continue;
    }
    MatchedA[BiA] = true;
    compareBlocks(SideB, SideA, BiB, BiA, FnB.name());
    if (Report.Divergences.size() >= MaxDivergences)
      return;
  }

  // Blocks the pass introduced: harmless when inert or unreachable.
  for (unsigned BiA = 0; BiA < SideA.Keys.size(); ++BiA) {
    if (MatchedA[BiA] || !SideA.Reachable[BiA])
      continue;
    const BasicBlock &BA = SideA.Graph.blocks()[BiA];
    if (!BA.isInert())
      diverge(FnA.name(), BA,
              "pass introduced a reachable block with no counterpart");
  }
}

ValidationReport Validator::run() {
  for (MaoFunction &FnB : Before.functions()) {
    MaoFunction *FnA = After.findFunction(FnB.name());
    if (!FnA) {
      Report.Equivalent = false;
      Report.Divergences.push_back(
          {FnB.name(), "<function>", 0,
           "function disappeared from the pass output"});
      continue;
    }
    checkFunction(FnB, *FnA);
  }
  for (MaoFunction &FnA : After.functions()) {
    if (!Before.findFunction(FnA.name())) {
      Report.Equivalent = false;
      Report.Divergences.push_back(
          {FnA.name(), "<function>", 0, "pass introduced a new function"});
    }
  }
  return Report;
}

} // namespace

std::string SemanticDivergence::toString() const {
  return "function '" + Function + "', block '" + Block + "' (index " +
         std::to_string(BlockIndex) + "): " + Detail;
}

std::string ValidationReport::firstMessage() const {
  return Divergences.empty() ? std::string() : Divergences.front().toString();
}

ValidationReport mao::validateSemantics(MaoUnit &Before, MaoUnit &After) {
  Validator V(Before, After);
  return V.run();
}
