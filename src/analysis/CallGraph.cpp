//===- analysis/CallGraph.cpp - Whole-unit call graph ----------------------==//

#include "analysis/CallGraph.h"

#include <algorithm>
#include <utility>

using namespace mao;

bool mao::stripPltSuffix(std::string &Sym) {
  if (Sym.size() < 4)
    return false;
  size_t At = Sym.size() - 4;
  if (Sym[At] != '@')
    return false;
  const char *Suffix = Sym.c_str() + At + 1;
  if ((Suffix[0] == 'P' || Suffix[0] == 'p') &&
      (Suffix[1] == 'L' || Suffix[1] == 'l') &&
      (Suffix[2] == 'T' || Suffix[2] == 't')) {
    Sym.resize(At);
    return true;
  }
  return false;
}

CallGraph CallGraph::build(MaoUnit &Unit) {
  CallGraph G;
  std::vector<MaoFunction> &Fns = Unit.functions();
  G.Nodes.resize(Fns.size());
  for (unsigned I = 0; I < Fns.size(); ++I) {
    G.Nodes[I].Fn = &Fns[I];
    G.NameToIndex.emplace(Fns[I].name(), I);
  }

  for (unsigned I = 0; I < Fns.size(); ++I) {
    Node &N = G.Nodes[I];
    // Labels belonging to this function: branch targets inside this set are
    // ordinary control flow, everything else leaves the function.
    std::unordered_map<std::string, bool> OwnLabels;
    for (const MaoFunction::Range &R : Fns[I].ranges())
      for (EntryIter It = R.Begin; It != R.End; ++It)
        if (It->isLabel())
          OwnLabels.emplace(It->labelName(), true);

    for (const MaoFunction::Range &R : Fns[I].ranges()) {
      for (EntryIter It = R.Begin; It != R.End; ++It) {
        if (!It->isInstruction())
          continue;
        const Instruction &Insn = std::as_const(*It).instruction();
        if (Insn.isCall()) {
          CallSite Site;
          Site.Insn = It;
          const Operand *Target = Insn.branchTarget();
          if (Target && Target->isSymbol()) {
            Site.Target = Target->Sym;
            bool Plt = stripPltSuffix(Site.Target);
            Site.Kind = Plt ? CallEdgeKind::Plt : CallEdgeKind::Direct;
            auto FnIt = G.NameToIndex.find(Site.Target);
            if (FnIt != G.NameToIndex.end())
              Site.Callee = FnIt->second;
            else
              N.HasExternalCall = true;
          } else {
            Site.Kind = CallEdgeKind::Indirect;
            N.HasIndirectCall = true;
          }
          N.Sites.push_back(std::move(Site));
          continue;
        }
        if (!Insn.isBranch())
          continue;
        const Operand *Target = Insn.branchTarget();
        if (!Target || !Target->isSymbol())
          continue; // Indirect jumps are the CFG resolver's problem.
        std::string Sym = Target->Sym;
        bool Plt = stripPltSuffix(Sym);
        if (!Plt && OwnLabels.count(Sym))
          continue; // Intra-function branch.
        auto FnIt = G.NameToIndex.find(Sym);
        if (FnIt != G.NameToIndex.end()) {
          CallSite Site;
          Site.Insn = It;
          Site.Target = std::move(Sym);
          Site.Kind = CallEdgeKind::TailCall;
          Site.Callee = FnIt->second;
          N.Sites.push_back(std::move(Site));
        } else {
          // Branch to a label we cannot attribute: control escapes.
          N.HasUnknownTailJump = true;
        }
      }
    }

    for (const CallSite &Site : N.Sites)
      if (Site.Callee != CallSite::External)
        N.Callees.push_back(Site.Callee);
    std::sort(N.Callees.begin(), N.Callees.end());
    N.Callees.erase(std::unique(N.Callees.begin(), N.Callees.end()),
                    N.Callees.end());
  }

  // Tarjan's SCC algorithm, iterative. Components are finalized only after
  // everything reachable from them, so Sccs comes out callee-first.
  unsigned N = static_cast<unsigned>(G.Nodes.size());
  G.SccIds.assign(N, ~0u);
  std::vector<unsigned> Index(N, ~0u), LowLink(N, 0);
  std::vector<bool> OnStack(N, false);
  std::vector<unsigned> Stack;
  unsigned NextIndex = 0;

  struct Frame {
    unsigned V;
    size_t NextEdge;
  };
  for (unsigned Root = 0; Root < N; ++Root) {
    if (Index[Root] != ~0u)
      continue;
    std::vector<Frame> DfsStack{{Root, 0}};
    Index[Root] = LowLink[Root] = NextIndex++;
    Stack.push_back(Root);
    OnStack[Root] = true;
    while (!DfsStack.empty()) {
      Frame &F = DfsStack.back();
      const std::vector<unsigned> &Edges = G.Nodes[F.V].Callees;
      if (F.NextEdge < Edges.size()) {
        unsigned W = Edges[F.NextEdge++];
        if (Index[W] == ~0u) {
          Index[W] = LowLink[W] = NextIndex++;
          Stack.push_back(W);
          OnStack[W] = true;
          DfsStack.push_back({W, 0});
        } else if (OnStack[W]) {
          LowLink[F.V] = std::min(LowLink[F.V], Index[W]);
        }
        continue;
      }
      unsigned V = F.V;
      DfsStack.pop_back();
      if (!DfsStack.empty())
        LowLink[DfsStack.back().V] =
            std::min(LowLink[DfsStack.back().V], LowLink[V]);
      if (LowLink[V] == Index[V]) {
        std::vector<unsigned> Members;
        unsigned W;
        do {
          W = Stack.back();
          Stack.pop_back();
          OnStack[W] = false;
          G.SccIds[W] = static_cast<unsigned>(G.Sccs.size());
          Members.push_back(W);
        } while (W != V);
        std::sort(Members.begin(), Members.end());
        G.Sccs.push_back(std::move(Members));
      }
    }
  }
  return G;
}

unsigned CallGraph::indexOf(const std::string &Name) const {
  auto It = NameToIndex.find(Name);
  return It == NameToIndex.end() ? ~0u : It->second;
}

bool CallGraph::sccIsRecursive(unsigned Scc) const {
  const std::vector<unsigned> &Members = Sccs[Scc];
  if (Members.size() > 1)
    return true;
  unsigned V = Members.front();
  const std::vector<unsigned> &Edges = Nodes[V].Callees;
  return std::find(Edges.begin(), Edges.end(), V) != Edges.end();
}
