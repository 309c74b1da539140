//===- analysis/CFG.cpp - Per-function control-flow graph -------------------==//

#include "analysis/CFG.h"

#include "support/Stats.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

using namespace mao;

unsigned CFG::blockOfLabel(std::string_view Label) const {
  const auto &Map = Fn->unit().labelMap();
  if (auto It = Map.find(Label); It != Map.end()) {
    const std::pair<const MaoEntry *, unsigned> Key(&*It->second, 0);
    auto K = std::lower_bound(LabelBlocks.begin(), LabelBlocks.end(), Key);
    if (K != LabelBlocks.end() && K->first == Key.first)
      return K->second;
  }
  // The unit binds the name outside this function (a tail jump, or a name
  // this function defines again): its first definition here, if any.
  for (const BasicBlock &B : Blocks)
    for (EntryIter L : B.Labels)
      if (L->labelName() == Label)
        return B.Index;
  return ~0u;
}

void CFG::addEdges(const std::vector<std::pair<unsigned, unsigned>> &Edges) {
  std::vector<std::pair<unsigned, unsigned>> New;
  for (const auto &Edge : Edges) {
    std::span<const unsigned> Succs = Blocks[Edge.first].Succs;
    if (std::find(Succs.begin(), Succs.end(), Edge.second) == Succs.end() &&
        std::find(New.begin(), New.end(), Edge) == New.end())
      New.push_back(Edge);
  }
  appendEdges(New);
}

void CFG::appendEdges(const std::vector<std::pair<unsigned, unsigned>> &Edges) {
  const size_t N = Blocks.size();
  auto Append = [&](std::vector<unsigned> &List,
                    std::span<const unsigned> BasicBlock::*Row, bool Out) {
    std::vector<unsigned> Start(N + 1, 0);
    for (size_t B = 0; B < N; ++B)
      Start[B + 1] = static_cast<unsigned>((Blocks[B].*Row).size());
    for (const auto &[From, To] : Edges)
      ++Start[(Out ? From : To) + 1];
    std::partial_sum(Start.begin(), Start.end(), Start.begin());
    std::vector<unsigned> Rows(Start[N]), Fill(N);
    for (size_t B = 0; B < N; ++B)
      Fill[B] = static_cast<unsigned>(
          std::copy((Blocks[B].*Row).begin(), (Blocks[B].*Row).end(),
                    Rows.begin() + Start[B]) -
          Rows.begin());
    for (const auto &[From, To] : Edges)
      Rows[Fill[Out ? From : To]++] = Out ? To : From;
    List = std::move(Rows);
    for (size_t B = 0; B < N; ++B)
      Blocks[B].*Row = std::span<const unsigned>(List).subspan(
          Start[B], Start[B + 1] - Start[B]);
  };
  Append(SuccList, &BasicBlock::Succs, true);
  Append(PredList, &BasicBlock::Preds, false);
}

std::string CFG::matchTableLoad(const Instruction &Insn, Reg JumpReg) {
  // Pattern: movq TBL(,%rIdx,8), %rT   (absolute 64-bit jump table)
  //      or: movq TBL(%rBase,%rIdx,8), %rT
  if (Insn.Mn != Mnemonic::MOV || Insn.Ops.size() != 2)
    return "";
  const Operand &Src = Insn.Ops[0];
  const Operand &Dst = Insn.Ops[1];
  if (!Dst.isReg() || superReg(Dst.R) != superReg(JumpReg))
    return "";
  if (!Src.hasSymDisp() || Src.Mem.isRipRelative())
    return "";
  if (Src.Mem.Index == Reg::None || Src.Mem.Scale != 8)
    return "";
  return Src.Sym;
}

std::vector<unsigned>
CFG::jumpTableBlocks(const std::string &TableLabel) const {
  std::vector<unsigned> Targets;
  const MaoUnit &Unit = Fn->unit();
  auto LabelIt = Unit.labelMap().find(TableLabel);
  if (LabelIt == Unit.labelMap().end())
    return Targets;

  // Walk forward from the label entry reading .quad/.long label args.
  ConstEntryIter It = LabelIt->second;
  for (++It; It != Unit.entries().end(); ++It) {
    if (It->isLabel())
      break; // Next object begins.
    if (!It->isDirective())
      break;
    const Directive &Dir = It->directive();
    if (Dir.Kind == DirKind::P2Align || Dir.Kind == DirKind::Balign)
      continue;
    if (Dir.Kind != DirKind::Quad && Dir.Kind != DirKind::Long)
      break;
    for (std::string_view Arg : Dir.Args) {
      // Relative tables are emitted as ".long target-base".
      const unsigned To = blockOfLabel(Arg.substr(0, Arg.find('-', 1)));
      if (To != ~0u) // Else outside this function (shared tables).
        Targets.push_back(To);
    }
  }
  return Targets;
}

void CFG::formBlocks(MaoFunction &Fn, std::vector<EntryIter> &Insns,
                     std::vector<EntryIter> &Labels,
                     std::vector<unsigned> &InsnStart,
                     std::vector<unsigned> &LabelStart) {
  // Labels start new blocks; control transfers end them.
  Insns.clear();
  Labels.clear();
  InsnStart.assign(1, 0);
  LabelStart.assign(1, 0);
  auto StartNewBlock = [&] {
    InsnStart.push_back(static_cast<unsigned>(Insns.size()));
    LabelStart.push_back(static_cast<unsigned>(Labels.size()));
  };
  bool BlockOpen = true;
  for (auto It = Fn.begin(), E = Fn.end(); It != E; ++It) {
    if (It->isLabel()) {
      if (InsnStart.back() != Insns.size() || !BlockOpen)
        StartNewBlock();
      BlockOpen = true;
      Labels.push_back(It.underlying());
    } else if (It->isInstruction()) {
      if (!BlockOpen)
        StartNewBlock();
      BlockOpen = true;
      Insns.push_back(It.underlying());
      const Instruction &Insn = std::as_const(*It).instruction();
      if (Insn.isBranch() || Insn.isReturn())
        BlockOpen = false;
    }
  }
  StartNewBlock();
}

void CFG::viewInstructions(const std::vector<unsigned> &InsnStart) {
  const std::span<const EntryIter> All(InsnList);
  for (size_t B = 0; B < Blocks.size(); ++B)
    Blocks[B].Insns =
        All.subspan(InsnStart[B], InsnStart[B + 1] - InsnStart[B]);
}

std::string CFG::sameBlockTable(std::span<const EntryIter> Insns) {
  const Reg JumpReg =
      std::as_const(*Insns.back()).instruction().branchTarget()->R;
  for (size_t K = Insns.size() - 1; K-- > 0;) {
    const MaoEntry &Cand = *Insns[K];
    std::string Table = matchTableLoad(Cand.instruction(), JumpReg);
    if (!Table.empty())
      return Table;
    // Stop at any other definition of the jump register.
    if (Cand.effects().RegDefs & regMaskBit(JumpReg))
      break;
  }
  return "";
}

bool CFG::refreshInstructions() {
  if (!Unresolved.empty() || TheStats.ResolvedReachingDefs)
    return false;
  std::vector<EntryIter> Insns, Labels;
  std::vector<unsigned> InsnStart, LabelStart;
  // One allocation, not a doubling series that fragments the heap.
  Insns.reserve(InsnList.size() + 8);
  formBlocks(*Fn, Insns, Labels, InsnStart, LabelStart);
  if (InsnStart.size() != Blocks.size() + 1 || Labels != LabelList)
    return false;
  for (size_t B = 0; B < Blocks.size(); ++B)
    if (Blocks[B].Labels.data() != LabelList.data() + LabelStart[B])
      return false;
  for (const auto &[B, Table] : SameBlockTables)
    if (sameBlockTable(std::span<const EntryIter>(Insns).subspan(
            InsnStart[B], InsnStart[B + 1] - InsnStart[B])) != Table)
      return false;
  InsnList = std::move(Insns);
  viewInstructions(InsnStart);
  return true;
}

CFG CFG::build(MaoFunction &Fn) {
  static StatCounter &Builds =
      StatsRegistry::instance().counter("analysis.cfg_builds");
  Builds.add();
  CFG G;
  G.Fn = &Fn;
  Fn.HasUnresolvedIndirect = false;

  std::vector<unsigned> InsnStart, LabelStart;
  formBlocks(Fn, G.InsnList, G.LabelList, InsnStart, LabelStart);
  // Kept across passes: drop the slack push_back left.
  G.InsnList.shrink_to_fit();
  G.LabelList.shrink_to_fit();
  const unsigned N = static_cast<unsigned>(InsnStart.size() - 1);
  G.Blocks.resize(N);
  G.LabelBlocks.reserve(G.LabelList.size());
  const std::span<const EntryIter> Labels(G.LabelList);
  for (unsigned B = 0; B < N; ++B) {
    G.Blocks[B].Index = B;
    G.Blocks[B].Labels =
        Labels.subspan(LabelStart[B], LabelStart[B + 1] - LabelStart[B]);
    for (EntryIter L : G.Blocks[B].Labels)
      G.LabelBlocks.push_back({&*L, B});
  }
  std::sort(G.LabelBlocks.begin(), G.LabelBlocks.end());
  G.viewInstructions(InsnStart);

  // Edges, block by block; a block's duplicate edges are dropped.
  std::vector<std::pair<unsigned, unsigned>> Edges;
  for (unsigned I = 0; I != N; ++I) {
    const BasicBlock &BB = G.Blocks[I];
    const size_t FirstEdge = Edges.size();
    auto Connect = [&](unsigned To) {
      const std::pair<unsigned, unsigned> Edge(I, To);
      if (std::find(Edges.begin() + FirstEdge, Edges.end(), Edge) ==
          Edges.end())
        Edges.push_back(Edge);
    };
    const bool HasNext = I + 1 < N;
    if (BB.empty()) {
      if (HasNext)
        Connect(I + 1);
      continue;
    }
    const Instruction &Last = BB.lastInstruction();
    if (Last.isReturn())
      continue;
    if (Last.isCondJump() && HasNext)
      Connect(I + 1);
    if (!Last.isBranch()) {
      if (HasNext)
        Connect(I + 1);
      continue;
    }
    const Operand *Target = Last.branchTarget();
    assert(Target && "branch without target");
    if (Target->isSymbol()) {
      unsigned To = G.blockOfLabel(Target->Sym);
      if (To != ~0u)
        Connect(To);
      // Else: tail jump out of the function; no intra-function edge.
      continue;
    }

    // Indirect jump: Tier 1, same-block jump-table pattern.
    ++G.TheStats.IndirectJumps;
    std::vector<unsigned> Table;
    if (Target->isReg()) {
      std::string TableLabel = sameBlockTable(BB.Insns);
      if (!TableLabel.empty())
        Table = G.jumpTableBlocks(TableLabel);
      if (!Table.empty())
        G.SameBlockTables.push_back({I, std::move(TableLabel)});
    } else if (Target->hasSymDisp() && Target->Mem.Index != Reg::None &&
               Target->Mem.Scale == 8) {
      // `jmp *TBL(,%rI,8)` reads the table directly.
      Table = G.jumpTableBlocks(Target->Sym);
    }
    for (unsigned To : Table)
      Connect(To);
    if (!Table.empty()) {
      ++G.TheStats.ResolvedSameBlock;
    } else {
      G.Unresolved.push_back({I, BB.Insns.back()});
      Fn.HasUnresolvedIndirect = true;
    }
  }
  G.appendEdges(Edges);
  return G;
}
