//===- analysis/CFG.cpp - Per-function control-flow graph -------------------==//

#include "analysis/CFG.h"

#include <algorithm>
#include <cassert>
#include <utility>

using namespace mao;

unsigned CFG::blockOfLabel(const std::string &Label) const {
  auto It = LabelToBlock.find(Label);
  return It == LabelToBlock.end() ? ~0u : It->second;
}

void CFG::addEdge(unsigned From, unsigned To) {
  assert(From < Blocks.size() && To < Blocks.size() && "edge out of range");
  BasicBlock &F = Blocks[From];
  if (std::find(F.Succs.begin(), F.Succs.end(), To) != F.Succs.end())
    return;
  F.Succs.push_back(To);
  Blocks[To].Preds.push_back(From);
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
  if (!Src.isMem() || !Src.Mem.hasSym() || Src.Mem.isRipRelative())
    return "";
  if (Src.Mem.Index == Reg::None || Src.Mem.Scale != 8)
    return "";
  return Src.Mem.SymDisp;
}

std::vector<std::string> CFG::readJumpTable(MaoUnit &Unit,
                                            const std::string &TableLabel) {
  std::vector<std::string> Targets;
  auto LabelIt = Unit.labelMap().find(TableLabel);
  if (LabelIt == Unit.labelMap().end())
    return Targets;

  // Walk forward from the label entry collecting .quad/.long label args.
  const EntryList &Entries = Unit.entries();
  ConstEntryIter It = LabelIt->second;
  for (++It; It != Entries.end(); ++It) {
    if (It->isLabel())
      break; // Next object begins.
    if (!It->isDirective())
      break;
    const Directive &Dir = It->directive();
    if (Dir.Kind == DirKind::P2Align || Dir.Kind == DirKind::Balign)
      continue;
    if (Dir.Kind != DirKind::Quad && Dir.Kind != DirKind::Long)
      break;
    for (const std::string &Arg : Dir.Args) {
      // Relative tables are emitted as ".long target-base".
      size_t Minus = Arg.find('-', 1);
      Targets.push_back(Minus == std::string::npos ? Arg
                                                   : Arg.substr(0, Minus));
    }
  }
  return Targets;
}

bool CFG::connectJumpTable(unsigned Block, const std::string &TableLabel) {
  std::vector<std::string> Targets =
      readJumpTable(Fn->unit(), TableLabel);
  if (Targets.empty())
    return false;
  bool AnyEdge = false;
  for (const std::string &Target : Targets) {
    unsigned To = blockOfLabel(Target);
    if (To == ~0u)
      continue; // Target outside this function (shared-table edge cases).
    addEdge(Block, To);
    AnyEdge = true;
  }
  return AnyEdge;
}

CFG CFG::build(MaoFunction &Fn) {
  CFG G;
  G.Fn = &Fn;
  Fn.HasUnresolvedIndirect = false;

  // Linearize the flow-relevant entries: labels and instructions. Counting
  // labels and control transfers here lets block formation below size the
  // block array, the label map and each block's instruction list once.
  struct FlowEntry {
    EntryIter It;
    bool IsLabel;
    bool EndsBlock; ///< A branch or return.
  };
  std::vector<FlowEntry> Flow;
  size_t NumLabels = 0, NumEnds = 0;
  for (auto It = Fn.begin(), E = Fn.end(); It != E; ++It) {
    if (It->isLabel()) {
      Flow.push_back({It.underlying(), true, false});
      ++NumLabels;
    } else if (It->isInstruction()) {
      const Instruction &Insn = std::as_const(*It).instruction();
      const bool Ends = Insn.isBranch() || Insn.isReturn();
      Flow.push_back({It.underlying(), false, Ends});
      NumEnds += Ends;
    }
  }
  G.Blocks.reserve(NumLabels + NumEnds + 1);
  G.LabelToBlock.reserve(NumLabels);

  // Block formation: labels start new blocks; control transfers end them.
  auto StartNewBlock = [&]() -> BasicBlock & {
    G.Blocks.emplace_back();
    G.Blocks.back().Index = static_cast<unsigned>(G.Blocks.size() - 1);
    return G.Blocks.back();
  };
  StartNewBlock();
  bool BlockOpen = true;
  for (size_t K = 0; K < Flow.size(); ++K) {
    const FlowEntry &F = Flow[K];
    if (F.IsLabel) {
      if (!G.Blocks.back().empty() || !BlockOpen)
        StartNewBlock();
      BlockOpen = true;
      const std::string &Name = F.It->labelName();
      G.Blocks.back().Labels.push_back(Name);
      G.LabelToBlock.emplace(Name, G.Blocks.back().Index);
      continue;
    }
    if (!BlockOpen)
      StartNewBlock();
    BlockOpen = true;
    std::vector<EntryIter> &Insns = G.Blocks.back().Insns;
    if (Insns.empty()) {
      // The block runs to the next label or through the next transfer.
      size_t End = K + 1;
      while (End < Flow.size() && !Flow[End].IsLabel &&
             !Flow[End - 1].EndsBlock)
        ++End;
      Insns.reserve(End - K);
    }
    Insns.push_back(F.It);
    if (F.EndsBlock)
      BlockOpen = false;
  }

  // Edges.
  for (unsigned I = 0, E = static_cast<unsigned>(G.Blocks.size()); I != E;
       ++I) {
    const BasicBlock &BB = G.Blocks[I];
    const bool HasNext = I + 1 < E;
    if (BB.empty()) {
      if (HasNext)
        G.addEdge(I, I + 1);
      continue;
    }
    const Instruction &Last = BB.lastInstruction();
    if (Last.isReturn())
      continue;
    if (Last.isCondJump() && HasNext)
      G.addEdge(I, I + 1);
    if (!Last.isBranch()) {
      if (HasNext)
        G.addEdge(I, I + 1);
      continue;
    }
    const Operand *Target = Last.branchTarget();
    assert(Target && "branch without target");
    if (Target->isSymbol()) {
      unsigned To = G.blockOfLabel(Target->Sym);
      if (To != ~0u)
        G.addEdge(I, To);
      // Else: tail jump out of the function; no intra-function edge.
      continue;
    }

    // Indirect jump: Tier 1, same-block jump-table pattern.
    ++G.TheStats.IndirectJumps;
    bool Resolved = false;
    if (Target->isReg()) {
      const Reg JumpReg = Target->R;
      for (auto RIt = BB.Insns.rbegin(), RE = BB.Insns.rend(); RIt != RE;
           ++RIt) {
        if (*RIt == BB.Insns.back())
          continue; // The jump itself.
        const Instruction &Cand = std::as_const(**RIt).instruction();
        std::string Table = matchTableLoad(Cand, JumpReg);
        if (!Table.empty()) {
          Resolved = G.connectJumpTable(I, Table);
          break;
        }
        // Stop at any other definition of the jump register.
        if (Cand.effects().RegDefs & regMaskBit(JumpReg))
          break;
      }
    } else if (Target->isMem() && Target->Mem.hasSym() &&
               Target->Mem.Index != Reg::None && Target->Mem.Scale == 8) {
      // `jmp *TBL(,%rI,8)` reads the table directly.
      Resolved = G.connectJumpTable(I, Target->Mem.SymDisp);
    }
    if (Resolved) {
      ++G.TheStats.ResolvedSameBlock;
    } else {
      G.Unresolved.push_back({I, BB.Insns.back()});
      Fn.HasUnresolvedIndirect = true;
    }
  }
  return G;
}
