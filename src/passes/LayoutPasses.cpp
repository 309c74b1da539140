//===- passes/LayoutPasses.cpp - I-cache-aware code layout -------------------===//
///
/// \file
/// Code-layout passes driven by the simulator's instruction-side memory
/// hierarchy (uarch L1I/ITLB). Both passes move code wholesale — entry-list
/// splices, never re-encodes — so every branch keeps its label and the
/// passes compose with the alignment family that runs after them.
///
///   BBREORDER - per-function basic-block reordering: loop-free ("cold")
///               blocks sitting between loop code are spliced to the end
///               of the function, shrinking the hot footprint to fewer
///               I-cache lines and making short loops LSD-eligible.
///   HOTCOLD   - unit-level hot/cold function partitioning: functions not
///               reachable from the unit's roots (exported symbols and
///               address-taken functions) are moved behind the reachable
///               ones in their section, packing hot functions onto fewer
///               I-cache lines and ITLB pages.
///
/// Both passes only move code whose entry points are labels and whose
/// every moved span ends straight-line (jmp/ret), so fall-through paths
/// are preserved exactly; anything else is left in place.
///
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "pass/FunctionAnalyses.h"
#include "pass/MaoPass.h"

#include <deque>
#include <string>
#include <vector>

using namespace mao;

namespace {

/// True when \p It refers to an instruction that never falls through.
bool endsStraightLine(EntryIter It) {
  return It->isInstruction() &&
         std::as_const(*It).instruction().endsStraightLine();
}

//===----------------------------------------------------------------------===//
// BBREORDER: move cold basic blocks behind the function's loop code.
//===----------------------------------------------------------------------===//

class BlockReorderPass : public MaoFunctionPass {
public:
  BlockReorderPass(const MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : MaoFunctionPass("BBREORDER", Options, Unit, Fn) {}

  bool go() override {
    MaoFunction &Fn = function();
    // Only simple, fully-understood functions: a single contiguous range,
    // no unresolved indirect branches (a hidden jump-table edge could
    // target a moved block through fall-through assumptions we cannot
    // check), no opaque instructions.
    if (Fn.ranges().size() != 1 || Fn.hasOpaqueInstructions())
      return true;
    const CFG &Graph = keptCFG(Fn);
    if (Fn.HasUnresolvedIndirect) {
      reportUnresolvedSkip();
      return true;
    }
    const LoopStructureGraph &Lsg = keptLoops(Fn);
    // No loops: every block is equally cold and there is no hot footprint
    // to compact.
    if (Lsg.loopCount() == 0)
      return true;

    const MaoFunction::Range Range = Fn.ranges().front();
    // Destination: right after the function's last instruction, so
    // trailing labels (.size anchors) keep their meaning. The current
    // last instruction must end straight-line or appending cold code
    // would be reachable by falling off the old end.
    EntryIter Dest = Range.End;
    while (Dest != Range.Begin && !std::prev(Dest)->isInstruction())
      --Dest;
    if (Dest == Range.Begin || !endsStraightLine(std::prev(Dest)))
      return true;

    const std::vector<BasicBlock> &Blocks = Graph.blocks();
    std::vector<bool> IsHeader(Blocks.size(), false);
    for (const Loop &L : Lsg.loops())
      if (!L.IsRoot && L.Header < Blocks.size())
        IsHeader[L.Header] = true;

    unsigned Moved = 0;
    for (const BasicBlock &B : Blocks) {
      if (B.Index == 0 || B.empty() || IsHeader[B.Index])
        continue;
      if (!B.lastInstruction().endsStraightLine())
        continue; // Moving it would break its fall-through successor.
      // Blocks outside any loop are cold outright and may float. Blocks
      // inside a loop (guarded error paths and the like) move only via
      // the jumped-over pattern, and only when they rejoin forward — a
      // block branching back to a loop header is the loop's own spine.
      const bool Cold = Lsg.loopOfBlock(B.Index) == 0;
      if (!Cold) {
        bool BranchesToHeader = false;
        for (unsigned Succ : B.Succs)
          if (Succ < IsHeader.size() && IsHeader[Succ])
            BranchesToHeader = true;
        if (BranchesToHeader)
          continue;
      }
      if (tryMoveBlock(B, Range, Dest, /*AllowFloating=*/Cold))
        ++Moved;
    }
    if (Moved)
      countTransformation(Moved);
    trace(1, "%s: moved %u cold block(s) to the function tail",
          Fn.name().c_str(), Moved);
    return true;
  }

private:
  /// The entry-list span a block occupies: its leading labels and
  /// alignment directives down to its last instruction.
  struct Span {
    EntryIter Begin;
    EntryIter End; ///< One past the last instruction.
  };

  Span blockSpan(const BasicBlock &B) {
    Span S;
    S.End = std::next(B.Insns.back());
    S.Begin = B.Insns.front();
    const EntryIter RangeBegin = function().ranges().front().Begin;
    while (S.Begin != RangeBegin) {
      EntryIter Prev = std::prev(S.Begin);
      if (Prev->isLabel() || Prev->isDirective(DirKind::P2Align) ||
          Prev->isDirective(DirKind::Balign))
        S.Begin = Prev;
      else
        break;
    }
    return S;
  }

  /// Attempts the two safe patterns on \p B. Entry-list neighbourhood
  /// conditions are checked *now*, against the current list state, since
  /// earlier moves rearrange it.
  bool tryMoveBlock(const BasicBlock &B, const MaoFunction::Range &Range,
                    EntryIter Dest, bool AllowFloating) {
    Span S = blockSpan(B);
    if (S.End == Dest)
      return false; // Already at the tail.
    if (S.Begin == Range.Begin)
      return false; // Would detach the function's entry label.

    EntryIter Prev = std::prev(S.Begin);
    // Pattern (a): floating cold block — the predecessor never falls in,
    // so the span can simply be spliced out. It must carry a label or it
    // would become unreachable (and already was).
    if (AllowFloating && endsStraightLine(Prev)) {
      if (!S.Begin->isLabel())
        return false;
      unit().moveRange(S.Begin, S.End, Dest);
      return true;
    }
    // Pattern (b): jumped-over cold block — `jcc L; B; L:` becomes
    // `j!cc B_label; L:` with B spliced to the tail.
    if (!Prev->isInstruction() ||
        !std::as_const(*Prev).instruction().isCondJump())
      return false;
    if (S.End == unit().entries().end() || !S.End->isLabel())
      return false;
    const Operand *Target = std::as_const(*Prev).instruction().branchTarget();
    if (!Target || Target->Sym != S.End->labelName())
      return false;
    std::string BlockLabel;
    if (S.Begin->isLabel()) {
      BlockLabel = S.Begin->labelName();
    } else {
      BlockLabel = unit().makeUniqueLabel();
      S.Begin = unit().insertBefore(S.Begin, MaoEntry::makeLabel(BlockLabel));
    }
    Prev->instruction() = makeCondJump(
        invertCondCode(std::as_const(*Prev).instruction().CC), BlockLabel);
    unit().moveRange(S.Begin, S.End, Dest);
    return true;
  }
};

REGISTER_FUNC_PASS("BBREORDER", BlockReorderPass)

//===----------------------------------------------------------------------===//
// HOTCOLD: move call-graph-unreachable functions behind the reachable ones.
//===----------------------------------------------------------------------===//

/// One function's full footprint in the entry list: prologue directives
/// (.globl/.type/alignment), the body, and the closing .size.
struct FunctionSpan {
  unsigned FnIndex = 0;
  EntryIter Begin;
  EntryIter End;
  bool EndsStraightLine = false;
};

class HotColdPass : public MaoUnitPass {
public:
  HotColdPass(const MaoOptionMap *Options, MaoUnit *Unit)
      : MaoUnitPass("HOTCOLD", Options, Unit) {}

  bool go() override {
    MaoUnit &U = unit();
    CallGraph Graph = CallGraph::build(U);
    if (Graph.size() < 2)
      return true;

    const std::vector<bool> Hot = reachableSet(Graph);

    // Collect every single-range function's span up front; moves are
    // applied afterwards so the collection walk sees a stable list.
    std::vector<FunctionSpan> Spans = collectSpans(Graph);

    // Group spans by contiguous code-section run. A run ends at any
    // section-changing directive; cold functions move to the end of
    // their own run, never across sections.
    unsigned Moves = 0;
    std::vector<FunctionSpan *> Group;
    EntryIter It = U.entries().begin();
    const EntryIter E = U.entries().end();
    size_t NextSpan = 0;
    while (true) {
      if (It == E || isSectionBoundary(*It)) {
        Moves += processGroup(Group, Hot, It);
        Group.clear();
        if (It == E)
          break;
        ++It;
        continue;
      }
      if (NextSpan < Spans.size() && It == Spans[NextSpan].Begin) {
        Group.push_back(&Spans[NextSpan]);
        It = Spans[NextSpan].End;
        ++NextSpan;
        continue;
      }
      ++It;
    }

    if (Moves) {
      countTransformation(Moves);
      U.rebuildStructure();
    }
    trace(1, "moved %u cold function(s) behind the hot set", Moves);
    return true;
  }

private:
  static bool isSectionBoundary(const MaoEntry &Entry) {
    if (!Entry.isDirective())
      return false;
    DirKind K = Entry.directive().Kind;
    return K == DirKind::Text || K == DirKind::Data || K == DirKind::Bss ||
           K == DirKind::Section;
  }

  /// Roots: exported functions (.globl), functions whose address is
  /// stored in data (.quad/.long referencing the symbol — jump tables and
  /// function-pointer tables), and the conventional entry points. Anything
  /// a root (transitively) calls is hot; indirect call sites conservatively
  /// keep every address-taken function hot via the data-reference rule.
  std::vector<bool> reachableSet(const CallGraph &Graph) {
    const MaoUnit &U = unit();
    std::vector<bool> Hot(Graph.size(), false);
    std::deque<unsigned> Work;
    auto AddRoot = [&](const std::string &Name) {
      unsigned Idx = Graph.indexOf(Name);
      if (Idx != ~0u && !Hot[Idx]) {
        Hot[Idx] = true;
        Work.push_back(Idx);
      }
    };
    for (const MaoEntry &Entry : U.entries()) {
      if (!Entry.isDirective())
        continue;
      const Directive &Dir = Entry.directive();
      if (Dir.Kind == DirKind::Globl) {
        AddRoot(Dir.arg(0));
      } else if (Dir.Kind == DirKind::Quad || Dir.Kind == DirKind::Long) {
        for (const std::string &Arg : Dir.Args)
          AddRoot(Arg);
      }
    }
    AddRoot("main");
    AddRoot("bench_main");
    while (!Work.empty()) {
      unsigned Idx = Work.front();
      Work.pop_front();
      for (unsigned Callee : Graph.node(Idx).Callees)
        if (!Hot[Callee]) {
          Hot[Callee] = true;
          Work.push_back(Callee);
        }
    }
    return Hot;
  }

  /// Builds the movable span of every single-range function, in entry-list
  /// order. Multi-range functions (split across section re-entries) are
  /// not movable and excluded.
  std::vector<FunctionSpan> collectSpans(const CallGraph &Graph) {
    MaoUnit &U = unit();
    std::vector<FunctionSpan> Spans;
    for (unsigned I = 0; I != Graph.size(); ++I) {
      MaoFunction &Fn = *Graph.node(I).Fn;
      if (Fn.ranges().size() != 1)
        continue;
      const MaoFunction::Range &Range = Fn.ranges().front();
      FunctionSpan Span;
      Span.FnIndex = I;
      // Prologue: contiguous .globl/.type naming this function plus any
      // alignment directives travel with it.
      Span.Begin = Range.Begin;
      while (Span.Begin != U.entries().begin()) {
        EntryIter Prev = std::prev(Span.Begin);
        bool Travels = false;
        if (Prev->isDirective(DirKind::P2Align) ||
            Prev->isDirective(DirKind::Balign))
          Travels = true;
        else if (Prev->isDirective(DirKind::Globl) ||
                 Prev->isDirective(DirKind::Type))
          Travels = Prev->directive().arg(0) == Fn.name();
        if (!Travels)
          break;
        Span.Begin = Prev;
      }
      // Epilogue: the closing `.size fn, ...` is the range end; it moves
      // with the function.
      Span.End = Range.End;
      if (Span.End != U.entries().end() &&
          Span.End->isDirective(DirKind::Size) &&
          Span.End->directive().arg(0) == Fn.name())
        ++Span.End;
      for (EntryIter It = Range.Begin; It != Range.End; ++It)
        if (It->isInstruction())
          Span.EndsStraightLine =
              std::as_const(*It).instruction().endsStraightLine();
      Spans.push_back(Span);
    }
    // Graph.node order is function-structure order, which is entry-list
    // order; the grouping walk above depends on that.
    return Spans;
  }

  /// Moves the cold functions of one section run behind its hot ones.
  /// \returns the number of functions moved.
  unsigned processGroup(const std::vector<FunctionSpan *> &Group,
                        const std::vector<bool> &Hot, EntryIter GroupEnd) {
    unsigned HotCount = 0, ColdCount = 0;
    bool SeenCold = false, Interleaved = false;
    for (const FunctionSpan *Span : Group) {
      // A function that can fall off its end keeps the whole run pinned:
      // reordering could change what it falls into.
      if (!Span->EndsStraightLine)
        return 0;
      if (Hot[Span->FnIndex]) {
        ++HotCount;
        if (SeenCold)
          Interleaved = true;
      } else {
        ++ColdCount;
        SeenCold = true;
      }
    }
    if (!Interleaved || HotCount == 0 || ColdCount == 0)
      return 0; // Nothing to do or already hot-then-cold.
    unsigned Moves = 0;
    for (FunctionSpan *Span : Group) {
      if (Hot[Span->FnIndex])
        continue;
      if (Span->End == GroupEnd)
        continue; // Already at the tail.
      unit().moveRange(Span->Begin, Span->End, GroupEnd);
      ++Moves;
    }
    return Moves;
  }
};

REGISTER_UNIT_PASS("HOTCOLD", HotColdPass)

} // namespace

namespace mao {
void linkLayoutPasses() {}
} // namespace mao
