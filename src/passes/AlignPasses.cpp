//===- passes/AlignPasses.cpp - Alignment-specific optimizations -------------===//
///
/// \file
/// Alignment optimizations of paper Sec. III-C: they "seek to change
/// instructions' relative placement to utilize processor resources in a
/// more effective manner". All three interleave analysis with repeated
/// relaxation, since every insertion can shift other addresses (the
/// phase-ordering problem the paper highlights).
///
///   LOOP16  - short-loop alignment: a loop that fits in one 16-byte decode
///             line but currently straddles a boundary decodes as two
///             lines; aligning it to 16 bytes removes the bottleneck (the
///             252.eon regression between GCC 4.2 and 4.3).
///   LSDOPT  - Loop Stream Detector fitting: the LSD streams loops only if
///             they span at most four 16-byte decode lines (and iterate
///             enough, and contain only certain branches). Padding in
///             front of a loop can reduce the lines it spans (Figs. 4/5:
///             six NOPs, 2x speedup).
///   BRALIGN - branch alignment: branch predictors indexed by PC >> 5
///             alias branches in the same 32-byte bucket; separating the
///             back branches of two short loops fixed a 3% regression.
///
//===----------------------------------------------------------------------===//

#include "analysis/Relaxer.h"
#include "pass/MaoPass.h"
#include "passes/PassUtil.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>

using namespace mao;

namespace {

/// Address extent of a loop's instructions: [Begin, End] in section-relative
/// bytes, End pointing at the last byte. Invalid when the loop has no sized
/// instructions.
struct LoopExtent {
  int64_t Begin = -1;
  int64_t End = -1;
  bool Valid = false;
  EntryIter FirstEntry; // Loop header's first instruction entry.
};

LoopExtent loopExtent(const CFG &G, const LoopStructureGraph &LSG,
                      unsigned LoopIdx) {
  LoopExtent Extent;
  for (unsigned B : LSG.blocksIncludingNested(LoopIdx)) {
    for (EntryIter It : G.blocks()[B].Insns) {
      if (It->Address < 0)
        continue;
      const int64_t Last = It->Address + It->Size - 1;
      if (!Extent.Valid || It->Address < Extent.Begin) {
        Extent.Begin = It->Address;
        Extent.FirstEntry = It;
      }
      Extent.End = Extent.Valid ? std::max(Extent.End, Last) : Last;
      Extent.Valid = true;
    }
  }
  return Extent;
}

/// Number of 16-byte decode lines the byte range [Begin, End] touches.
unsigned decodeLinesSpanned(int64_t Begin, int64_t End) {
  return static_cast<unsigned>((End >> 4) - (Begin >> 4) + 1);
}

/// True when the loop contains only the branch kinds the front-end loop
/// hardware tolerates: conditional/unconditional direct jumps. Calls,
/// returns, and indirect jumps disqualify it.
bool loopBranchesAreSimple(const CFG &G, const LoopStructureGraph &LSG,
                           unsigned LoopIdx) {
  for (unsigned B : LSG.blocksIncludingNested(LoopIdx)) {
    for (EntryIter It : G.blocks()[B].Insns) {
      const Instruction &Insn = std::as_const(*It).instruction();
      if (Insn.isCall() || Insn.isReturn() || Insn.hasIndirectTarget() ||
          Insn.isOpaque())
        return false;
    }
  }
  return true;
}

/// Inserts \p Pad bytes of NOPs before \p Pos.
void insertNopPad(UnitLayout &Layout, EntryIter Pos, unsigned Pad) {
  while (Pad > 0) {
    unsigned Chunk = Pad > 15 ? 15 : Pad;
    Layout.insertBefore(Pos, MaoEntry::makeInstruction(makeNop(Chunk)));
    Pad -= Chunk;
  }
}

/// Steps \p Pos back over any labels immediately preceding it, so padding
/// inserted there lands *before* a loop-header label and is executed only
/// on entry, never per iteration.
EntryIter beforeLeadingLabels(MaoUnit &Unit, EntryIter Pos) {
  while (Pos != Unit.entries().begin()) {
    EntryIter Prev = std::prev(Pos);
    if (!Prev->isLabel())
      break;
    Pos = Prev;
  }
  return Pos;
}

/// One pad an alignment pass asks for: \p Bytes of NOPs before \p Pos.
/// \p Note says why, for the trace.
struct PadRequest {
  EntryIter Pos;
  unsigned Bytes = 0;
  std::string Note;
};

/// The layout fixpoint shared by LOOP16, LSDOPT and BRALIGN. Every round
/// relaxes the layout (a no-op when the last round inserted nothing),
/// takes the function's kept CFG and loops (a pad is an instruction-only
/// edit unless it lands alone after a branch or return), and asks the pass
/// for at most one pad, because a pad moves everything after it. The loop
/// ends when the pass asks for nothing, or after RoundCap pads: a pass
/// that still wants one then reports the cap instead of inserting it.
class AlignFixpointPass : public MaoFunctionPass {
public:
  using MaoFunctionPass::MaoFunctionPass;

  bool go() final {
    for (unsigned Round = 0;; ++Round) {
      layout().relax();
      const LoopStructureGraph &LSG = keptLoops(function());
      std::optional<PadRequest> Pad = nextPad(keptCFG(function()), LSG);
      if (!Pad)
        return true;
      if (Round == RoundCap) {
        reportRoundCap(RoundCap);
        return true;
      }
      trace(1, "func %s: %s", function().name().c_str(), Pad->Note.c_str());
      insertNopPad(layout(), Pad->Pos, Pad->Bytes);
      countTransformation();
    }
  }

protected:
  static constexpr unsigned RoundCap = 8;

  /// The pad this round needs, if any, decided on the relaxed layout.
  virtual std::optional<PadRequest>
  nextPad(const CFG &Graph, const LoopStructureGraph &LSG) = 0;
};

//===----------------------------------------------------------------------===//
// LOOP16: short loop alignment.
//===----------------------------------------------------------------------===//

class ShortLoopAlignPass : public AlignFixpointPass {
public:
  ShortLoopAlignPass(MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : AlignFixpointPass("LOOP16", Options, Unit, Fn),
        MaxSize(options().getInt("maxsize", 16)) {}

private:
  std::optional<PadRequest> nextPad(const CFG &Graph,
                                    const LoopStructureGraph &LSG) override {
    for (size_t L = 1; L < LSG.loops().size(); ++L) {
      if (!LSG.loops()[L].Children.empty())
        continue; // Innermost loops only.
      LoopExtent Extent = loopExtent(Graph, LSG, static_cast<unsigned>(L));
      if (!Extent.Valid)
        continue;
      const int64_t Size = Extent.End - Extent.Begin + 1;
      if (Size > MaxSize)
        continue;
      if (decodeLinesSpanned(Extent.Begin, Extent.End) <= 1)
        continue; // Already decodes as a single line.
      const unsigned Pad =
          static_cast<unsigned>((16 - (Extent.Begin % 16)) % 16);
      if (Pad == 0)
        continue;
      return PadRequest{beforeLeadingLabels(unit(), Extent.FirstEntry), Pad,
                        "aligning " + std::to_string(Size) +
                            "-byte loop at " + std::to_string(Extent.Begin) +
                            " (pad " + std::to_string(Pad) + ")"};
    }
    return std::nullopt;
  }

  const long MaxSize;
};

REGISTER_FUNC_PASS("LOOP16", ShortLoopAlignPass)

//===----------------------------------------------------------------------===//
// LSDOPT: fit loops into the Loop Stream Detector.
//===----------------------------------------------------------------------===//

class LsdFitPass : public AlignFixpointPass {
public:
  LsdFitPass(MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : AlignFixpointPass("LSDOPT", Options, Unit, Fn),
        MaxLines(options().getInt("maxlines", 4)) {}

private:
  std::optional<PadRequest> nextPad(const CFG &Graph,
                                    const LoopStructureGraph &LSG) override {
    const long LineBytes = 16;
    for (size_t L = 1; L < LSG.loops().size(); ++L) {
      LoopExtent Extent = loopExtent(Graph, LSG, static_cast<unsigned>(L));
      if (!Extent.Valid)
        continue;
      const int64_t Size = Extent.End - Extent.Begin + 1;
      if (Size > MaxLines * LineBytes)
        continue; // Cannot fit regardless of placement.
      if (!loopBranchesAreSimple(Graph, LSG, static_cast<unsigned>(L)))
        continue; // LSD only streams certain branch kinds.
      const unsigned Spanned = decodeLinesSpanned(Extent.Begin, Extent.End);
      const unsigned Minimal =
          static_cast<unsigned>((Size + LineBytes - 1) / LineBytes);
      if (Spanned <= static_cast<unsigned>(MaxLines) || Spanned == Minimal)
        continue;
      // Align the loop start to a decode line: afterwards it spans the
      // minimal number of lines.
      const unsigned Pad = static_cast<unsigned>(
          (LineBytes - (Extent.Begin % LineBytes)) % LineBytes);
      if (Pad == 0)
        continue;
      return PadRequest{beforeLeadingLabels(unit(), Extent.FirstEntry), Pad,
                        "loop at " + std::to_string(Extent.Begin) +
                            " spans " + std::to_string(Spanned) +
                            " lines (needs <= " + std::to_string(MaxLines) +
                            "); padding " + std::to_string(Pad) + " bytes"};
    }
    return std::nullopt;
  }

  const long MaxLines;
};

REGISTER_FUNC_PASS("LSDOPT", LsdFitPass)

//===----------------------------------------------------------------------===//
// BRALIGN: separate aliasing back branches.
//===----------------------------------------------------------------------===//

class BranchAlignPass : public AlignFixpointPass {
public:
  BranchAlignPass(MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : AlignFixpointPass("BRALIGN", Options, Unit, Fn),
        BucketShift(options().getInt("shift", 5)) {} // PC >> 5

private:
  std::optional<PadRequest> nextPad(const CFG &Graph,
                                    const LoopStructureGraph &LSG) override {
    // Collect loop back branches: conditional jumps whose target is the
    // header of the loop containing them.
    std::vector<EntryIter> BackBranches;
    for (const BasicBlock &BB : Graph.blocks()) {
      if (BB.empty())
        continue;
      const Instruction &Last = BB.lastInstruction();
      if (!Last.isCondJump() || Last.hasIndirectTarget())
        continue;
      unsigned TargetBlock = Graph.blockOfLabel(Last.branchTarget()->Sym);
      if (TargetBlock == ~0u)
        continue;
      unsigned L = LSG.loopOfBlock(BB.Index);
      if (L == 0 || LSG.loops()[L].Header != TargetBlock)
        continue;
      BackBranches.push_back(BB.Insns.back());
    }

    // Bucket by PC >> shift and split the first collision found.
    std::map<int64_t, EntryIter> Buckets;
    std::sort(BackBranches.begin(), BackBranches.end(),
              [](EntryIter A, EntryIter B) { return A->Address < B->Address; });
    for (EntryIter Branch : BackBranches) {
      const int64_t Bucket = Branch->Address >> BucketShift;
      auto [It, Inserted] = Buckets.emplace(Bucket, Branch);
      if (Inserted)
        continue;
      // Collision: push this branch into the next bucket by padding in
      // front of it.
      const int64_t BucketSize = int64_t(1) << BucketShift;
      const unsigned Pad = static_cast<unsigned>(
          BucketSize - (Branch->Address % BucketSize));
      return PadRequest{Branch, Pad,
                        "back branches at " +
                            std::to_string(It->second->Address) + " and " +
                            std::to_string(Branch->Address) +
                            " share bucket " + std::to_string(Bucket) +
                            "; padding " + std::to_string(Pad) + " bytes"};
    }
    return std::nullopt;
  }

  const long BucketShift;
};

REGISTER_FUNC_PASS("BRALIGN", BranchAlignPass)

//===----------------------------------------------------------------------===//
// ALIGNSEL: explicit .p2align selection.
//===----------------------------------------------------------------------===//

/// Replaces a function's alignment directives with an explicit choice:
/// `pow=N` aligns the function entry to 1<<N bytes (pow=0 strips entry
/// alignment without adding one), and `loops[=N]` does the same for every
/// innermost loop header. Compilers emit one fixed heuristic alignment;
/// this pass makes the choice a parameter so the tuner can search it —
/// over-aligning costs fetch bandwidth on the NOPs, under-aligning risks
/// the decode-line splits LOOP16/LSDOPT exist to fix, and the best answer
/// depends on the loop body (paper Sec. III-C).
class AlignSelectPass : public MaoFunctionPass {
public:
  AlignSelectPass(MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : MaoFunctionPass("ALIGNSEL", Options, Unit, Fn) {}

  bool go() override {
    const std::string Only = options().getString("func", "");
    if (!Only.empty() && Only != function().name())
      return true;
    const long EntryPow = options().getInt("pow", -1);
    const long LoopPow = options().getInt("loops", -1);

    if (EntryPow >= 0) {
      // Drop existing alignment immediately before the function's leading
      // labels, then install the chosen one.
      EntryIter First = beforeLeadingLabels(unit(), function().begin().underlying());
      while (First != unit().entries().begin()) {
        EntryIter Prev = std::prev(First);
        if (!Prev->isDirective(DirKind::P2Align) &&
            !Prev->isDirective(DirKind::Balign))
          break;
        layout().erase(Prev);
        countTransformation();
      }
      if (EntryPow > 0) {
        insertP2Align(First, EntryPow);
        countTransformation();
      }
    }

    if (LoopPow > 0) {
      layout().relax();
      const LoopStructureGraph &LSG = keptLoops(function());
      const CFG &Graph = keptCFG(function());
      for (size_t L = 1; L < LSG.loops().size(); ++L) {
        if (!LSG.loops()[L].Children.empty())
          continue; // Innermost loops only.
        const unsigned Header = LSG.loops()[L].Header;
        const BasicBlock &BB = Graph.blocks()[Header];
        if (BB.empty())
          continue;
        EntryIter Pos = beforeLeadingLabels(unit(), BB.Insns.front());
        if (Pos != unit().entries().begin() &&
            std::prev(Pos)->isDirective(DirKind::P2Align))
          continue; // Already explicitly aligned.
        insertP2Align(Pos, LoopPow);
        countTransformation();
      }
    }
    trace(1, "func %s: %u alignment edits", function().name().c_str(),
          transformationCount());
    return true;
  }

private:
  void insertP2Align(EntryIter Pos, long Pow) {
    Directive Dir;
    Dir.Kind = DirKind::P2Align;
    Dir.Name = ".p2align";
    Dir.Args = {std::to_string(Pow)};
    layout().insertBefore(Pos, MaoEntry::makeDirective(std::move(Dir)));
  }
};

REGISTER_FUNC_PASS("ALIGNSEL", AlignSelectPass)

} // namespace

namespace mao {
void linkAlignPasses() {}
} // namespace mao
