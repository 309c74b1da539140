//===- analysis/Relaxer.cpp - Repeated relaxation ----------------------------==//

#include "analysis/Relaxer.h"

#include "support/Diag.h"
#include "support/Stats.h"

#include <cassert>
#include <cstdlib>
#include <tuple>
#include <utility>

using namespace mao;

namespace {

/// Length in bytes of a quoted string literal after unescaping; returns 0
/// for malformed literals.
size_t unescapedStringLength(const std::string &Quoted) {
  if (Quoted.size() < 2 || Quoted.front() != '"' || Quoted.back() != '"')
    return 0;
  size_t Len = 0;
  for (size_t I = 1; I + 1 < Quoted.size(); ++I, ++Len) {
    if (Quoted[I] != '\\')
      continue;
    ++I;
    if (I + 1 >= Quoted.size())
      break;
    // Octal escapes consume up to three digits.
    unsigned Digits = 0;
    while (Digits < 3 && I + 1 < Quoted.size() && Quoted[I] >= '0' &&
           Quoted[I] <= '7') {
      ++I;
      ++Digits;
    }
    if (Digits > 0)
      --I; // The loop header advances once more.
  }
  return Len;
}

int64_t parseIntArg(const std::string &Text, int64_t Default = 0) {
  if (Text.empty())
    return Default;
  char *End = nullptr;
  long long V = std::strtoll(Text.c_str(), &End, 0);
  if (End == Text.c_str())
    return Default;
  return V;
}

/// An alignment directive's padding rule, parsed once.
struct AlignSpec {
  int64_t Boundary = 0; ///< Power of two; 0 never pads.
  int64_t MaxPad = -1;  ///< Third argument; -1 for no limit.

  /// Padding inserted at \p Address.
  unsigned pad(int64_t Address) const {
    if (Boundary == 0)
      return 0;
    const int64_t Pad = (Boundary - (Address % Boundary)) % Boundary;
    return MaxPad >= 0 && Pad > MaxPad ? 0 : static_cast<unsigned>(Pad);
  }
};

AlignSpec alignSpecOf(const Directive &Dir) {
  AlignSpec Spec;
  if (Dir.Kind == DirKind::P2Align) {
    int64_t Pow2 = parseIntArg(Dir.arg(0));
    if (Pow2 < 0 || Pow2 > 31)
      return Spec;
    Spec.Boundary = int64_t(1) << Pow2;
  } else {
    int64_t Boundary = parseIntArg(Dir.arg(0), 1);
    if (Boundary <= 1)
      return Spec;
    // .align/.balign boundaries must be powers of two; round down odd
    // values to be safe.
    while (Boundary & (Boundary - 1))
      Boundary &= Boundary - 1;
    Spec.Boundary = Boundary;
  }
  if (!Dir.arg(2).empty())
    Spec.MaxPad = parseIntArg(Dir.arg(2), -1);
  return Spec;
}

/// Relaxation work counters, resolved once; each relax() flushes into them.
struct RelaxCounters {
  StatCounter &LayoutsBuilt;
  StatCounter &Relaxations;
  StatCounter &Iterations;
  StatCounter &SlotsWalked;

  static RelaxCounters &get() {
    static RelaxCounters Counters{
        StatsRegistry::instance().counter("relax.layouts_built"),
        StatsRegistry::instance().counter("relax.relaxations"),
        StatsRegistry::instance().counter("relax.iterations"),
        StatsRegistry::instance().counter("relax.slots_walked")};
    return Counters;
  }
};

} // namespace

void LengthMemoTally::flush() {
  static StatCounter &HitCounter =
      StatsRegistry::instance().counter("encode.memo_hits");
  static StatCounter &MissCounter =
      StatsRegistry::instance().counter("encode.memo_misses");
  if (Hits)
    HitCounter.add(Hits);
  if (Misses)
    MissCounter.add(Misses);
  Hits = Misses = 0;
}

unsigned mao::entryLayoutSize(MaoEntry &Entry, int64_t Address,
                              LengthMemoTally &Tally) {
  const MaoEntry &View = Entry; // Reading must not drop the memo.
  if (View.isLabel())
    return 0;
  if (View.isInstruction()) {
    if (unsigned Memo = View.lengthMemo()) {
      ++Tally.Hits;
      return Memo;
    }
    const unsigned Length = instructionLength(View.instruction());
    Entry.setLengthMemo(Length);
    ++Tally.Misses;
    return Length;
  }
  const Directive &Dir = View.directive();
  switch (Dir.Kind) {
  case DirKind::P2Align:
  case DirKind::Balign:
    return alignSpecOf(Dir).pad(Address);
  case DirKind::Byte:
    return static_cast<unsigned>(Dir.Args.size());
  case DirKind::Word:
    return static_cast<unsigned>(2 * Dir.Args.size());
  case DirKind::Long:
    return static_cast<unsigned>(4 * Dir.Args.size());
  case DirKind::Quad:
    return static_cast<unsigned>(8 * Dir.Args.size());
  case DirKind::Zero:
    return static_cast<unsigned>(parseIntArg(Dir.arg(0)));
  case DirKind::String:
  case DirKind::Asciz:
    return static_cast<unsigned>(unescapedStringLength(Dir.arg(0)) + 1);
  case DirKind::Ascii:
    return static_cast<unsigned>(unescapedStringLength(Dir.arg(0)));
  default:
    return 0;
  }
}

const LabelAddressMap &
RelaxationResult::sectionLabels(const std::string &SectionName) const {
  static const LabelAddressMap Empty;
  auto It = SectionLabels.find(SectionName);
  return It == SectionLabels.end() ? Empty : It->second;
}

bool mao::parseRelaxMode(const std::string &Text, RelaxMode &Mode) {
  if (Text == "grow") {
    Mode = RelaxMode::Grow;
    return true;
  }
  if (Text == "optimal") {
    Mode = RelaxMode::Optimal;
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// UnitLayout
//===----------------------------------------------------------------------===//

UnitLayout::UnitLayout(MaoUnit &Unit, DiagEngine *Diags)
    : Unit(Unit), Diags(Diags), ExpectedEntries(Unit.entries().size()) {
  LengthMemoTally Tally;
  for (SectionInfo &Info : Unit.sections()) {
    Section &Sec = Sections.emplace_back();
    Sec.Name = Info.Name;
    for (const MaoFunction::Range &R : Info.Ranges)
      for (EntryIter It = R.Begin; It != R.End; ++It)
        Sec.Slots.push_back(makeSlot(*It, Tally));
    resolveTargets(Sec);
  }
  Tally.flush();
  RelaxCounters::get().LayoutsBuilt.add();
}

UnitLayout::Slot UnitLayout::makeSlot(MaoEntry &E, LengthMemoTally &Tally) {
  // Only two kinds of entry have an address- or iteration-dependent size —
  // alignment pads and direct branches — so everything else is sized once
  // here (from its length memo when it has one). A direct branch is encoded
  // once at each width, so rounds and the optimal-mode audit just pick one
  // of the two. Everything but a direct branch is read through a const
  // view so its length memo survives.
  const MaoEntry &View = E;
  Slot S;
  S.E = &E;
  if (View.isLabel()) {
    S.Kind = SlotKind::Label;
  } else if (View.isInstruction() && View.instruction().isBranch() &&
             !View.instruction().hasIndirectTarget()) {
    S.Kind = SlotKind::Branch;
    const Operand *Target = View.instruction().branchTarget();
    assert(Target && Target->isSymbol() && "direct branch without target");
    S.TargetOffset = Target->Imm;
    // Ends at rel8, the width every relaxation starts from.
    Instruction &Branch = E.instruction();
    Branch.BranchSize = 4;
    S.Rel32Size = static_cast<uint8_t>(instructionLength(Branch));
    Branch.BranchSize = 1;
    S.Rel8Size = static_cast<uint8_t>(instructionLength(Branch));
    Tally.Misses += 2;
  } else if (View.isDirective(DirKind::P2Align) ||
             View.isDirective(DirKind::Balign)) {
    S.Kind = SlotKind::Align;
    const AlignSpec Spec = alignSpecOf(View.directive());
    S.Boundary = Spec.Boundary;
    S.MaxPad = Spec.MaxPad;
  } else {
    S.Size = entryLayoutSize(E, 0, Tally);
  }
  return S;
}

void UnitLayout::resolveTargets(Section &Sec) {
  // Every defined label participates, global or not: a branch to a symbol
  // defined in this very unit has a known distance. Duplicate definitions
  // bind to the FIRST one, matching MaoUnit::labelMap and the emulator.
  // Targets defined only in another section, or nowhere, stay -1: a
  // displacement between sections would span unrelated address spaces.
  std::unordered_map<std::string_view, int32_t> First;
  for (size_t I = 0; I < Sec.Slots.size(); ++I)
    if (Sec.Slots[I].Kind == SlotKind::Label)
      First.try_emplace(Sec.Slots[I].E->labelName(), static_cast<int32_t>(I));
  for (Slot &S : Sec.Slots) {
    if (S.Kind != SlotKind::Branch)
      continue;
    auto It = First.find(std::as_const(*S.E).instruction().branchTarget()->Sym);
    S.Target = It == First.end() ? -1 : It->second;
  }
}

std::pair<UnitLayout::Section *, size_t> UnitLayout::locate(EntryIter Pos) {
  if (Pos == Unit.entries().end())
    return {nullptr, 0};
  const MaoEntry *Wanted = &*Pos;
  for (Section &Sec : Sections)
    for (size_t I = 0; I < Sec.Slots.size(); ++I)
      if (Sec.Slots[I].E == Wanted)
        return {&Sec, I};
  return {nullptr, 0};
}

EntryIter UnitLayout::insertBefore(EntryIter Pos, MaoEntry Entry) {
  // The new entry joins the run of Pos; when Pos ends a run (a section
  // directive, or the end of the list) it joins the run before it.
  auto [Sec, Index] = locate(Pos);
  if (!Sec && Pos != Unit.entries().begin()) {
    std::tie(Sec, Index) = locate(std::prev(Pos));
    ++Index;
  }
  EntryIter New = Unit.insertBefore(Pos, std::move(Entry));
  ++ExpectedEntries;
  Dirty = true;
  if (!Sec)
    return New; // No run to join: outside MaoUnit's edit contract.

  LengthMemoTally Tally;
  const Slot S = makeSlot(*New, Tally);
  Tally.flush();
  Sec->Slots.insert(Sec->Slots.begin() + static_cast<ptrdiff_t>(Index), S);
  if (S.Kind == SlotKind::Label || S.Kind == SlotKind::Branch) {
    resolveTargets(*Sec);
  } else {
    for (Slot &B : Sec->Slots)
      if (B.Kind == SlotKind::Branch && B.Target >= static_cast<int32_t>(Index))
        ++B.Target;
  }
  return New;
}

EntryIter UnitLayout::erase(EntryIter Pos) {
  auto [Sec, Index] = locate(Pos);
  const EntryIter Next = Unit.erase(Pos);
  --ExpectedEntries;
  Dirty = true;

  if (Sec) {
    const bool WasLabel = Sec->Slots[Index].Kind == SlotKind::Label;
    Sec->Slots.erase(Sec->Slots.begin() + static_cast<ptrdiff_t>(Index));
    if (WasLabel) {
      resolveTargets(*Sec);
    } else {
      for (Slot &B : Sec->Slots)
        if (B.Kind == SlotKind::Branch && B.Target > static_cast<int32_t>(Index))
          --B.Target;
    }
  }
  return Next;
}

void UnitLayout::addressRound() {
  // Addresses restart at 0 per section.
  for (Section &Sec : Sections) {
    int64_t Address = 0;
    for (Slot &S : Sec.Slots) {
      uint32_t Size = S.Size;
      if (S.Kind == SlotKind::Branch)
        Size = S.Wide ? S.Rel32Size : S.Rel8Size;
      else if (S.Kind == SlotKind::Align)
        Size = AlignSpec{S.Boundary, S.MaxPad}.pad(Address);
      if (S.Address != Address || S.Size != Size) {
        S.Address = Address;
        S.Size = Size;
        S.Stale = true;
      }
      Address += Size;
    }
    Sec.Size = Address;
    SlotsWalked += Sec.Slots.size();
  }
}

bool UnitLayout::growthRound() {
  // Widen branches whose rel8 displacement no longer fits. External and
  // cross-section targets must use rel32 (resolved by relocation, where
  // the distance is actually known).
  bool Changed = false;
  for (size_t SecIdx = 0; SecIdx < Sections.size(); ++SecIdx) {
    Section &Sec = Sections[SecIdx];
    for (Slot &S : Sec.Slots) {
      if (S.Kind != SlotKind::Branch || S.Wide)
        continue;
      bool Grow = S.Target < 0;
      if (!Grow) {
        const int64_t Disp = Sec.Slots[S.Target].Address + S.TargetOffset -
                             (S.Address + S.Size);
        Grow = Disp < -128 || Disp > 127;
      }
      if (Grow) {
        S.Wide = S.Stale = true;
        Changed = true;
        LastGrowth = SecIdx;
      }
    }
  }
  return Changed;
}

bool UnitLayout::converge() {
  // Monotone (branches only grow), so it terminates; the shared iteration
  // budget bounds the pathological case.
  while (Result.Iterations < RelaxationIterationLimit) {
    ++Result.Iterations;
    addressRound();
    if (!growthRound())
      return true;
  }
  return false;
}

void UnitLayout::shrinkAudit() {
  // The grow fixpoint can be conservatively large when alignment padding
  // decouples displacement from branch sizes. Demote every rel32 branch
  // whose displacement fits rel8 under the settled layout, then re-converge
  // (which re-promotes any overreach); repeat until a round demotes
  // nothing. Bounded to keep the worst case tame.
  auto CountRel8 = [&] {
    unsigned N = 0;
    for (const Section &Sec : Sections)
      for (const Slot &S : Sec.Slots)
        N += S.Kind == SlotKind::Branch && !S.Wide;
    return N;
  };
  const unsigned InitialRel8 = CountRel8();
  constexpr unsigned AuditRoundLimit = 4;
  for (unsigned Round = 0; Round < AuditRoundLimit; ++Round) {
    bool Shrunk = false;
    for (Section &Sec : Sections)
      for (Slot &S : Sec.Slots) {
        if (S.Kind != SlotKind::Branch || !S.Wide || S.Target < 0)
          continue; // External/cross-section: rel32 is mandatory.
        const unsigned Delta = S.Size - S.Rel8Size;
        const int64_t Target = Sec.Slots[S.Target].Address + S.TargetOffset;
        // Exact single-demotion displacement: a forward target moves down
        // by Delta together with the branch end, a backward target gains
        // Delta of slack from the shorter branch.
        int64_t NewDisp = Target - (S.Address + S.Size);
        if (Target <= S.Address)
          NewDisp += Delta;
        if (NewDisp >= -128 && NewDisp <= 127) {
          S.Wide = false;
          S.Stale = Shrunk = true;
        }
      }
    if (!Shrunk)
      break;
    if (!converge()) {
      Result.Converged = false;
      break;
    }
  }
  if (Result.Converged) {
    const unsigned FinalRel8 = CountRel8();
    Result.ShrunkBranches =
        FinalRel8 > InitialRel8 ? FinalRel8 - InitialRel8 : 0;
  }
}

void UnitLayout::writeBack() {
  // Only this layout writes these fields while it is alive, so an entry
  // whose slot did not change still holds its values; skipping it keeps a
  // relaxation from touching every list node.
  for (Section &Sec : Sections)
    for (Slot &S : Sec.Slots) {
      if (!S.Stale)
        continue;
      S.Stale = false;
      S.E->Address = S.Address;
      S.E->Size = S.Size;
      if (S.Kind == SlotKind::Branch)
        S.E->instruction().BranchSize = S.Wide ? 4 : 1;
    }
}

const RelaxationResult &UnitLayout::relax() {
  if (!Dirty)
    return Result;
  assert(Unit.entries().size() == ExpectedEntries &&
         "unit edited behind its layout's back");
  Dirty = false;
  Result = RelaxationResult();
  SlotsWalked = 0;
  for (Section &Sec : Sections)
    for (Slot &S : Sec.Slots)
      if (S.Wide) {
        S.Wide = false;
        S.Stale = true;
      }

  Result.Converged = converge();
  if (Result.Converged && Unit.relaxMode() == RelaxMode::Optimal)
    shrinkAudit();
  writeBack();
  for (const Section &Sec : Sections)
    Result.SectionSizes[Sec.Name] = Sec.Size;

  RelaxCounters &Counters = RelaxCounters::get();
  Counters.Relaxations.add();
  Counters.Iterations.add(Result.Iterations);
  Counters.SlotsWalked.add(SlotsWalked);

  // Hit the iteration limit: addresses are best-effort and must not be
  // trusted silently — report which section was still growing, and let the
  // verifier's layout check turn !Converged into a hard error.
  if (!Result.Converged && Diags)
    Diags->warning(DiagCode::RelaxIterationLimit,
                   "relaxation of section " + Sections[LastGrowth].Name +
                       " did not converge within " +
                       std::to_string(RelaxationIterationLimit) +
                       " iterations; branch sizes are best-effort");
  return Result;
}

RelaxationResult UnitLayout::takeResult() {
  // Each section gets its own label map (addresses restart at 0 per
  // section); the flat view binds a name duplicated across sections to
  // the first section's definition.
  for (const Section &Sec : Sections) {
    LabelAddressMap &SecLabels = Result.SectionLabels[Sec.Name];
    for (const Slot &S : Sec.Slots)
      if (S.Kind == SlotKind::Label) {
        SecLabels.try_emplace(S.E->labelName(), S.Address);
        Result.Labels.try_emplace(S.E->labelName(), S.Address);
      }
  }
  Dirty = true; // The next relax() must not hand out the moved-from result.
  return std::move(Result);
}

RelaxationResult mao::relaxUnit(MaoUnit &Unit, DiagEngine *Diags) {
  UnitLayout Layout(Unit, Diags);
  Layout.relax();
  return Layout.takeResult();
}
