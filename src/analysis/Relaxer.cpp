//===- analysis/Relaxer.cpp - Repeated relaxation ----------------------------==//

#include "analysis/Relaxer.h"

#include "support/Diag.h"
#include "support/Stats.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <unordered_set>
#include <utility>

using namespace mao;

namespace {

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
  /// Relaxations served by the dirty spans alone.
  StatCounter &Incremental;

  static RelaxCounters &get() {
    static RelaxCounters Counters{
        StatsRegistry::instance().counter("relax.layouts_built"),
        StatsRegistry::instance().counter("relax.relaxations"),
        StatsRegistry::instance().counter("relax.iterations"),
        StatsRegistry::instance().counter("relax.slots_walked"),
        StatsRegistry::instance().counter("relax.incremental")};
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
  case DirKind::Ascii:
    return static_cast<unsigned>(Dir.stringBytes().size());
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

//===----------------------------------------------------------------------===//
// UnitLayout
//===----------------------------------------------------------------------===//

UnitLayout::UnitLayout(MaoUnit &Unit, DiagEngine *Diags)
    : Unit(Unit), Diags(Diags), ExpectedEntries(Unit.entries().size()) {
  // A function's range begins at its own label or at a section run's first
  // entry, which starts a run anyway, so only labels are looked up.
  std::unordered_set<const MaoEntry *> FunctionStarts;
  for (const MaoFunction &Fn : Unit.functions())
    for (const MaoFunction::Range &R : Fn.ranges())
      if (R.Begin != R.End)
        FunctionStarts.insert(&*R.Begin);
  LengthMemoTally Tally;
  for (SectionInfo &Info : Unit.sections()) {
    const auto SecIdx = static_cast<uint32_t>(Sections.size());
    Section &Sec = Sections.emplace_back();
    Sec.Name = Info.Name;
    for (const MaoFunction::Range &R : Info.Ranges)
      for (EntryIter It = R.Begin; It != R.End; ++It) {
        if (It == R.Begin ||
            (It->isLabel() && FunctionStarts.count(&*It) != 0)) {
          RunStarts.emplace(&*It, RunRef{SecIdx, static_cast<uint32_t>(
                                                     Sec.Runs.size())});
          Sec.Runs.emplace_back();
        }
        std::vector<Slot> &Slots = Sec.Runs.back();
        Slots.push_back(makeSlot(Sec, *It, Tally));
        if (Slots.back().Kind == SlotKind::Label)
          defineLabel(Sec, {static_cast<uint32_t>(Sec.Runs.size() - 1),
                            static_cast<uint32_t>(Slots.size() - 1)});
      }
  }
  Tally.flush();
  RelaxCounters::get().LayoutsBuilt.add();
}

UnitLayout::Slot UnitLayout::makeSlot(Section &Sec, MaoEntry &E,
                                      LengthMemoTally &Tally) {
  // Only two kinds of entry have an address- or iteration-dependent size —
  // alignment pads and direct branches — so everything else is sized once
  // here (from its length memo when it has one). A direct branch is encoded
  // once at each width, so passes just pick one of the two. Everything but
  // a direct branch is read through a const view so its length memo
  // survives.
  const MaoEntry &View = E;
  Slot S;
  S.E = &E;
  if (View.isLabel()) {
    S.Kind = SlotKind::Label; // The caller enters it once it has a place.
  } else if (View.isInstruction() && View.instruction().isBranch() &&
             !View.instruction().hasIndirectTarget()) {
    S.Kind = SlotKind::Branch;
    const Operand *Target = View.instruction().branchTarget();
    assert(Target && Target->isSymbol() && "direct branch without target");
    S.TargetOffset = Target->Imm;
    Sec.MaxTargetOffset =
        std::max(Sec.MaxTargetOffset, std::abs(Target->Imm));
    S.Id = symbolId(Sec, Target->Sym);
    ++Sec.Symbols[S.Id].Refs;
    // Ends at rel8, the width every relaxation starts from.
    E.setBranchSize(4);
    S.Rel32Size = static_cast<uint8_t>(instructionLength(View.instruction()));
    E.setBranchSize(1);
    S.Rel8Size = static_cast<uint8_t>(instructionLength(View.instruction()));
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

int32_t UnitLayout::symbolId(Section &Sec, std::string_view Name) {
  auto It = Sec.SymbolIds.find(Name);
  if (It != Sec.SymbolIds.end())
    return It->second;
  const auto Id = static_cast<int32_t>(Sec.Symbols.size());
  Sec.Symbols.emplace_back();
  Sec.SymbolIds.emplace(std::string(Name), Id);
  return Id;
}

void UnitLayout::defineLabel(Section &Sec, SlotPos At) {
  // Every defined label participates, global or not: a branch to a symbol
  // defined in this very unit has a known distance. Duplicate definitions
  // bind to the FIRST one, matching MaoUnit::labelMap and the emulator.
  // Targets defined only in another section, or nowhere, have no First: a
  // displacement between sections would span unrelated address spaces.
  Slot &S = slotAt(Sec, At);
  const auto Id = static_cast<int32_t>(Sec.Labels.size());
  const int32_t Sym = symbolId(Sec, S.E->labelName());
  Symbol &Def = Sec.Symbols[Sym];
  Sec.Labels.push_back({At, Sym, Def.Defs});
  Def.Defs = S.Id = Id;
  if (Def.First >= 0 && At >= Sec.Labels[Def.First].At)
    return;
  Def.First = Id;
  if (Def.Refs != 0)
    CanResume = false; // Branches changed target, anywhere in the section.
}

void UnitLayout::undefineLabel(Section &Sec, int32_t Id) {
  const LabelDef &Label = Sec.Labels[Id];
  Symbol &Def = Sec.Symbols[Label.Symbol];
  for (int32_t *Link = &Def.Defs; *Link >= 0;
       Link = &Sec.Labels[*Link].NextDef)
    if (*Link == Id) {
      *Link = Label.NextDef;
      break;
    }
  if (Def.First != Id)
    return;
  Def.First = -1;
  for (int32_t D = Def.Defs; D >= 0; D = Sec.Labels[D].NextDef)
    if (Def.First < 0 || Sec.Labels[D].At < Sec.Labels[Def.First].At)
      Def.First = D;
  if (Def.Refs != 0)
    CanResume = false;
}

void UnitLayout::reindexLabels(Section &Sec, uint32_t Run, uint32_t From) {
  std::vector<Slot> &Slots = Sec.Runs[Run];
  for (uint32_t I = From; I < Slots.size(); ++I)
    if (Slots[I].Kind == SlotKind::Label)
      Sec.Labels[Slots[I].Id].At.Index = I;
}

bool UnitLayout::fitsRel8(const Section &Sec, const Slot &Branch) const {
  const int32_t Label = Sec.Symbols[Branch.Id].First;
  if (Label < 0)
    return false; // External or cross-section: rel32 is mandatory.
  const int64_t Target =
      slotAt(Sec, Sec.Labels[Label].At).Address + Branch.TargetOffset;
  const int64_t Disp = Target - (Branch.Address + Branch.Size);
  return Disp >= -128 && Disp <= 127;
}

std::pair<UnitLayout::Section *, UnitLayout::SlotPos>
UnitLayout::locate(EntryIter Pos, bool ForInsert) {
  // Runs are contiguous in the list, so walking back from Pos to the first
  // run start counts Pos's index in that run: O(the run), not O(section).
  const EntryIter Begin = Unit.entries().begin();
  EntryIter It = Pos;
  uint32_t Index = 0;
  if (It == Unit.entries().end()) {
    if (It == Begin)
      return {nullptr, {}};
    --It;
    ++Index;
  }
  for (;; --It, ++Index) {
    auto Found = RunStarts.find(&*It);
    if (Found != RunStarts.end()) {
      Section &Sec = Sections[Found->second.Section];
      const size_t Size = Sec.Runs[Found->second.Run].size();
      if (Index < Size || (ForInsert && Index == Size))
        return {&Sec, {Found->second.Run, Index}};
      return {nullptr, {}};
    }
    if (It == Begin)
      return {nullptr, {}};
  }
}

void UnitLayout::noteInsert(Section &Sec, SlotPos At) {
  // The unchanged suffix shifts with the new slot, or, when the insertion
  // lands inside it, now begins right after the new slot.
  if (At >= Sec.CleanFrom)
    Sec.CleanFrom = {At.Run, At.Index + 1};
  else if (Sec.CleanFrom.Run == At.Run)
    ++Sec.CleanFrom.Index;
  Sec.EditBegin = std::min(Sec.EditBegin, At);
}

void UnitLayout::noteErase(Section &Sec, SlotPos At) {
  if (At >= Sec.CleanFrom)
    Sec.CleanFrom = At;
  else if (Sec.CleanFrom.Run == At.Run)
    --Sec.CleanFrom.Index;
  Sec.EditBegin = std::min(Sec.EditBegin, At);
}

EntryIter UnitLayout::insertBefore(EntryIter Pos, MaoEntry Entry) {
  // The new entry joins the run of Pos; when Pos ends a run (a section
  // directive, or the end of the list) it joins the run before it.
  auto [Sec, At] = locate(Pos, /*ForInsert=*/true);
  EntryIter New = Unit.insertBefore(Pos, std::move(Entry));
  ++ExpectedEntries;
  Dirty = true;
  if (!Sec)
    return New; // No run to join: outside MaoUnit's edit contract.

  std::vector<Slot> &Slots = Sec->Runs[At.Run];
  LengthMemoTally Tally;
  Slots.insert(Slots.begin() + At.Index, makeSlot(*Sec, *New, Tally));
  Tally.flush();
  if (At.Index == 0) {
    const RunRef Ref = RunStarts.at(&*Pos);
    RunStarts.erase(&*Pos);
    RunStarts.emplace(&*New, Ref);
  }
  reindexLabels(*Sec, At.Run, At.Index + 1);
  if (Slots[At.Index].Kind == SlotKind::Label)
    defineLabel(*Sec, At);
  noteInsert(*Sec, At);
  return New;
}

EntryIter UnitLayout::erase(EntryIter Pos) {
  auto [Sec, At] = locate(Pos, /*ForInsert=*/false);
  if (Sec) {
    std::vector<Slot> &Slots = Sec->Runs[At.Run];
    const Slot &S = Slots[At.Index];
    if (S.Kind == SlotKind::Label)
      undefineLabel(*Sec, S.Id);
    else if (S.Kind == SlotKind::Branch)
      --Sec->Symbols[S.Id].Refs;
    if (At.Index == 0) {
      const RunRef Ref = RunStarts.at(&*Pos);
      RunStarts.erase(&*Pos);
      if (Slots.size() > 1)
        RunStarts.emplace(Slots[1].E, Ref);
    }
    Slots.erase(Slots.begin() + At.Index);
    reindexLabels(*Sec, At.Run, At.Index);
    noteErase(*Sec, At);
  }
  const EntryIter Next = Unit.erase(Pos);
  --ExpectedEntries;
  Dirty = true;
  return Next;
}

bool UnitLayout::outgrowsRel8(const Section &Sec, const Slot &Branch,
                              SlotPos At, int64_t Address,
                              uint32_t Region) const {
  // gas's relax_frag for a rel8 branch about to be placed at \p Address.
  // The target holds this pass's address when it lies behind the branch
  // and the last pass's when it lies ahead; an unreached target moves by
  // the stretch unless an alignment slot between the two may absorb it.
  const int32_t Label = Sec.Symbols[Branch.Id].First;
  assert(Label >= 0 && "the first guess makes every other branch rel32");
  const LabelDef &Def = Sec.Labels[Label];
  int64_t Target = slotAt(Sec, Def.At).Address + Branch.TargetOffset;
  const int64_t Stretch = Address - Branch.Address;
  if (Stretch != 0 && At < Def.At) {
    if (Stretch < 0 || Def.Region == Region)
      Target += Stretch;
    else if (Target < Address + Branch.Rel8Size - 1)
      return false; // The stale estimate fell behind the branch.
  }
  const int64_t Disp = Target - (Address + Branch.Rel8Size);
  return Disp < -128 || Disp > 127;
}

bool UnitLayout::relaxPass(bool Grow) {
  // One pass of gas's relax_segment (binutils gas/write.c): each section
  // in slot order, every slot placed at the running address, so a branch
  // sees the growth of everything before it in this same pass. Alignment
  // slots re-pad in place; each one ends a region. Without Grow it is
  // gas's first guess: a branch to a label of its own section at rel8,
  // any other at rel32 for good.
  bool Grew = false;
  for (size_t SecIdx = 0; SecIdx < Sections.size(); ++SecIdx) {
    Section &Sec = Sections[SecIdx];
    int64_t Address = 0;
    uint32_t Region = 0;
    for (uint32_t RunIdx = 0; RunIdx < Sec.Runs.size(); ++RunIdx) {
      std::vector<Slot> &Slots = Sec.Runs[RunIdx];
      for (uint32_t I = 0; I < Slots.size(); ++I) {
        Slot &S = Slots[I];
        uint32_t Size = S.Size;
        if (S.Kind == SlotKind::Label) {
          if (!Grow) // Regions hold until the next edit.
            Sec.Labels[S.Id].Region = Region;
        } else if (S.Kind == SlotKind::Align) {
          Size = AlignSpec{S.Boundary, S.MaxPad}.pad(Address);
        } else if (S.Kind == SlotKind::Branch) {
          if (!Grow) {
            S.Wide = Sec.Symbols[S.Id].First < 0;
          } else if (!S.Wide &&
                     outgrowsRel8(Sec, S, {RunIdx, I}, Address, Region)) {
            S.Wide = true;
            Grew = true;
            LastGrowth = SecIdx;
          }
          Size = S.Wide ? S.Rel32Size : S.Rel8Size;
        }
        if (S.Address != Address || S.Size != Size) {
          S.Address = Address;
          S.Size = Size;
          S.Stale = true;
        }
        Address += Size;
        Region += S.Kind == SlotKind::Align && S.Boundary > 1;
      }
      SlotsWalked += Slots.size();
    }
    Sec.Size = Address;
  }
  return Grew;
}

bool UnitLayout::converge() {
  // gas's first guess, then relaxation passes until one grows nothing;
  // branches only grow, so that happens, and the shared iteration budget
  // bounds the pathological case.
  relaxPass(/*Grow=*/false);
  while (Result.Iterations < RelaxationIterationLimit) {
    ++Result.Iterations;
    if (!relaxPass(/*Grow=*/true))
      return true;
  }
  return false;
}

void UnitLayout::writeBack(Slot &S) {
  S.Stale = false;
  S.E->Address = S.Address;
  S.E->Size = S.Size;
  if (S.Kind == SlotKind::Branch)
    S.E->setBranchSize(S.Wide ? 4 : 1);
}

void UnitLayout::relaxAll() {
  Result = RelaxationResult();
  Result.Converged = converge();

  bool AnyWide = false;
  for (Section &Sec : Sections)
    for (std::vector<Slot> &R : Sec.Runs)
      for (Slot &S : R) {
        AnyWide |= S.Wide;
        if (S.Stale)
          writeBack(S);
      }
  CanResume = Result.Converged && !AnyWide;

  // Hit the iteration limit: addresses are best-effort and must not be
  // trusted silently — report which section was still growing, and let the
  // verifier's layout check turn !Converged into a hard error.
  if (!Result.Converged && Diags)
    Diags->warning(DiagCode::RelaxIterationLimit,
                   "relaxation of section " + Sections[LastGrowth].Name +
                       " did not converge within " +
                       std::to_string(RelaxationIterationLimit) +
                       " iterations; branch sizes are best-effort");
}

bool UnitLayout::relaxSpans() {
  for (Section &Sec : Sections)
    if (Sec.dirty() && !relaxSpan(Sec))
      return false;
  Result = RelaxationResult();
  Result.Converged = true;
  Result.Iterations = 1;
  return true;
}

bool UnitLayout::prevSlot(const Section &Sec, SlotPos &At) {
  while (At.Index == 0) {
    if (At.Run == 0)
      return false;
    --At.Run;
    At.Index = static_cast<uint32_t>(Sec.Runs[At.Run].size());
  }
  --At.Index;
  return true;
}

bool UnitLayout::relaxSpan(Section &Sec) {
  // Every branch was rel8 after the last relax(), and a from-scratch relax
  // starts from a first guess with every in-section branch at rel8, so that
  // guess lays the unedited prefix and everything past the resync slot out
  // exactly as before. Re-address the rest of it here.
  const SlotPos From = Sec.EditBegin;
  SlotPos Before = From;
  int64_t Address = 0;
  if (prevSlot(Sec, Before))
    Address = slotAt(Sec, Before).Address + slotAt(Sec, Before).Size;
  const int64_t SpanBegin = Address;
  SlotPos Stop{static_cast<uint32_t>(Sec.Runs.size()), 0};
  for (uint32_t RunIdx = From.Run; RunIdx < Stop.Run; ++RunIdx) {
    std::vector<Slot> &Slots = Sec.Runs[RunIdx];
    for (uint32_t I = RunIdx == From.Run ? From.Index : 0; I < Slots.size();
         ++I) {
      Slot &S = Slots[I];
      // Past the last edit, the first slot that did not move resyncs: the
      // rest of the section is the old layout.
      if (S.Address == Address && SlotPos{RunIdx, I} >= Sec.CleanFrom) {
        Stop = {RunIdx, I};
        break;
      }
      uint32_t Size = S.Size;
      if (S.Kind == SlotKind::Branch)
        Size = S.Rel8Size;
      else if (S.Kind == SlotKind::Align)
        Size = AlignSpec{S.Boundary, S.MaxPad}.pad(Address);
      if (S.Address != Address || S.Size != Size) {
        S.Address = Address;
        S.Size = Size;
        S.Stale = true;
      }
      Address += Size;
      ++SlotsWalked;
    }
  }
  if (Stop.Run == Sec.Runs.size())
    Sec.Size = Address;

  // Re-check the branches whose source or target moved. Before the edits
  // every branch fit rel8, so one whose target is in the span sits within
  // rel8 reach (plus any `sym+N` offset) of it; re-checking a few more
  // than that is harmless.
  const int64_t Reach = 128 + Sec.MaxTargetOffset;
  auto Fits = [&](const Slot &S) {
    return S.Kind != SlotKind::Branch || fitsRel8(Sec, S);
  };
  for (SlotPos At = From; prevSlot(Sec, At);) {
    const Slot &S = slotAt(Sec, At);
    if (S.Address + S.Size < SpanBegin - Reach)
      break;
    ++SlotsWalked;
    if (!Fits(S))
      return false;
  }
  for (uint32_t RunIdx = From.Run; RunIdx < Sec.Runs.size(); ++RunIdx) {
    std::vector<Slot> &Slots = Sec.Runs[RunIdx];
    for (uint32_t I = RunIdx == From.Run ? From.Index : 0; I < Slots.size();
         ++I) {
      Slot &S = Slots[I];
      if (SlotPos{RunIdx, I} >= Stop) {
        if (S.Address > Address + Reach)
          return true;
        ++SlotsWalked;
      }
      if (!Fits(S))
        return false;
      if (S.Stale)
        writeBack(S);
    }
  }
  return true;
}

const RelaxationResult &UnitLayout::relax() {
  if (!Dirty)
    return Result;
  assert(Unit.entries().size() == ExpectedEntries &&
         "unit edited behind its layout's back");
  Dirty = false;
  SlotsWalked = 0;
  const bool Incremental = CanResume && relaxSpans();
  if (!Incremental)
    relaxAll();
  for (Section &Sec : Sections) {
    Result.SectionSizes[Sec.Name] = Sec.Size;
    Sec.EditBegin = {UINT32_MAX, 0};
    Sec.CleanFrom = {};
  }

  RelaxCounters &Counters = RelaxCounters::get();
  Counters.Relaxations.add();
  Counters.Iterations.add(Result.Iterations);
  Counters.SlotsWalked.add(SlotsWalked);
  if (Incremental)
    Counters.Incremental.add();
  return Result;
}

RelaxationResult UnitLayout::takeResult() {
  // Each section gets its own label map (addresses restart at 0 per
  // section); the flat view binds a name duplicated across sections to
  // the first section's definition.
  for (const Section &Sec : Sections) {
    LabelAddressMap &SecLabels = Result.SectionLabels[Sec.Name];
    for (const std::vector<Slot> &R : Sec.Runs)
      for (const Slot &S : R)
        if (S.Kind == SlotKind::Label) {
          SecLabels.try_emplace(S.E->labelName(), S.Address);
          Result.Labels.try_emplace(S.E->labelName(), S.Address);
        }
  }
  // The next relax() must not hand out the moved-from result, and starts
  // from scratch.
  Dirty = true;
  CanResume = false;
  return std::move(Result);
}

RelaxationResult mao::relaxUnit(MaoUnit &Unit, DiagEngine *Diags) {
  UnitLayout Layout(Unit, Diags);
  Layout.relax();
  return Layout.takeResult();
}
