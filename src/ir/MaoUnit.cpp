//===- ir/MaoUnit.cpp - Translation unit, sections, functions --------------==//

#include "ir/MaoUnit.h"

#include "support/Stats.h"

#include <cassert>
#include <cctype>
#include <cstring>
#include <utility>

using namespace mao;

namespace {

/// True for sections that contain instructions.
bool isCodeSectionName(const std::string &Name) {
  if (Name.rfind(".text", 0) == 0)
    return true;
  return false;
}

/// Extracts the section name from a section-changing directive.
std::string sectionNameOf(const Directive &Dir) {
  switch (Dir.Kind) {
  case DirKind::Text:
    return ".text";
  case DirKind::Data:
    return ".data";
  case DirKind::Bss:
    return ".bss";
  case DirKind::Section:
    return Dir.arg(0);
  default:
    assert(false && "not a section directive");
    return "";
  }
}

bool isSectionDirective(const MaoEntry &E) {
  if (!E.isDirective())
    return false;
  DirKind K = E.directive().Kind;
  return K == DirKind::Text || K == DirKind::Data || K == DirKind::Bss ||
         K == DirKind::Section;
}

/// True for the entries a CFG's block formation keys on: labels start
/// blocks, branches and returns end them.
bool isControlFlowEntry(const MaoEntry &E) {
  if (E.isLabel())
    return true;
  if (!E.isInstruction())
    return false;
  const Instruction &Insn = E.instruction();
  return Insn.isBranch() || Insn.isReturn();
}

/// The nearest label or instruction before \p Pos in its section run, or
/// null at the start of the run.
const MaoEntry *prevFlowEntry(const EntryList &Entries, EntryIter Pos) {
  while (Pos != Entries.begin()) {
    --Pos;
    if (isSectionDirective(*Pos))
      return nullptr;
    if (!Pos->isDirective())
      return &*Pos;
  }
  return nullptr;
}

/// The nearest label or instruction after \p Pos in its section run, or
/// null at the end of the run.
const MaoEntry *nextFlowEntry(const EntryList &Entries, EntryIter Pos) {
  for (++Pos; Pos != Entries.end(); ++Pos) {
    if (isSectionDirective(*Pos))
      return nullptr;
    if (!Pos->isDirective())
      return &*Pos;
  }
  return nullptr;
}

/// True when inserting or erasing the entry at \p Pos is a control-flow
/// edit: a label, a branch or a return, or a plain instruction alone
/// between a label, branch or return and the next label, where a fresh
/// CFG build forms (or formed) a block of its own — erasing the only
/// instruction between two labels merges their blocks. At a run start it
/// answers yes, since the previous flow entry then lies in another range.
bool isControlFlowEdit(const EntryList &Entries, EntryIter Pos) {
  if (isControlFlowEntry(*Pos))
    return true;
  const MaoEntry *Prev = prevFlowEntry(Entries, Pos);
  if (!Prev)
    return true;
  if (!isControlFlowEntry(*Prev))
    return false; // Joins the block of the instruction before.
  const MaoEntry *Next = nextFlowEntry(Entries, Pos);
  return !Next || !Next->isInstruction();
}

/// Calls \p F on every range of \p V, with the function it belongs to
/// (null for a section run).
template <class FnT> void forEachRange(UnitViews &V, FnT F) {
  for (SectionInfo &Sec : V.Sections)
    for (MaoFunction::Range &R : Sec.Ranges)
      F(R, nullptr);
  for (MaoFunction &Fn : V.Functions)
    for (MaoFunction::Range &R : Fn.ranges())
      F(R, &Fn);
}

} // namespace

std::string MaoEntry::toString() const {
  std::string Out;
  appendTo(Out);
  return Out;
}

std::string Directive::stringBytes() const {
  static constexpr char Named[] = "bfnrt", NamedValue[] = "\b\f\n\r\t";
  auto IsDigit = [](char C) { return C >= '0' && C <= '9'; };
  std::string Out;
  for (const std::string &Quoted : Args) {
    if (Quoted.size() >= 2 && Quoted.front() == '"' && Quoted.back() == '"')
      for (size_t I = 1, End = Quoted.size() - 1; I < End; ++I) {
        char C = Quoted[I];
        if (C == '\\' && I + 1 < End) {
          C = Quoted[++I];
          if (IsDigit(C)) {
            // Up to three digits, the low byte kept; gas reads '8' and '9'
            // as octal digits too.
            unsigned V = C - '0';
            for (int N = 1; N < 3 && I + 1 < End && IsDigit(Quoted[I + 1]);
                 ++N)
              V = V * 8 + (Quoted[++I] - '0');
            C = static_cast<char>(V);
          } else if (C == 'x' || C == 'X') {
            // Every hex digit that follows, the low byte kept.
            unsigned V = 0;
            while (I + 1 < End &&
                   std::isxdigit(static_cast<unsigned char>(Quoted[I + 1]))) {
              const char H = Quoted[++I];
              V = V * 16 + (IsDigit(H) ? H - '0' : (H | 0x20) - 'a' + 10);
            }
            C = static_cast<char>(V);
          } else if (const char *P = std::strchr(Named, C); P && C) {
            C = NamedValue[P - Named];
          } // Else '\\', '"' or an unknown escape: the character itself.
        }
        Out += C;
      }
    if (Kind == DirKind::String || Kind == DirKind::Asciz)
      Out += '\0';
  }
  return Out;
}

void MaoEntry::appendTo(std::string &Out) const {
  switch (EntryKind) {
  case Kind::Label:
    Out += LabelName;
    Out += ':';
    return;
  case Kind::Instruction:
    Out += '\t';
    Insn.appendTo(Out);
    return;
  case Kind::Directive:
    Out += '\t';
    Out += Dir.Name;
    for (size_t I = 0, E = Dir.Args.size(); I != E; ++I) {
      Out += I == 0 ? "\t" : ", ";
      Out += Dir.Args[I];
    }
    return;
  }
  assert(false && "covered switch");
}

std::vector<MaoEntry *> MaoFunction::instructionEntries() const {
  std::vector<MaoEntry *> Result;
  for (auto It = begin(), E = end(); It != E; ++It)
    if (It->isInstruction())
      Result.push_back(&*It);
  return Result;
}

size_t MaoFunction::countInstructions() const {
  size_t N = 0;
  for (auto It = begin(), E = end(); It != E; ++It)
    if (It->isInstruction())
      ++N;
  return N;
}

bool MaoFunction::hasOpaqueInstructions() const {
  for (auto It = begin(), E = end(); It != E; ++It)
    if (It->isInstruction() && std::as_const(*It).instruction().isOpaque())
      return true;
  return false;
}

MaoUnit &MaoUnit::operator=(MaoUnit &&Other) noexcept {
  if (this == &Other)
    return *this;
  // The source's end() is a sentinel inside the source object, so ranges
  // that end (or, emptied, begin) there are repointed at ours.
  const EntryIter OtherEnd = Other.Entries.end();
  // Order matters: destroy our nodes while our own arena is still alive
  // (the list move-assign clears *this through the old allocator first),
  // then drop the old arena.
  Entries = std::move(Other.Entries);
  IrArena = std::move(Other.IrArena);
  Views = std::move(Other.Views);
  NextEntryId = Other.NextEntryId;
  NextLabelId = Other.NextLabelId;
  forEachRange(Views, [&](MaoFunction::Range &R, MaoFunction *) {
    if (R.Begin == OtherEnd)
      R.Begin = Entries.end();
    if (R.End == OtherEnd)
      R.End = Entries.end();
  });
  for (MaoFunction &Fn : Views.Functions)
    Fn.Unit = this;
  Other.IrArena = std::make_shared<Arena>();
  Other.Entries = EntryList(ArenaAllocator<MaoEntry>(Other.IrArena.get()));
  Other.Views = UnitViews();
  return *this;
}

MaoUnit MaoUnit::clone() const {
  MaoUnit Copy;
  Copy.Entries = Entries;
  Copy.NextEntryId = NextEntryId;
  Copy.NextLabelId = NextLabelId;
  // The views cannot be copied: they hold iterators into *our* list.
  Copy.rebuildStructure();
  return Copy;
}

thread_local ScopedShardIds::Alloc ScopedShardIds::Active{nullptr, 0, 0};

ScopedShardIds::ScopedShardIds(MaoUnit &Unit, uint32_t Begin, uint32_t End)
    : Saved(Active) {
  Active = {&Unit, Begin, End};
}

ScopedShardIds::~ScopedShardIds() { Active = Saved; }

uint32_t MaoUnit::nextId() {
  ScopedShardIds::Alloc &A = ScopedShardIds::Active;
  if (A.Unit == this && A.Next < A.End)
    return A.Next++;
  return NextEntryId++;
}

uint32_t MaoUnit::reserveIdBlocks(size_t Count, uint32_t BlockSize) {
  uint32_t Base = NextEntryId;
  NextEntryId += static_cast<uint32_t>(Count) * BlockSize;
  return Base;
}

EntryIter MaoUnit::append(MaoEntry Entry) {
  std::lock_guard<std::mutex> Lock(StructuralM);
  Entry.Id = nextId();
  return Entries.insert(Entries.end(), std::move(Entry));
}

bool MaoUnit::definesStructure(const MaoEntry &E) const {
  if (isSectionDirective(E) || E.isDirective(DirKind::Type) ||
      E.isDirective(DirKind::Size))
    return true;
  if (E.isLabel())
    for (const MaoFunction &Fn : Views.Functions)
      if (Fn.name() == E.labelName())
        return true;
  return false;
}

bool MaoUnit::startsRun(EntryIter Pos) {
  return Pos == Entries.begin() || Pos == Entries.end() ||
         isSectionDirective(*std::prev(Pos));
}

void MaoUnit::moveBeginsBefore(EntryIter Pos, EntryIter New) {
  const bool AtLabel = Pos != Entries.end() && Pos->isLabel();
  forEachRange(Views, [&](MaoFunction::Range &R, MaoFunction *Fn) {
    if (R.Begin == Pos && !(Fn && AtLabel && Pos->labelName() == Fn->name())) {
      R.Begin = New;
      if (Fn)
        New->Owner = &Fn->Epochs;
    }
  });
}

EntryIter MaoUnit::insertLocked(EntryIter Pos, MaoEntry Entry) {
  assert(!definesStructure(Entry) && "edit the views cannot follow");
  const bool AtRunStart = startsRun(Pos);
  Entry.Id = nextId();
  EntryIter New = Entries.insert(Pos, std::move(Entry));
  // Inside a run the new entry lands in the range of its predecessor.
  if (AtRunStart)
    moveBeginsBefore(Pos, New);
  else
    New->Owner = std::prev(New)->Owner;
  if (New->isLabel())
    Views.Labels.try_emplace(New->labelName(), New);
  if (New->Owner && !New->isDirective())
    New->Owner->noteEdit(isControlFlowEdit(Entries, New));
  return New;
}

EntryIter MaoUnit::insertBefore(EntryIter Pos, MaoEntry Entry) {
  std::lock_guard<std::mutex> Lock(StructuralM);
  return insertLocked(Pos, std::move(Entry));
}

EntryIter MaoUnit::insertAfter(EntryIter Pos, MaoEntry Entry) {
  assert(Pos != Entries.end() && "cannot insert after end()");
  std::lock_guard<std::mutex> Lock(StructuralM);
  return insertLocked(std::next(Pos), std::move(Entry));
}

EntryIter MaoUnit::erase(EntryIter Pos) {
  std::lock_guard<std::mutex> Lock(StructuralM);
  // Erasing a function label, .type or .size is outside the contract too,
  // but UnitLayout's differential test does it on purpose; the full
  // verifier reports the stale view.
  assert(!isSectionDirective(*Pos) && "edit the views cannot follow");
  if (Pos->Owner && !Pos->isDirective())
    Pos->Owner->noteEdit(isControlFlowEdit(Entries, Pos));
  const EntryIter Next = std::next(Pos);
  // Range ends sit on section directives, labels, .size and end(), so an
  // instruction only bounds a range when it starts a run.
  if (!Pos->isInstruction() || startsRun(Pos))
    forEachRange(Views, [&](MaoFunction::Range &R, MaoFunction *) {
      if (R.Begin == Pos)
        R.Begin = Next;
      if (R.End == Pos)
        R.End = Next;
    });
  if (Pos->isLabel()) {
    auto Bound = Views.Labels.find(Pos->labelName());
    if (Bound != Views.Labels.end() && Bound->second == Pos) {
      // The key views Pos's own name, so it goes before Pos does.
      Views.Labels.erase(Bound);
      for (EntryIter It = Next; It != Entries.end(); ++It)
        if (It->isLabel() && It->labelName() == Pos->labelName()) {
          Views.Labels.emplace(It->labelName(), It);
          break;
        }
    }
  }
  return Entries.erase(Pos);
}

void MaoUnit::moveRange(EntryIter First, EntryIter Last, EntryIter Before) {
  std::lock_guard<std::mutex> Lock(StructuralM);
  // A move reorders blocks: a control-flow edit of both functions.
  if (First != Last && First->Owner)
    First->Owner->noteEdit(true);
  if (Before != Entries.end() && Before->Owner &&
      (First == Last || Before->Owner != First->Owner))
    Before->Owner->noteEdit(true);
  const bool AtRunStart = startsRun(Before);
  Entries.splice(Before, Entries, First, Last);
  if (AtRunStart && First != Last)
    moveBeginsBefore(Before, First);
}

MaoFunction *MaoUnit::findFunction(const std::string &Name) {
  for (MaoFunction &Fn : Views.Functions)
    if (Fn.name() == Name)
      return &Fn;
  return nullptr;
}

std::string MaoUnit::makeUniqueLabel() {
  return ".LMAO" + std::to_string(NextLabelId++);
}

UnitViews MaoUnit::derive(bool SetOwners) {
  static StatCounter &Builds =
      StatsRegistry::instance().counter("ir.structure_builds");
  Builds.add();
  UnitViews V;

  // Pass 1: label map and the set of symbols declared @function.
  std::unordered_map<std::string, bool> IsFunctionSym;
  for (EntryIter It = Entries.begin(), End = Entries.end(); It != End; ++It) {
    const MaoEntry &E = *It;
    // First definition wins on duplicates: fall-through execution reaches
    // the first one, and the emulator binds the same way. The parser warns
    // (MAO-parse-duplicate-label) and the full verifier rejects.
    if (E.isLabel())
      V.Labels.try_emplace(E.labelName(), It);
    if (E.isDirective(DirKind::Type)) {
      const Directive &Dir = E.directive();
      const std::string &TypeArg = Dir.arg(1);
      if (TypeArg.find("function") != std::string::npos)
        IsFunctionSym[Dir.arg(0)] = true;
    }
  }

  // Pass 2: sections. A section's ranges restart whenever the section is
  // re-entered.
  auto findSection = [&](const std::string &Name) -> SectionInfo & {
    for (SectionInfo &S : V.Sections)
      if (S.Name == Name)
        return S;
    V.Sections.push_back(SectionInfo{Name, isCodeSectionName(Name), {}});
    return V.Sections.back();
  };

  std::string CurSection = ".text";
  bool CurIsCode = true;
  EntryIter RunBegin = Entries.begin();
  auto closeSectionRun = [&](EntryIter RunEnd) {
    if (RunBegin == RunEnd)
      return;
    findSection(CurSection).Ranges.push_back({RunBegin, RunEnd});
  };

  // Pass 3 runs interleaved: function discovery needs section context.
  MaoFunction *OpenFn = nullptr;
  EntryIter FnRunBegin;
  bool FnRunOpen = false;
  auto closeFnRun = [&](EntryIter RunEnd) {
    if (!FnRunOpen)
      return;
    if (FnRunBegin != RunEnd)
      OpenFn->ranges().push_back({FnRunBegin, RunEnd});
    FnRunOpen = false;
  };
  auto closeFunction = [&](EntryIter RunEnd) {
    if (!OpenFn)
      return;
    closeFnRun(RunEnd);
    OpenFn = nullptr;
  };

  // OpenFn points into Functions, so reserve enough up front that no
  // emplace_back reallocates.
  size_t FunctionCount = IsFunctionSym.size();
  V.Functions.reserve(FunctionCount + 1);

  for (EntryIter It = Entries.begin(), E = Entries.end(); It != E; ++It) {
    if (isSectionDirective(*It)) {
      closeSectionRun(It);
      closeFnRun(It);
      CurSection = sectionNameOf(It->directive());
      CurIsCode = isCodeSectionName(CurSection);
      RunBegin = std::next(It);
      if (OpenFn && CurIsCode) {
        FnRunBegin = std::next(It);
        FnRunOpen = true;
      }
    } else if (It->isLabel() && CurIsCode &&
               IsFunctionSym.count(It->labelName())) {
      closeFunction(It);
      assert(V.Functions.size() < FunctionCount + 1 &&
             "function vector reallocation would invalidate pointers");
      V.Functions.emplace_back(It->labelName(), this);
      OpenFn = &V.Functions.back();
      FnRunBegin = It;
      FnRunOpen = true;
    } else if (It->isDirective(DirKind::Size) && OpenFn &&
               It->directive().arg(0) == OpenFn->name()) {
      closeFunction(It);
    }
    // The vector's buffer moves into the views, so the pointer stays good.
    if (SetOwners)
      It->Owner = FnRunOpen && !isSectionDirective(*It) ? &OpenFn->Epochs
                                                         : nullptr;
  }
  closeSectionRun(Entries.end());
  closeFunction(Entries.end());
  return V;
}

void MaoUnit::rebuildStructure() { Views = derive(/*SetOwners=*/true); }

InstructionEffects MaoEntry::fillEffectsMemo() const {
  static StatCounter &Misses =
      StatsRegistry::instance().counter("analysis.effects_memo_misses");
  Misses.add();
  const InstructionEffects Fx = Insn.effects();
  FxRegDefs = Fx.RegDefs;
  FxRegUses = Fx.RegUses;
  FxFlagsDef = Fx.FlagsDef;
  FxFlagsUse = Fx.FlagsUse;
  FxBits = FxValid | (Fx.MemRead ? FxMemRead : 0) |
           (Fx.MemWrite ? FxMemWrite : 0) | (Fx.Barrier ? FxBarrier : 0);
  return Fx;
}

std::string MaoUnit::toString() const {
  // One reservation sized past a typical line (SPEC-like code averages
  // under 20 bytes), so the text is appended in place with no regrowth;
  // the unused tail of a large reservation is never touched.
  constexpr size_t ReservedBytesPerEntry = 32;
  std::string Out;
  Out.reserve(Entries.size() * ReservedBytesPerEntry);
  for (const MaoEntry &E : Entries) {
    E.appendTo(Out);
    Out += '\n';
  }
  return Out;
}
