//===- ir/MaoUnit.cpp - Translation unit, sections, functions --------------==//

#include "ir/MaoUnit.h"

#include <cassert>
#include <utility>

using namespace mao;

std::string MaoEntry::toString() const {
  switch (EntryKind) {
  case Kind::Label:
    return LabelName + ":";
  case Kind::Instruction:
    return "\t" + Insn.toString();
  case Kind::Directive: {
    std::string Out = "\t" + Dir.Name;
    for (size_t I = 0, E = Dir.Args.size(); I != E; ++I) {
      Out += I == 0 ? "\t" : ", ";
      Out += Dir.Args[I];
    }
    return Out;
  }
  }
  assert(false && "covered switch");
  return "";
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

MaoUnit MaoUnit::clone() const {
  // Derived views are deliberately NOT rebuilt: a snapshot that is only
  // ever restored (via move-assignment, which rebuilds) or discarded never
  // needs them, and the rebuild would double the per-pass snapshot cost in
  // the transactional pipeline. Callers that inspect the copy's sections,
  // functions, or labels must call rebuildStructure() first.
  MaoUnit Copy;
  Copy.Entries = Entries;
  Copy.NextEntryId = NextEntryId;
  Copy.NextLabelId = NextLabelId;
  Copy.Mode = Mode;
  // The copy's views are lazily rebuilt on first access (they cannot be
  // copied: they hold iterators into *our* entry list).
  Copy.StructureDirty = true;
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

EntryIter MaoUnit::insertBefore(EntryIter Pos, MaoEntry Entry) {
  std::lock_guard<std::mutex> Lock(StructuralM);
  Entry.Id = nextId();
  StructureEdited = true;
  return Entries.insert(Pos, std::move(Entry));
}

EntryIter MaoUnit::insertAfter(EntryIter Pos, MaoEntry Entry) {
  assert(Pos != Entries.end() && "cannot insert after end()");
  std::lock_guard<std::mutex> Lock(StructuralM);
  Entry.Id = nextId();
  StructureEdited = true;
  return Entries.insert(std::next(Pos), std::move(Entry));
}

EntryIter MaoUnit::erase(EntryIter Pos) {
  std::lock_guard<std::mutex> Lock(StructuralM);
  StructureEdited = true;
  return Entries.erase(Pos);
}

void MaoUnit::moveRange(EntryIter First, EntryIter Last, EntryIter Before) {
  std::lock_guard<std::mutex> Lock(StructuralM);
  StructureEdited = true;
  Entries.splice(Before, Entries, First, Last);
}

MaoFunction *MaoUnit::findFunction(const std::string &Name) {
  ensureStructure();
  for (MaoFunction &Fn : Functions)
    if (Fn.name() == Name)
      return &Fn;
  return nullptr;
}

std::string MaoUnit::makeUniqueLabel() {
  return ".LMAO" + std::to_string(NextLabelId++);
}

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

/// Strips whitespace from both ends of \p S.
std::string trimmed(const std::string &S) {
  size_t B = S.find_first_not_of(" \t");
  if (B == std::string::npos)
    return "";
  size_t E = S.find_last_not_of(" \t");
  return S.substr(B, E - B + 1);
}

} // namespace

void MaoUnit::rebuildStructure() {
  StructureDirty = false;
  StructureEdited = false;
  Labels.clear();
  Sections.clear();
  Functions.clear();

  // Pass 1: label map and the set of symbols declared @function.
  std::unordered_map<std::string, bool> IsFunctionSym;
  for (EntryIter It = Entries.begin(), End = Entries.end(); It != End; ++It) {
    const MaoEntry &E = *It;
    // First definition wins on duplicates: fall-through execution reaches
    // the first one, and the emulator binds the same way. The parser warns
    // (MAO-parse-duplicate-label) and the full verifier rejects.
    if (E.isLabel())
      Labels.try_emplace(E.labelName(), It);
    if (E.isDirective(DirKind::Type)) {
      const Directive &Dir = E.directive();
      const std::string &TypeArg = Dir.arg(1);
      if (TypeArg.find("function") != std::string::npos)
        IsFunctionSym[trimmed(Dir.arg(0))] = true;
    }
  }

  // Pass 2: sections. A section's ranges restart whenever the section is
  // re-entered.
  auto findSection = [&](const std::string &Name) -> SectionInfo & {
    for (SectionInfo &S : Sections)
      if (S.Name == Name)
        return S;
    Sections.push_back(SectionInfo{Name, isCodeSectionName(Name), {}});
    return Sections.back();
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

  // Functions is grown with reserve-free push_back; keep stable pointers by
  // using indices into a deque-like two-phase build: first record
  // boundaries, then fill. Simpler: reserve generously.
  size_t FunctionCount = IsFunctionSym.size();
  Functions.reserve(FunctionCount + 1);

  for (EntryIter It = Entries.begin(), E = Entries.end(); It != E; ++It) {
    if (isSectionDirective(*It)) {
      closeSectionRun(It);
      closeFnRun(It);
      CurSection = trimmed(sectionNameOf(It->directive()));
      CurIsCode = isCodeSectionName(CurSection);
      RunBegin = std::next(It);
      if (OpenFn && CurIsCode) {
        FnRunBegin = std::next(It);
        FnRunOpen = true;
      }
      continue;
    }
    if (It->isLabel() && CurIsCode) {
      auto FnIt = IsFunctionSym.find(It->labelName());
      if (FnIt != IsFunctionSym.end()) {
        closeFunction(It);
        assert(Functions.size() < FunctionCount + 1 &&
               "function vector reallocation would invalidate pointers");
        Functions.emplace_back(It->labelName(), this);
        OpenFn = &Functions.back();
        FnRunBegin = It;
        FnRunOpen = true;
        continue;
      }
    }
    if (It->isDirective(DirKind::Size) && OpenFn &&
        trimmed(It->directive().arg(0)) == OpenFn->name()) {
      closeFunction(It);
      continue;
    }
  }
  closeSectionRun(Entries.end());
  closeFunction(Entries.end());

  // Mark functions containing opaque instructions.
  for (MaoFunction &Fn : Functions)
    for (auto It = Fn.begin(), E2 = Fn.end(); It != E2; ++It)
      if (It->isInstruction() &&
          std::as_const(*It).instruction().isOpaque()) {
        Fn.HasOpaqueInstructions = true;
        break;
      }
}

std::string MaoUnit::toString() const {
  std::string Out;
  for (const MaoEntry &E : Entries) {
    Out += E.toString();
    Out += '\n';
  }
  return Out;
}
