//===- ir/Verifier.cpp - IR and layout consistency verifier ------------------==//

#include "ir/Verifier.h"

#include "analysis/Relaxer.h"
#include "support/FaultInjection.h"
#include "x86/Encoder.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

using namespace mao;

namespace {

bool isLocalLabelName(std::string_view Name) {
  return Name.substr(0, 2) == ".L";
}

/// Extracts a leading label name from a directive argument like
/// ".Lcase0" or ".Lcase0+8"; returns "" when the arg is not symbolic.
/// Returns a view into \p Arg (valid while the directive lives).
std::string_view leadingSymbol(const std::string &Arg) {
  size_t I = 0;
  auto IsLabelChar = [](char C) {
    return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
           (C >= '0' && C <= '9') || C == '_' || C == '.' || C == '$' ||
           C == '@';
  };
  while (I < Arg.size() && IsLabelChar(Arg[I]))
    ++I;
  if (I == 0 || (Arg[0] >= '0' && Arg[0] <= '9') || Arg[0] == '.')
    return I > 0 && Arg.rfind(".L", 0) == 0 ? std::string_view(Arg).substr(0, I)
                                            : std::string_view();
  return std::string_view(Arg).substr(0, I);
}

/// Collects every issue of one verification run.
class Checker {
public:
  Checker(MaoUnit &Unit, const VerifierOptions &Options, DiagEngine *Diags,
          const std::string &Context)
      : Unit(Unit), Options(Options), Diags(Diags), Context(Context) {}

  VerifierReport run();

private:
  void issue(DiagCode Code, std::string Message);
  bool full() const { return Report.Issues.size() >= Options.MaxIssues; }

  void checkStructure();
  void checkLabels();
  void checkEncodings();
  void checkLayout();

  /// Returns the index of \p It in the entry list, Entries.size() for
  /// end(), or SIZE_MAX when the iterator does not belong to the list.
  size_t indexOf(EntryIter It) const {
    if (It == UnitEnd)
      return Index.size();
    auto Found = Index.find(&*It);
    return Found == Index.end() ? SIZE_MAX : Found->second;
  }

  MaoUnit &Unit;
  const VerifierOptions &Options;
  DiagEngine *Diags;
  const std::string &Context;
  VerifierReport Report;

  std::unordered_map<const MaoEntry *, size_t> Index;
  EntryIter UnitEnd;
};

void Checker::issue(DiagCode Code, std::string Message) {
  Diagnostic D;
  D.Severity = DiagSeverity::Error;
  D.Code = Code;
  D.PassName = Context;
  D.Message = std::move(Message);
  if (Diags)
    Diags->report(D);
  Report.Issues.push_back(std::move(D));
}

void Checker::checkStructure() {
  size_t SectionDirectives = 0;
  for (const MaoEntry &E : Unit.entries())
    if (E.isDirective()) {
      DirKind K = E.directive().Kind;
      if (K == DirKind::Text || K == DirKind::Data || K == DirKind::Bss ||
          K == DirKind::Section)
        ++SectionDirectives;
    }

  // Validate every range endpoint and collect function ranges for the
  // cross-function disjointness check.
  auto CheckRanges = [&](const std::vector<MaoFunction::Range> &Ranges,
                         const std::string &What,
                         std::vector<std::pair<size_t, size_t>> *Out,
                         size_t *Covered) {
    size_t PrevEnd = 0;
    bool PrevValid = false;
    for (const MaoFunction::Range &R : Ranges) {
      if (full())
        return;
      size_t B = indexOf(R.Begin), E = indexOf(R.End);
      if (B == SIZE_MAX || E == SIZE_MAX) {
        issue(DiagCode::VerifyBadStructure,
              What + ": range endpoint is not an entry of the unit");
        return;
      }
      if (B > E) {
        issue(DiagCode::VerifyBadStructure,
              What + ": range begin after range end");
        return;
      }
      if (PrevValid && B < PrevEnd) {
        issue(DiagCode::VerifyBadStructure,
              What + ": ranges overlap or are out of order");
        return;
      }
      PrevEnd = E;
      PrevValid = true;
      if (Out)
        Out->emplace_back(B, E);
      if (Covered)
        *Covered += E - B;
    }
  };

  size_t SectionCovered = 0;
  for (SectionInfo &Sec : Unit.sections()) {
    if (full())
      return;
    CheckRanges(Sec.Ranges, "section " + Sec.Name, nullptr, &SectionCovered);
  }
  // Every entry lives in exactly one section range, except the section
  // directives that delimit them.
  if (!full() &&
      SectionCovered + SectionDirectives != Unit.entries().size())
    issue(DiagCode::VerifyBadStructure,
          "section ranges cover " + std::to_string(SectionCovered) +
              " entries plus " + std::to_string(SectionDirectives) +
              " section directives, but the unit has " +
              std::to_string(Unit.entries().size()) + " entries");

  std::vector<std::pair<size_t, size_t>> FnRanges;
  for (MaoFunction &Fn : Unit.functions()) {
    if (full())
      return;
    CheckRanges(Fn.ranges(), "function " + Fn.name(), &FnRanges, nullptr);
    if (Fn.ranges().empty()) {
      issue(DiagCode::VerifyBadStructure,
            "function " + Fn.name() + " has no entry range");
      continue;
    }
    EntryIter First = Fn.ranges().front().Begin;
    if (indexOf(First) == SIZE_MAX || indexOf(First) == Index.size() ||
        !First->isLabel() || First->labelName() != Fn.name())
      issue(DiagCode::VerifyBadStructure,
            "function " + Fn.name() +
                " does not start at a label carrying its name");
  }
  std::sort(FnRanges.begin(), FnRanges.end());
  for (size_t I = 1; I < FnRanges.size() && !full(); ++I)
    if (FnRanges[I].first < FnRanges[I - 1].second)
      issue(DiagCode::VerifyBadStructure,
            "function entry ranges overlap");

  // The label map must agree with the entry list.
  for (const auto &[Name, Entry] : Unit.labelMap()) {
    if (full())
      return;
    auto Found = Index.find(Entry);
    if (Found == Index.end() || !Entry->isLabel() ||
        Entry->labelName() != Name)
      issue(DiagCode::VerifyBadStructure,
            "label map entry '" + std::string(Name) +
                "' does not match a label in the unit");
  }
}

void Checker::checkLabels() {
  // This is the hot per-pass check (VerifierOptions::fast()), so it is one
  // walk over the entry list with no hashing and no per-node allocation:
  // definitions and local-label references are collected as views into
  // entry-owned storage (stable for the duration of the run), duplicates
  // fall out of a sort, and references resolve by binary search. Failure
  // messages are only rendered when an issue is actually raised.
  std::vector<std::string_view> Defined;
  std::vector<std::pair<std::string_view, const MaoEntry *>> LocalRefs;
  Defined.reserve(Unit.entries().size() / 4);
  LocalRefs.reserve(Unit.entries().size() / 4);
  auto NoteRef = [&](std::string_view Sym, const MaoEntry &E) {
    // Only local (".L") labels must resolve: anything else may be an
    // external symbol.
    if (!Sym.empty() && isLocalLabelName(Sym))
      LocalRefs.emplace_back(Sym, &E);
  };

  for (const MaoEntry &E : Unit.entries()) {
    if (E.isLabel()) {
      Defined.push_back(E.labelName());
    } else if (E.isInstruction()) {
      const Instruction &Insn = E.instruction();
      if (Insn.isOpaque())
        continue;
      for (const Operand &Op : Insn.Ops) {
        if (Op.isSymbol() || Op.isSymbolicImm())
          NoteRef(Op.Sym, E);
        if (Op.isMem() && Op.Mem.hasSym())
          NoteRef(Op.Mem.SymDisp, E);
      }
    } else {
      const Directive &Dir = E.directive();
      if (Dir.Kind == DirKind::Byte || Dir.Kind == DirKind::Word ||
          Dir.Kind == DirKind::Long || Dir.Kind == DirKind::Quad)
        for (const std::string &Arg : Dir.Args)
          NoteRef(leadingSymbol(Arg), E);
    }
  }

  std::sort(Defined.begin(), Defined.end());
  for (size_t I = 0; I < Defined.size();) {
    size_t J = I + 1;
    while (J < Defined.size() && Defined[J] == Defined[I])
      ++J;
    if (J - I > 1) {
      if (full())
        return;
      issue(DiagCode::VerifyDuplicateLabel,
            "label '" + std::string(Defined[I]) + "' defined " +
                std::to_string(J - I) + " times");
    }
    I = J;
  }

  for (const auto &[Sym, Entry] : LocalRefs) {
    if (std::binary_search(Defined.begin(), Defined.end(), Sym))
      continue;
    if (full())
      return;
    issue(DiagCode::VerifyUnresolvedLabel,
          "reference to undefined local label '" + std::string(Sym) +
              "' in " +
              (Entry->isInstruction() ? Entry->instruction().mnemonicText()
                                      : Entry->directive().Name));
  }
}

void Checker::checkEncodings() {
  std::vector<uint8_t> Bytes; // Reused across entries; cleared per encode.
  // The full verifier (the mode that also checks layout) does not trust
  // length memos: it re-encodes every memoized instruction and compares,
  // which catches an instruction mutated through a reference obtained
  // before its memo was filled. The cheap modes take a memo as proof that
  // the instruction was encodable when it was measured.
  const bool CrossCheck = Options.CheckLayout;
  LengthMemoTally Tally;
  for (MaoEntry &Entry : Unit.entries()) {
    if (full())
      break;
    const MaoEntry &E = Entry; // Reading must not drop the memo.
    if (!E.isInstruction() || E.instruction().isOpaque())
      continue;
    const Instruction &Insn = E.instruction();
    // The injection decision is drawn here, exactly once per instruction,
    // regardless of the memo state — if a memo were allowed to swallow
    // encodeInstruction()'s internal draw, an earlier walk would shift the
    // draw sequence of everything after it and in-process runs with the
    // same seed would stop being deterministic.
    if (FaultInjector::instance().shouldFail(FaultSite::Encoder)) {
      issue(DiagCode::VerifyEncodingFailed,
            "instruction '" + Insn.toString() +
                "' no longer encodes: injected encoder fault");
      continue;
    }
    const unsigned Memo = E.lengthMemo();
    if (Memo && !CrossCheck) {
      ++Tally.Hits;
      continue;
    }
    Bytes.clear();
    if (MaoStatus S = encodeInstructionNoInject(Insn, 0, nullptr, Bytes)) {
      issue(DiagCode::VerifyEncodingFailed,
            "instruction '" + Insn.toString() +
                "' no longer encodes: " + S.message());
      continue;
    }
    if (Memo && Memo != Bytes.size()) {
      issue(DiagCode::VerifyEncodingFailed,
            "instruction '" + Insn.toString() + "' encodes to " +
                std::to_string(Bytes.size()) +
                " bytes but its length memo says " + std::to_string(Memo) +
                " (mutated after it was measured)");
      continue;
    }
    if (!Memo) {
      ++Tally.Misses;
      Entry.setLengthMemo(static_cast<unsigned>(Bytes.size()));
    }
  }
  Tally.flush();
}

void Checker::checkLayout() {
  RelaxationResult Relax = relaxUnit(Unit);
  if (!Relax.Converged) {
    issue(DiagCode::VerifyRelaxationDiverged,
          "relaxation did not converge within " +
              std::to_string(RelaxationIterationLimit) + " iterations");
    return;
  }

  // Address/size self-consistency per section: addresses must accumulate
  // monotonically from the annotated sizes with no gap or overlap. (The
  // sizes themselves are not re-derived here — relaxUnit just wrote them
  // through the same entryLayoutSize it would be checked against, so a
  // recompute has no detection power and would re-encode every
  // instruction; encodability is checkEncodings' job.)
  for (SectionInfo &Sec : Unit.sections()) {
    int64_t Address = 0;
    for (const MaoFunction::Range &R : Sec.Ranges) {
      for (EntryIter It = R.Begin; It != R.End; ++It) {
        if (full())
          return;
        if (It->Address != Address) {
          issue(DiagCode::VerifyLayoutInconsistent,
                "entry in section " + Sec.Name + " has address " +
                    std::to_string(It->Address) + ", expected " +
                    std::to_string(Address));
          return;
        }
        Address += It->Size;
      }
    }
  }

  // Relaxed branch sizes must be a fixpoint: rel8 only when the
  // displacement actually fits, rel32 for unknown/preemptible targets.
  // Resolution is per section — section addresses are unrelated address
  // spaces, so a rel8 branch whose target lives in another section is a
  // layout bug even if a same-named flat lookup would "resolve" it.
  for (SectionInfo &Sec : Unit.sections()) {
    const LabelAddressMap &SecLabels = Relax.sectionLabels(Sec.Name);
    for (const MaoFunction::Range &R : Sec.Ranges) {
      for (EntryIter It = R.Begin; It != R.End; ++It) {
        if (full())
          return;
        if (!It->isInstruction())
          continue;
        const MaoEntry &E = *It;
        const Instruction &Insn = E.instruction();
        if (!Insn.isBranch() || Insn.hasIndirectTarget() || Insn.isOpaque())
          continue;
        if (Insn.BranchSize != 1 && Insn.BranchSize != 4) {
          issue(DiagCode::VerifyLayoutInconsistent,
                "direct branch '" + Insn.toString() +
                    "' has unrelaxed branch size " +
                    std::to_string(Insn.BranchSize));
          continue;
        }
        if (Insn.BranchSize != 1)
          continue;
        const Operand *Target = Insn.branchTarget();
        if (!Target || !Target->isSymbol()) {
          issue(DiagCode::VerifyLayoutInconsistent,
                "direct branch '" + Insn.toString() +
                    "' has no symbol target");
          continue;
        }
        auto LabelIt = SecLabels.find(Target->Sym);
        if (LabelIt == SecLabels.end()) {
          issue(DiagCode::VerifyLayoutInconsistent,
                "rel8 branch '" + Insn.toString() +
                    "' targets a symbol with no known address in section " +
                    Sec.Name);
          continue;
        }
        int64_t Disp = LabelIt->second + Target->Imm - (E.Address + E.Size);
        if (Disp < -128 || Disp > 127)
          issue(DiagCode::VerifyLayoutInconsistent,
                "rel8 branch '" + Insn.toString() + "' has displacement " +
                    std::to_string(Disp) + " outside [-128, 127]");
      }
    }
  }
}

VerifierReport Checker::run() {
  // Passes mutate the entry list without rebuilding derived views; the
  // entry list is the source of truth, so re-derive it before the checks
  // that read the views (structure validates them, layout walks section
  // ranges). The label and encoding checks walk the raw entry list and
  // need neither the rebuild nor the entry index — keeping them cheap is
  // what makes per-pass verification affordable (VerifierOptions::fast()).
  if (Options.CheckStructure || Options.CheckLayout)
    Unit.rebuildStructure();

  if (Options.CheckStructure) {
    UnitEnd = Unit.entries().end();
    Index.reserve(Unit.entries().size());
    size_t Idx = 0;
    for (MaoEntry &E : Unit.entries())
      Index[&E] = Idx++;
  }

  if (Options.CheckStructure && !full())
    checkStructure();
  if (Options.CheckLabels && !full())
    checkLabels();
  if (Options.CheckEncodings && !full())
    checkEncodings();
  if (Options.CheckLayout && !full())
    checkLayout();
  return std::move(Report);
}

} // namespace

VerifierReport mao::verifyUnit(MaoUnit &Unit, const VerifierOptions &Options,
                               DiagEngine *Diags,
                               const std::string &Context) {
  return Checker(Unit, Options, Diags, Context).run();
}
