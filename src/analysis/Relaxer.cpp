//===- analysis/Relaxer.cpp - Repeated relaxation ----------------------------==//

#include "analysis/Relaxer.h"

#include "support/Diag.h"
#include "support/Stats.h"

#include <cassert>
#include <cstdlib>
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

/// Padding inserted by an alignment directive at \p Address.
unsigned alignmentPad(const Directive &Dir, int64_t Address) {
  int64_t Boundary;
  if (Dir.Kind == DirKind::P2Align) {
    int64_t Pow2 = parseIntArg(Dir.arg(0));
    if (Pow2 < 0 || Pow2 > 31)
      return 0;
    Boundary = int64_t(1) << Pow2;
  } else {
    Boundary = parseIntArg(Dir.arg(0), 1);
    if (Boundary <= 1)
      return 0;
    // .align/.balign boundaries must be powers of two; round down odd
    // values to be safe.
    while (Boundary & (Boundary - 1))
      Boundary &= Boundary - 1;
  }
  int64_t Pad = (Boundary - (Address % Boundary)) % Boundary;
  // Third argument: maximum number of padding bytes.
  if (!Dir.arg(2).empty()) {
    int64_t Max = parseIntArg(Dir.arg(2), -1);
    if (Max >= 0 && Pad > Max)
      return 0;
  }
  return static_cast<unsigned>(Pad);
}

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
    return alignmentPad(Dir, Address);
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

namespace {
/// Process-global mode; set once at startup from --mao-relax, before any
/// pipeline runs, so there is no synchronization concern.
RelaxMode GlobalRelaxMode = RelaxMode::Grow;
} // namespace

RelaxMode mao::relaxMode() { return GlobalRelaxMode; }
void mao::setRelaxMode(RelaxMode Mode) { GlobalRelaxMode = Mode; }

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

RelaxationResult mao::relaxUnit(MaoUnit &Unit, DiagEngine *Diags) {
  RelaxationResult Result;

  // Reset branch sizes optimistically: every direct jump starts rel8 and
  // grows as needed. (Calls are rel32 by construction.) Only direct
  // branches are opened for writing; everything else is read through a
  // const view so its length memo survives.
  for (MaoEntry &E : Unit.entries()) {
    if (!E.isInstruction())
      continue;
    const Instruction &Insn = std::as_const(E).instruction();
    if (Insn.isBranch() && !Insn.hasIndirectTarget())
      E.instruction().BranchSize = 1;
  }

  // Pre-compute the layout walk. Only two kinds of entry have an
  // address- or iteration-dependent size — alignment pads and direct
  // branches — so everything else is sized once here (from its length
  // memo when it has one) instead of on every relaxation round. A direct
  // branch is encoded once at each width, so rounds and the optimal-mode
  // audit just pick one of the two. Label and branch-target names are
  // captured as string_view keys once, so the per-round map operations
  // allocate no strings at all.
  struct Slot {
    MaoEntry *E;
    unsigned StaticSize; ///< Valid when !Dynamic.
    bool Dynamic;
    bool IsLabel;
    bool IsBranch;              ///< Dynamic direct branch (else a pad).
    uint8_t Rel8Size;           ///< Encoded length at BranchSize 1.
    uint8_t Rel32Size;          ///< Encoded length at BranchSize 4.
    std::string_view LabelKey;  ///< Label name; valid when IsLabel.
    const Operand *Target;      ///< Branch target; valid when IsBranch.
    std::string_view TargetSym; ///< Target symbol; valid when IsBranch.
  };
  LengthMemoTally Tally;
  std::vector<std::pair<SectionInfo *, std::vector<Slot>>> Walk;
  for (SectionInfo &Sec : Unit.sections()) {
    std::vector<Slot> Slots;
    for (const MaoFunction::Range &R : Sec.Ranges)
      for (EntryIter It = R.Begin; It != R.End; ++It) {
        const MaoEntry &View = *It;
        Slot S;
        S.E = &*It;
        S.Dynamic = false;
        S.IsBranch = false;
        S.Target = nullptr;
        if (View.isInstruction()) {
          const Instruction &Insn = View.instruction();
          S.IsBranch = S.Dynamic = Insn.isBranch() && !Insn.hasIndirectTarget();
          if (S.IsBranch) {
            S.Target = Insn.branchTarget();
            assert(S.Target && S.Target->isSymbol() &&
                   "direct branch without target");
            S.TargetSym = S.Target->Sym;
            // Ends at rel8, the width the reset above left it at.
            Instruction &Branch = It->instruction();
            Branch.BranchSize = 4;
            S.Rel32Size = static_cast<uint8_t>(instructionLength(Branch));
            Branch.BranchSize = 1;
            S.Rel8Size = static_cast<uint8_t>(instructionLength(Branch));
            Tally.Misses += 2;
          }
        } else if (View.isDirective()) {
          DirKind K = View.directive().Kind;
          S.Dynamic = K == DirKind::P2Align || K == DirKind::Balign;
        }
        // Every defined label participates in displacement resolution,
        // global or not: a branch to a symbol defined in this very unit
        // has a known distance, so pessimizing it to rel32 just because
        // it is exported would leave relaxation over-conservative. Truly
        // external symbols are simply absent from the maps.
        S.IsLabel = View.isLabel();
        if (S.IsLabel)
          S.LabelKey = View.labelName();
        S.StaticSize = S.Dynamic ? 0 : entryLayoutSize(*It, 0, Tally);
        Slots.push_back(S);
      }
    Walk.emplace_back(&Sec, std::move(Slots));
  }
  Tally.flush();

  auto BranchSizeOf = [](const Slot &S) {
    return std::as_const(*S.E).instruction().BranchSize;
  };

  std::string LastGrowthSection;

  // One address-assignment round over every section. Addresses restart at
  // 0 per section, so each section gets its own label map; the flat view
  // is kept for same-section-aware callers. Duplicate label definitions
  // bind to the FIRST occurrence (try_emplace), matching MaoUnit::labelMap
  // and the emulator.
  auto AddressRound = [&] {
    Result.Labels.clear();
    Result.SectionLabels.clear();
    Result.SectionSizes.clear();
    for (auto &[Sec, Slots] : Walk) {
      LabelAddressMap &SecLabels = Result.SectionLabels[Sec->Name];
      int64_t Address = 0;
      for (const Slot &S : Slots) {
        MaoEntry &E = *S.E;
        E.Address = Address;
        if (S.IsBranch)
          E.Size = BranchSizeOf(S) == 1 ? S.Rel8Size : S.Rel32Size;
        else if (S.Dynamic)
          E.Size = entryLayoutSize(E, Address, Tally);
        else
          E.Size = S.StaticSize;
        if (S.IsLabel) {
          SecLabels.try_emplace(S.LabelKey, Address);
          Result.Labels.try_emplace(S.LabelKey, Address);
        }
        Address += E.Size;
      }
      Result.SectionSizes[Sec->Name] = Address;
    }
  };

  // One growth round: widen branches whose rel8 displacement no longer
  // fits. Resolution is per section: a displacement between two sections
  // would span unrelated address spaces, so cross-section targets — like
  // truly external ones — are absent from the branch's map and force rel32
  // (resolved by relocation, where the distance is actually known).
  auto GrowthRound = [&]() -> bool {
    bool Changed = false;
    for (auto &[Sec, Slots] : Walk) {
      const LabelAddressMap &SecLabels = Result.SectionLabels[Sec->Name];
      for (const Slot &S : Slots) {
        if (!S.IsBranch || BranchSizeOf(S) != 1)
          continue;
        MaoEntry &E = *S.E;
        auto LabelIt = SecLabels.find(S.TargetSym);
        if (LabelIt == SecLabels.end()) {
          // External or cross-section target: must use rel32.
          E.instruction().BranchSize = 4;
          Changed = true;
          LastGrowthSection = Sec->Name;
          continue;
        }
        int64_t Disp =
            LabelIt->second + S.Target->Imm - (E.Address + E.Size);
        if (Disp < -128 || Disp > 127) {
          E.instruction().BranchSize = 4;
          Changed = true;
          LastGrowthSection = Sec->Name;
        }
      }
    }
    return Changed;
  };

  // Converge from the current branch-size state. Monotone (branches only
  // grow), so it terminates; the shared iteration budget bounds the
  // pathological case.
  auto Converge = [&]() -> bool {
    while (Result.Iterations < RelaxationIterationLimit) {
      ++Result.Iterations;
      AddressRound();
      if (!GrowthRound())
        return true;
    }
    return false;
  };

  Result.Converged = Converge();

  if (Result.Converged && relaxMode() == RelaxMode::Optimal) {
    // Minimality audit: the grow fixpoint can be conservatively large when
    // alignment padding decouples displacement from branch sizes. Demote
    // every rel32 branch whose displacement fits rel8 under the settled
    // layout, then re-converge (which re-promotes any overreach); repeat
    // until a round demotes nothing. Bounded to keep the worst case tame.
    auto CountRel8 = [&] {
      unsigned N = 0;
      for (auto &[Sec, Slots] : Walk)
        for (const Slot &S : Slots)
          if (S.IsBranch && BranchSizeOf(S) == 1)
            ++N;
      return N;
    };
    const unsigned InitialRel8 = CountRel8();
    constexpr unsigned AuditRoundLimit = 4;
    for (unsigned Round = 0; Round < AuditRoundLimit; ++Round) {
      bool Shrunk = false;
      for (auto &[Sec, Slots] : Walk) {
        const LabelAddressMap &SecLabels = Result.SectionLabels[Sec->Name];
        for (const Slot &S : Slots) {
          if (!S.IsBranch || BranchSizeOf(S) != 4)
            continue;
          MaoEntry &E = *S.E;
          auto LabelIt = SecLabels.find(S.TargetSym);
          if (LabelIt == SecLabels.end())
            continue; // External/cross-section: rel32 is mandatory.
          Instruction &Insn = E.instruction();
          const unsigned Rel32Size = E.Size;
          Insn.BranchSize = 1;
          const unsigned Delta = Rel32Size - S.Rel8Size;
          const int64_t Target = LabelIt->second + S.Target->Imm;
          // Exact single-demotion displacement: a forward target moves
          // down by Delta together with the branch end, a backward target
          // gains Delta of slack from the shorter branch.
          int64_t NewDisp = Target - (E.Address + Rel32Size);
          if (Target <= E.Address)
            NewDisp += Delta;
          if (NewDisp >= -128 && NewDisp <= 127) {
            Shrunk = true;
          } else {
            Insn.BranchSize = 4;
          }
        }
      }
      if (!Shrunk)
        break;
      if (!Converge()) {
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

  if (Result.Converged)
    return Result;

  // Hit the iteration limit; addresses are best-effort and must not be
  // trusted silently — report which section was still growing, and let the
  // verifier's layout check turn !Converged into a hard error.
  if (Diags)
    Diags->warning(DiagCode::RelaxIterationLimit,
                   "relaxation of section " + LastGrowthSection +
                       " did not converge within " +
                       std::to_string(RelaxationIterationLimit) +
                       " iterations; branch sizes are best-effort");
  return Result;
}
