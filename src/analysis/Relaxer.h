//===- analysis/Relaxer.h - Repeated relaxation -----------------*- C++ -*-===//
///
/// \file
/// Relaxation finds proper instruction sizes for branches based on branch
/// target distances, which in turn determines the start address of every
/// instruction (paper Sec. II). Because growing one branch moves other
/// targets, the algorithm iterates; the paper notes the general problem is
/// NP-complete, imposes a built-in limit of 100 iterations, and observes
/// that in practice relaxation converges in a few iterations. MAO needs
/// *repeated* relaxation (unlike gas, which relaxed once just before
/// writing the object file) because alignment passes re-layout code and
/// re-query addresses many times.
///
/// MAO emits text, so gas picks every branch width in the end; relaxation
/// here is gas's own (binutils gas/write.c, relax_segment and relax_frag),
/// so the addresses MAO reasons about are the ones gas produces. A first
/// walk sizes every branch with an in-section target at rel8 and every
/// other one at rel32. Each pass then walks a section in order, growing a
/// rel8 branch whose target is out of reach: a target behind the branch has
/// this pass's address; one ahead has the last pass's, moved by the bytes
/// grown so far in this pass unless an alignment directive lies between the
/// two. Alignment padding is recomputed in place. Branches only grow, so
/// the passes stop once one grows nothing.
///
/// UnitLayout keeps one flat walk of the unit current across those
/// queries, so an alignment pass relaxes once per edit rather than once
/// per question; relaxUnit() is the one-shot form of the same algorithm.
///
/// On success every entry's Address (offset within its section) and Size
/// are filled in, and a label-address map is produced for binary encoding.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_ANALYSIS_RELAXER_H
#define MAO_ANALYSIS_RELAXER_H

#include "ir/MaoUnit.h"
#include "x86/Encoder.h"

#include <compare>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mao {

class DiagEngine;

/// Built-in iteration bound from the paper.
constexpr unsigned RelaxationIterationLimit = 100;

struct RelaxationResult {
  bool Converged = false;
  /// Relaxation passes run, the last of them growing nothing when
  /// Converged.
  unsigned Iterations = 0;
  /// Label -> address within its *defining* section. Every label defined
  /// in the unit is present, including global ones. Addresses of different
  /// sections are unrelated address spaces (each restarts at 0): this flat
  /// view is for callers that already know the section context (data
  /// directives resolving same-section differences, tests); displacement
  /// computation must go through sectionLabels().
  LabelAddressMap Labels;
  /// Section name -> the labels defined in that section. Branch
  /// displacement resolution uses the branch's own section map, so a
  /// cross-section target can never be mistaken for an in-section address;
  /// targets absent from the branch's section map (truly external or
  /// cross-section) take the rel32 path.
  std::unordered_map<std::string, LabelAddressMap> SectionLabels;
  /// Section name -> total byte size.
  std::unordered_map<std::string, int64_t> SectionSizes;

  /// The label map of \p SectionName (empty map when the section defines
  /// no labels).
  const LabelAddressMap &sectionLabels(const std::string &SectionName) const;
};

/// Per-walk count of instruction lengths served from MaoEntry's length
/// memo (Hits) and learned by encoding (Misses). Walks count locally and
/// flush() once into the "encode.memo_hits" / "encode.memo_misses"
/// registry counters, which the run report publishes under caches.encode.
struct LengthMemoTally {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  /// Adds the tally to the registry counters and zeroes it.
  void flush();
};

/// A maintained relaxation layout over one unit (DESIGN.md, "Maintained
/// layout"). The constructor walks every section once into slots: one slot
/// per entry, holding its static size, an alignment directive's parsed
/// boundary and max, or a direct branch's rel8/rel32 lengths and the id of
/// its target symbol in the section's symbol table. A section's slots are
/// split into runs, one per function (plus one per section run that starts
/// outside a function), so an edit touches only the run it lands in: the
/// edited entry's run is found by walking back to the run's first entry,
/// and labels are held by id, with a (run, index) place that only their own
/// run's edits update.
///
/// relax() runs gas's relaxation passes over the slots alone, with no list
/// walk and no string hashing, and writes Address, Size and BranchSize back
/// to the entries whose slots changed. When the last relax() converged with
/// every direct branch at rel8, it re-addresses only from each section's
/// first edited slot to the first slot past the last edit whose address did
/// not move, and re-checks only the branches within rel8 reach of that
/// span. If none of them overflows, that is exactly the first guess of a
/// from-scratch relaxation, whose first pass then grows nothing; otherwise,
/// and whenever the precondition does not hold, relax() runs the whole-unit
/// passes.
///
/// The layout stays current while its owner edits the unit through
/// insertBefore()/erase(); relax() re-runs only when an edit happened
/// since the last call. Editing the unit any other way while the layout
/// is alive is a bug (caught by an entry-count assert).
class UnitLayout {
public:
  /// Builds the walk of \p Unit's section runs. \p Diags (when non-null)
  /// receives the iteration-limit warning.
  explicit UnitLayout(MaoUnit &Unit, DiagEngine *Diags = nullptr);

  UnitLayout(const UnitLayout &) = delete;
  UnitLayout &operator=(const UnitLayout &) = delete;

  /// Relaxes every section: every direct branch with an in-section target
  /// starts at rel8 and grows until the layout settles. When the iteration
  /// limit is hit, a structured warning naming the offending section goes
  /// to the Diags engine and Converged stays false — callers gate on it
  /// (the verifier turns it into a layout error). Returns at once, with
  /// the previous result, when nothing was edited since the last call. The
  /// label maps of the result are left empty; takeResult() fills them.
  const RelaxationResult &relax();

  /// Hands over the last relax() result with Labels and SectionLabels
  /// filled in. The next relax() runs the whole-unit fixpoint.
  RelaxationResult takeResult();

  /// Inserts \p Entry before \p Pos in the unit (which keeps its views
  /// current, see MaoUnit) and in the walk. Returns the new entry.
  EntryIter insertBefore(EntryIter Pos, MaoEntry Entry);

  /// Erases \p Pos from the unit and the walk. Returns the next entry.
  EntryIter erase(EntryIter Pos);

private:
  enum class SlotKind : uint8_t { Fixed, Label, Branch, Align };

  struct Slot {
    MaoEntry *E = nullptr;
    int64_t Address = 0;
    /// Fixed and label slots: the static size. Branch and alignment slots:
    /// the size from the last pass.
    uint32_t Size = 0;
    SlotKind Kind = SlotKind::Fixed;
    bool Wide = false;     ///< Branch: currently rel32.
    /// Address, Size or Wide changed since the entry last received them.
    bool Stale = true;
    uint8_t Rel8Size = 0;  ///< Branch: encoded length at rel8.
    uint8_t Rel32Size = 0; ///< Branch: encoded length at rel32.
    /// Branch: the target's id in the section's symbol table. Label: the
    /// label's id in the section's label table.
    int32_t Id = -1;
    int64_t TargetOffset = 0; ///< Branch: the constant in `sym+N`.
    int64_t Boundary = 0;     ///< Align: power of two; 0 never pads.
    int64_t MaxPad = -1;      ///< Align: padding limit; -1 for none.
  };

  /// A place in a section: run index, then slot index within the run.
  /// Places order lexicographically, which is section order.
  struct SlotPos {
    uint32_t Run = 0;
    uint32_t Index = 0;
    auto operator<=>(const SlotPos &) const = default;
  };

  struct LabelDef {
    SlotPos At;
    int32_t Symbol = -1;
    int32_t NextDef = -1; ///< Next definition of the same symbol, unordered.
    /// The alignment slots before the label, counted by the last first
    /// guess: gas's frag region.
    uint32_t Region = 0;
  };

  struct Symbol {
    int32_t First = -1; ///< The label id of the first definition, or -1.
    int32_t Defs = -1;  ///< Head of the chain of every live definition.
    uint32_t Refs = 0;  ///< Direct branches that target the symbol.
  };

  /// Name lookups by string_view into std::string keys.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>()(S);
    }
  };

  struct Section {
    std::string Name;
    std::vector<std::vector<Slot>> Runs;
    std::vector<LabelDef> Labels;
    std::vector<Symbol> Symbols;
    std::unordered_map<std::string, int32_t, NameHash, std::equal_to<>>
        SymbolIds;
    int64_t Size = 0;
    /// Largest |N| of any `sym+N` branch target seen: widens the reach
    /// within which a moved target can affect a branch.
    int64_t MaxTargetOffset = 0;
    /// The dirty span: the first slot edited since the last relax(), and
    /// the first slot of the suffix no edit has touched since.
    SlotPos EditBegin{UINT32_MAX, 0};
    SlotPos CleanFrom;
    bool dirty() const { return EditBegin.Run != UINT32_MAX; }
  };

  /// A run's place: its section and its index there.
  struct RunRef {
    uint32_t Section;
    uint32_t Run;
  };

  Slot makeSlot(Section &Sec, MaoEntry &E, LengthMemoTally &Tally);
  static Slot &slotAt(Section &Sec, SlotPos At) {
    return Sec.Runs[At.Run][At.Index];
  }
  static const Slot &slotAt(const Section &Sec, SlotPos At) {
    return Sec.Runs[At.Run][At.Index];
  }
  int32_t symbolId(Section &Sec, std::string_view Name);
  /// Enters the label slot at \p At in its section's label table.
  void defineLabel(Section &Sec, SlotPos At);
  /// Drops label \p Id, rebinding its symbol to the next definition.
  void undefineLabel(Section &Sec, int32_t Id);
  /// Points the label table at the labels of run \p Run from \p From on.
  static void reindexLabels(Section &Sec, uint32_t Run, uint32_t From);
  /// Whether \p Branch fits rel8 at the addresses it and its target hold.
  bool fitsRel8(const Section &Sec, const Slot &Branch) const;
  /// Whether the rel8 branch \p Branch, at \p At in its section and about
  /// to move to \p Address in region \p Region, grows in this pass.
  bool outgrowsRel8(const Section &Sec, const Slot &Branch, SlotPos At,
                    int64_t Address, uint32_t Region) const;
  /// The section and place of \p Pos, or no section when \p Pos is
  /// outside every run. For an insertion, the place just past a run's last
  /// slot (a section directive or the list end) counts as that run's.
  std::pair<Section *, SlotPos> locate(EntryIter Pos, bool ForInsert);
  /// Steps \p At back to the previous slot of its section; false at the
  /// section's start.
  static bool prevSlot(const Section &Sec, SlotPos &At);
  void noteInsert(Section &Sec, SlotPos At);
  void noteErase(Section &Sec, SlotPos At);

  /// Hands a stale slot's values to its entry. Only this layout writes
  /// those fields while it is alive, so an entry whose slot is not stale
  /// still holds its values; skipping it keeps a relaxation from touching
  /// every list node.
  static void writeBack(Slot &S);
  void relaxAll();
  /// One walk of every section; with \p Grow it also grows the rel8
  /// branches that no longer fit. Returns whether one grew.
  bool relaxPass(bool Grow);
  /// The first guess and the passes after it; false at the iteration limit.
  bool converge();
  /// The dirty-span relaxation of every edited section; false when a
  /// branch would grow, which leaves the whole-unit fixpoint to relaxAll().
  bool relaxSpans();
  bool relaxSpan(Section &Sec);

  MaoUnit &Unit;
  DiagEngine *Diags;
  std::vector<Section> Sections;
  /// Each non-empty run's first entry.
  std::unordered_map<const MaoEntry *, RunRef> RunStarts;
  RelaxationResult Result;
  /// The entry count the unit has when every edit went through the layout.
  size_t ExpectedEntries;
  bool Dirty = true;
  /// The last relax() converged with every direct branch at rel8 and no
  /// edit since moved a branch target to another label: the next relax()
  /// may re-lay only the dirty spans.
  bool CanResume = false;
  /// Index of the section that grew a branch last (for the limit warning).
  size_t LastGrowth = 0;
  uint64_t SlotsWalked = 0;
};

/// Relaxes every section of \p Unit once: builds a UnitLayout, relaxes it
/// and returns the result with its label maps. See UnitLayout::relax() for
/// the iteration-limit contract.
RelaxationResult relaxUnit(MaoUnit &Unit, DiagEngine *Diags = nullptr);

/// Returns the layout size in bytes of \p Entry at \p Address: the encoded
/// length of an instruction (from its length memo, filling the memo on a
/// miss), alignment padding, data directive sizes; labels are 0.
unsigned entryLayoutSize(MaoEntry &Entry, int64_t Address,
                         LengthMemoTally &Tally);

} // namespace mao

#endif // MAO_ANALYSIS_RELAXER_H
