//===- ir/MaoUnit.h - Translation unit, sections, functions -----*- C++ -*-===//
///
/// \file
/// MaoUnit owns the long list of IR entries for one assembly file and the
/// higher-level views over it: sections and functions, "with easy access to
/// these higher level concepts via corresponding iterators" (paper Sec. II).
///
/// A function that is split into multiple pieces by an intermittent section
/// change (the pattern compilers emit for C switch statements) is presented
/// as a single sequence of entries: MaoFunction holds one or more
/// [begin, end) ranges over the unit's entry list and its iterator walks
/// across the gaps transparently.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_IR_MAOUNIT_H
#define MAO_IR_MAOUNIT_H

#include "ir/MaoEntry.h"
#include "support/Arena.h"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mao {

/// The entry list lives in the unit's arena: every list node is bump-
/// allocated and recycled through the arena's free bins, so structural
/// edits never touch the global heap and teardown is one arena free.
using EntryList = std::list<MaoEntry, ArenaAllocator<MaoEntry>>;
using EntryIter = EntryList::iterator;
using ConstEntryIter = EntryList::const_iterator;

class MaoUnit;
struct KeptAnalyses;

/// One function recognized in the entry list.
class MaoFunction {
public:
  /// A contiguous piece of the function: [Begin, End) over the unit list.
  struct Range {
    EntryIter Begin;
    EntryIter End;
  };

  MaoFunction(std::string Name, MaoUnit *Unit)
      : Name(std::move(Name)), Unit(Unit) {}

  const std::string &name() const { return Name; }
  MaoUnit &unit() { return *Unit; }

  std::vector<Range> &ranges() { return Ranges; }
  const std::vector<Range> &ranges() const { return Ranges; }

  /// Iterator over all entries of the function, transparently crossing
  /// section splits.
  class entry_iterator {
  public:
    entry_iterator() = default;
    entry_iterator(const MaoFunction *Fn, size_t RangeIdx, EntryIter Pos)
        : Fn(Fn), RangeIdx(RangeIdx), Pos(Pos) {
      skipEmptyRanges();
    }

    MaoEntry &operator*() const { return *Pos; }
    MaoEntry *operator->() const { return &*Pos; }
    EntryIter underlying() const { return Pos; }

    entry_iterator &operator++() {
      ++Pos;
      skipEmptyRanges();
      return *this;
    }
    entry_iterator operator++(int) {
      entry_iterator Tmp = *this;
      ++*this;
      return Tmp;
    }

    bool operator==(const entry_iterator &O) const {
      return RangeIdx == O.RangeIdx && (atEnd() || Pos == O.Pos);
    }
    bool operator!=(const entry_iterator &O) const { return !(*this == O); }

  private:
    bool atEnd() const { return RangeIdx >= Fn->Ranges.size(); }
    void skipEmptyRanges() {
      while (!atEnd() && Pos == Fn->Ranges[RangeIdx].End) {
        ++RangeIdx;
        if (!atEnd())
          Pos = Fn->Ranges[RangeIdx].Begin;
      }
    }

    const MaoFunction *Fn = nullptr;
    size_t RangeIdx = 0;
    EntryIter Pos;
  };

  entry_iterator begin() const {
    if (Ranges.empty())
      return end();
    return entry_iterator(this, 0, Ranges[0].Begin);
  }
  entry_iterator end() const {
    return entry_iterator(this, Ranges.size(), EntryIter());
  }

  /// Counts instruction entries.
  size_t countInstructions() const;

  /// True when the function contains opaque (unmodelled) instructions,
  /// which make computed addresses estimates; walks the function.
  bool hasOpaqueInstructions() const;

  /// Set when the CFG builder could not resolve an indirect branch in this
  /// function; passes decide whether to proceed (paper Sec. II).
  bool HasUnresolvedIndirect = false;

  /// Bumped by the unit's edits of this function's entries (EditEpochs).
  EditEpochs Epochs;

  /// The CFG, loops and liveness the pass pipeline keeps for this function
  /// between passes (pass/FunctionAnalyses.h creates and reads them; the
  /// function only owns them, so they go when the views are rebuilt).
  std::unique_ptr<KeptAnalyses, void (*)(KeptAnalyses *)> Kept{nullptr,
                                                                nullptr};

private:
  friend class MaoUnit;
  std::string Name;
  MaoUnit *Unit;
  std::vector<Range> Ranges;
};

/// A section and the entries it spans (possibly several disjoint pieces,
/// since `.text` may be re-entered).
struct SectionInfo {
  std::string Name;
  bool IsCode = false;
  std::vector<MaoFunction::Range> Ranges;
};

/// The views a unit keeps over its entry list (see MaoUnit).
struct UnitViews {
  std::vector<SectionInfo> Sections;
  std::vector<MaoFunction> Functions;
  /// Label name -> the defining entry. Keys are views into entry-owned
  /// storage (stable: list nodes never move).
  std::unordered_map<std::string_view, EntryIter> Labels;
};

/// The IR for one assembly file. Its views (sections, functions,
/// labelMap()) are current from birth: the parser derives them, clone()
/// derives them on the copy, moves carry them, and insertBefore/erase
/// keep them current (the edit contract is in
/// DESIGN.md, "Unit views"). Inserting or erasing section directives,
/// function labels, `.type` or `.size`, inserting outside every section
/// run and a moveRange() that moves a range endpoint are outside it; the
/// caller must then call rebuildStructure(). The same edits move the
/// edited function's EditEpochs (DESIGN.md, "Analysis lifetime").
class MaoUnit {
public:
  MaoUnit()
      : IrArena(std::make_shared<Arena>()),
        Entries(ArenaAllocator<MaoEntry>(IrArena.get())) {}
  MaoUnit(const MaoUnit &) = delete;
  MaoUnit &operator=(const MaoUnit &) = delete;
  // The entry list's allocator propagates on move, so the nodes stay where
  // they are and the arena travels with them (O(1), no per-node copy), and
  // so do the views; the moved-from unit is reset to a fresh arena so it
  // remains usable.
  MaoUnit(MaoUnit &&Other) noexcept : MaoUnit() { *this = std::move(Other); }
  MaoUnit &operator=(MaoUnit &&Other) noexcept;

  /// Deep-copies the unit (entry list and label counter) and derives the
  /// copy's views. Used by the transactional pass runner to snapshot the
  /// IR before a pipeline so a failing pass can be rolled back.
  MaoUnit clone() const;

  EntryList &entries() { return Entries; }
  const EntryList &entries() const { return Entries; }

  /// Constructs an entry in place at the end of the list from a payload
  /// (Instruction, Directive, or Kind::Label + name) — one payload move,
  /// no intermediate MaoEntry — or from a bare Kind, whose default payload
  /// the caller then fills in the node, and returns an iterator to it; the
  /// views are left alone. This is the parser's hot path, where entries
  /// arrive one per line, and the parser is its only caller: it fills a
  /// unit no other thread can see yet, so it takes no lock. Never call it
  /// on a unit that sharded passes may be editing.
  template <class... ArgsT> EntryIter emplaceBack(ArgsT &&...Args) {
    return Entries.emplace(Entries.end(), std::forward<ArgsT>(Args)...);
  }

  /// Inserts before \p Pos; returns an iterator to the inserted entry.
  ///
  /// insertBefore/erase/moveRange are safe to call concurrently from
  /// sharded function passes: std::list nodes at disjoint positions are
  /// independent, but the list's bookkeeping, boundary links and views
  /// are shared, so all structural edits serialize on one internal mutex.
  /// Concurrent *readers* of a shard's own entries need no lock — a shard
  /// never touches another shard's nodes (see DESIGN.md, "Sharded pass
  /// pipeline" for the full contract).
  EntryIter insertBefore(EntryIter Pos, MaoEntry Entry);
  /// Removes \p Pos; returns the iterator following it.
  EntryIter erase(EntryIter Pos);

  /// Moves the entry range [First, Last) to immediately before \p Before
  /// in O(1) (a list splice): iterators into the moved range stay valid
  /// and travel with their entries. \p Before must not lie inside
  /// [First, Last). The views follow as for an insertion, unless the
  /// moved entries hold a range endpoint (see rebuildStructure()).
  void moveRange(EntryIter First, EntryIter Last, EntryIter Before);

  /// Derives the views from the entry list, leaving the unit's own alone.
  /// Counted in the `ir.structure_builds` statistic.
  UnitViews deriveViews() { return derive(/*SetOwners=*/false); }

  /// Replaces the views with a fresh derivation: after the parser's
  /// emplaceBack(), and after an edit outside the contract (HOTCOLD's
  /// function moves). Every entry's Owner is pointed at its new function,
  /// and the functions' kept analyses go with the old views.
  void rebuildStructure();

  std::vector<MaoFunction> &functions() { return Views.Functions; }
  const std::vector<MaoFunction> &functions() const { return Views.Functions; }
  std::vector<SectionInfo> &sections() { return Views.Sections; }

  /// Finds a function by name; null when absent.
  MaoFunction *findFunction(const std::string &Name);

  /// Label name -> the defining entry's position in the entry list, so a
  /// caller can walk on from the label. Duplicate definitions bind to the
  /// FIRST occurrence — the one branch fall-through reaches — matching
  /// the emulator; the parser diagnoses redefinitions (MAO-parse-
  /// duplicate-label) and the verifier rejects them outright.
  const std::unordered_map<std::string_view, EntryIter> &labelMap() const {
    return Views.Labels;
  }

  /// The unit's arena (the entry list's nodes); exposed for stats.
  const Arena &arena() const { return *IrArena; }

  /// Generates a fresh MAO-local label name (".LMAO<n>").
  std::string makeUniqueLabel();

  /// Renders the whole unit as assembly text.
  std::string toString() const;

private:
  /// deriveViews(); with \p SetOwners it also points every entry's Owner
  /// at the derived function it belongs to (or null), in the same walk.
  UnitViews derive(bool SetOwners);

  /// Inserts before \p Pos and brings the views up to date; StructuralM
  /// held.
  EntryIter insertLocked(EntryIter Pos, MaoEntry Entry);
  /// True when a range may begin at \p Pos other than at its function's
  /// own label; edits elsewhere skip the scan over every range.
  bool startsRun(EntryIter Pos);
  /// Points the range Begins at \p Pos to \p New, which now precedes it in
  /// the same run (see the edit contract above), and makes New's owner
  /// the function whose range it now begins, if any.
  void moveBeginsBefore(EntryIter Pos, EntryIter New);
  /// True for entries whose insertion or erasure the views cannot follow.
  bool definesStructure(const MaoEntry &E) const;

  /// The arena owns the storage behind Entries' nodes; declared first so
  /// it is destroyed last.
  std::shared_ptr<Arena> IrArena;
  EntryList Entries;
  UnitViews Views;
  uint32_t NextLabelId = 0;
  /// Serializes structural edits (insert/erase/move) and the view
  /// updates they make. Deliberately not moved by the move operations — a
  /// unit is never moved while shards are running (whole-unit passes are
  /// pipeline barriers).
  std::mutex StructuralM;
};

} // namespace mao

#endif // MAO_IR_MAOUNIT_H
