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

  /// Collects pointers to all instruction entries, in order. The common
  /// access pattern for passes that index instructions.
  std::vector<MaoEntry *> instructionEntries() const;

  /// Counts instruction entries.
  size_t countInstructions() const;

  /// Set when the CFG builder could not resolve an indirect branch in this
  /// function; passes decide whether to proceed (paper Sec. II).
  bool HasUnresolvedIndirect = false;
  /// Set when the function contains opaque (unmodelled) instructions, which
  /// make computed addresses estimates rather than exact values.
  bool HasOpaqueInstructions = false;

private:
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

/// The IR for one assembly file.
class MaoUnit {
public:
  MaoUnit()
      : IrArena(std::make_shared<Arena>()),
        Interner(std::make_unique<StringInterner>(IrArena.get())),
        Entries(ArenaAllocator<MaoEntry>(IrArena.get())) {}
  MaoUnit(const MaoUnit &) = delete;
  MaoUnit &operator=(const MaoUnit &) = delete;
  // Sections and functions hold iterators into the entry list (including
  // end(), which does not survive a list move) and back-pointers to the
  // unit, so moves must rebuild the derived structure. The entry list's
  // allocator propagates on move, so the nodes stay where they are and the
  // arena travels with them (O(1), no per-node copy); the moved-from unit
  // is reset to a fresh arena so it remains usable.
  MaoUnit(MaoUnit &&Other) noexcept : MaoUnit() { *this = std::move(Other); }
  MaoUnit &operator=(MaoUnit &&Other) noexcept {
    if (this == &Other)
      return *this;
    // Order matters: destroy our nodes while our own arena is still alive
    // (the list move-assign clears *this through the old allocator first),
    // then drop the old arena.
    Entries = std::move(Other.Entries);
    IrArena = std::move(Other.IrArena);
    Interner = std::move(Other.Interner);
    NextEntryId = Other.NextEntryId;
    NextLabelId = Other.NextLabelId;
    Other.IrArena = std::make_shared<Arena>();
    Other.Interner = std::make_unique<StringInterner>(Other.IrArena.get());
    Other.Entries = EntryList(ArenaAllocator<MaoEntry>(Other.IrArena.get()));
    Other.Functions.clear();
    Other.Sections.clear();
    Other.Labels.clear();
    Other.StructureDirty = false;
    Other.StructureEdited = false;
    // The derived views are rebuilt lazily on first access, not here: a
    // unit is moved three times on its way out of the parser (into the
    // status wrapper, then to the caller), and eager rebuilding made that
    // the single largest cost of parsing a small file.
    Functions.clear();
    Sections.clear();
    Labels.clear();
    StructureDirty = true;
    StructureEdited = false;
    return *this;
  }

  /// Deep-copies the unit (entry list and label counters) WITHOUT
  /// rebuilding the derived structure on the copy. Used by the
  /// transactional pass runner to snapshot the IR before a pass so a
  /// failing pass can be rolled back: restoring through move-assignment
  /// rebuilds the views, and a discarded snapshot never needs them. Call
  /// rebuildStructure() on the copy before reading its sections/functions.
  MaoUnit clone() const;

  EntryList &entries() { return Entries; }
  const EntryList &entries() const { return Entries; }

  /// Appends an entry (used by the parser and the workload generator) and
  /// returns an iterator to it.
  ///
  /// append/insertBefore/insertAfter/erase are safe to call concurrently
  /// from sharded function passes: std::list nodes at disjoint positions
  /// are independent, but the list's size bookkeeping and the boundary
  /// links between adjacent shards are shared, so all structural edits
  /// serialize on one internal mutex. Concurrent *readers* of a shard's
  /// own entries need no lock — a shard never touches another shard's
  /// nodes (see DESIGN.md, "Sharded pass pipeline" for the full contract).
  EntryIter append(MaoEntry Entry);

  /// Constructs an entry in place at the end of the list from a payload
  /// (Instruction, Directive, or Kind::Label + name) — one payload move,
  /// no intermediate MaoEntry. Locking and Id assignment match append();
  /// this is the parser's hot path, where entries arrive one per line.
  template <class... ArgsT> EntryIter emplaceBack(ArgsT &&...Args) {
    std::lock_guard<std::mutex> Lock(StructuralM);
    EntryIter It = Entries.emplace(Entries.end(),
                                   std::forward<ArgsT>(Args)...);
    It->Id = nextId();
    return It;
  }

  /// Inserts before \p Pos; returns an iterator to the inserted entry.
  EntryIter insertBefore(EntryIter Pos, MaoEntry Entry);
  /// Inserts after \p Pos; returns an iterator to the inserted entry.
  EntryIter insertAfter(EntryIter Pos, MaoEntry Entry);
  /// Removes \p Pos; returns the iterator following it.
  EntryIter erase(EntryIter Pos);

  /// Moves the entry range [First, Last) to immediately before \p Before
  /// in O(1) (a list splice): iterators into the moved range stay valid
  /// and travel with their entries. \p Before must not lie inside
  /// [First, Last). Like every structural edit, this leaves the
  /// section/function views stale until rebuildStructure().
  void moveRange(EntryIter First, EntryIter Last, EntryIter Before);

  /// Entry-ID block size handed to each shard of a sharded function pass.
  /// Generous: a shard exhausting its block falls back to the shared
  /// counter, which stays correct but is no longer independent of shard
  /// scheduling.
  static constexpr uint32_t ShardIdBlockSize = 4096;

  /// Reserves \p Count consecutive ID blocks of \p BlockSize and returns
  /// the first ID of block 0. The sharded pass runner grants block i to
  /// function i so that entry IDs are a function of (pass, function),
  /// never of worker scheduling — IDs feed analysis output (e.g. SIMADDR
  /// records), so they must be identical across --mao-jobs values. Not
  /// thread-safe; call before the parallel region.
  uint32_t reserveIdBlocks(size_t Count, uint32_t BlockSize);

  /// (Re)computes sections and functions from the entry list. Passes that
  /// restructure function boundaries re-invoke it. Structural edits
  /// (insert/erase/moveRange) deliberately do NOT schedule a lazy rebuild
  /// — the views go stale until the caller rebuilds, which sharded passes
  /// rely on (a shard calling an accessor must never rebuild under its
  /// siblings). They only record that they happened (structureEdited()),
  /// and the pass runner rebuilds between passes. Moving or cloning a unit
  /// marks the views dirty instead, and the accessors below rebuild on
  /// first use; a dirty unit must not be read from several threads until
  /// one caller has rebuilt it (the pipeline rebuilds before every
  /// parallel region already).
  void rebuildStructure();

  /// True when insertBefore/insertAfter/erase/moveRange ran since the last
  /// rebuildStructure(). An erased entry can be the Begin of a function or
  /// section range, so views read after such an edit may point at a freed
  /// node. Read only from the orchestrating thread, outside parallel
  /// regions.
  bool structureEdited() const { return StructureEdited; }

  std::vector<MaoFunction> &functions() {
    ensureStructure();
    return Functions;
  }
  const std::vector<MaoFunction> &functions() const {
    ensureStructure();
    return Functions;
  }
  std::vector<SectionInfo> &sections() {
    ensureStructure();
    return Sections;
  }

  /// Finds a function by name; null when absent.
  MaoFunction *findFunction(const std::string &Name);

  /// Label name -> defining entry. Rebuilt by rebuildStructure(); passes
  /// inserting labels must re-run it or register labels explicitly.
  /// Keys are views into entry-owned storage (stable: list nodes never
  /// move) and must not outlive the unit. Duplicate definitions bind to
  /// the FIRST occurrence — the one branch fall-through reaches — matching
  /// the emulator; the parser diagnoses redefinitions (MAO-parse-
  /// duplicate-label) and the verifier rejects them outright.
  const std::unordered_map<std::string_view, MaoEntry *> &labelMap() const {
    ensureStructure();
    return Labels;
  }

  /// The unit's string-interning pool (arena-backed). The parser interns
  /// every label and symbol name through this so equal names share one
  /// allocation; interned views live exactly as long as the unit.
  StringInterner &interner() { return *Interner; }

  /// The unit's arena (IR nodes + interned strings); exposed for stats.
  const Arena &arena() const { return *IrArena; }

  /// Generates a fresh MAO-local label name (".LMAO<n>").
  std::string makeUniqueLabel();

  /// Renders the whole unit as assembly text.
  std::string toString() const;

private:
  friend class ScopedShardIds;

  /// Next entry ID: from the calling thread's armed shard block when one
  /// is active for this unit, else from the shared counter. Only called
  /// with StructuralM held (all callers are the structural editors).
  uint32_t nextId();

  /// Rebuilds the derived views if a move/clone left them dirty. Logically
  /// const: the views are a cache over the entry list.
  void ensureStructure() const {
    if (StructureDirty)
      const_cast<MaoUnit *>(this)->rebuildStructure();
  }

  /// The arena owns the storage behind Entries' nodes and the interner's
  /// strings; declared before both so it is destroyed last.
  std::shared_ptr<Arena> IrArena;
  std::unique_ptr<StringInterner> Interner;
  EntryList Entries;
  std::vector<MaoFunction> Functions;
  std::vector<SectionInfo> Sections;
  std::unordered_map<std::string_view, MaoEntry *> Labels;
  uint32_t NextEntryId = 1;
  uint32_t NextLabelId = 0;
  /// True when a move or clone invalidated the derived views; cleared by
  /// rebuildStructure(). False on a fresh unit: its (empty) views match
  /// its (empty) entry list, and callers that append entries read empty
  /// views until they rebuild, exactly as before views went lazy.
  bool StructureDirty = false;
  /// Set (under StructuralM) by insertBefore/insertAfter/erase/moveRange;
  /// cleared by rebuildStructure(). See structureEdited().
  bool StructureEdited = false;
  /// Serializes structural edits (insert/erase/append). Deliberately not
  /// moved by the move operations — a unit is never moved while shards
  /// are running (whole-unit passes are pipeline barriers).
  std::mutex StructuralM;
};

/// RAII guard arming a pre-reserved entry-ID range for the current thread:
/// while alive, \p Unit's nextId() draws from [Begin, End) instead of the
/// shared counter. The sharded pass runner wraps each shard in one of
/// these so the IDs a shard assigns depend only on its function index.
/// Nests (the previous allocator is restored on destruction).
class ScopedShardIds {
public:
  ScopedShardIds(MaoUnit &Unit, uint32_t Begin, uint32_t End);
  ~ScopedShardIds();
  ScopedShardIds(const ScopedShardIds &) = delete;
  ScopedShardIds &operator=(const ScopedShardIds &) = delete;

private:
  friend class MaoUnit;
  struct Alloc {
    MaoUnit *Unit;
    uint32_t Next;
    uint32_t End;
  };
  Alloc Saved;
  static thread_local Alloc Active;
};

} // namespace mao

#endif // MAO_IR_MAOUNIT_H
