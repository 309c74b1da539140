//===- support/Arena.h - Bump allocation for the IR -------------*- C++ -*-===//
///
/// \file
/// Chunked bump allocation for the IR hot path.
///
/// An Arena hands out raw storage from geometrically growing chunks and
/// frees everything at once when destroyed. Same-size blocks released back
/// to the arena are kept on per-size free lists so container churn (the
/// std::list node per MaoEntry) recycles storage instead of growing the
/// arena without bound during structural edits.
///
/// ArenaAllocator<T> adapts an Arena to the std allocator interface so
/// standard containers (MaoUnit's EntryList) can live in it. Allocators
/// compare equal iff they share the arena; move assignment propagates the
/// allocator so moving a MaoUnit moves the arena pointer, never the nodes.
///
/// Lifetime rules (see DESIGN.md, "Throughput core"):
///  - everything allocated from an Arena dies with the Arena;
///  - MaoUnit shares its Arena via shared_ptr so moved-from units and
///    cloned units each keep a consistent (arena, container) pair.
///
/// Thread safety: Arena::allocate/deallocate are NOT synchronized — the IR
/// serializes structural edits on MaoUnit::StructuralM already, and the
/// arena piggybacks on that lock.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_SUPPORT_ARENA_H
#define MAO_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

namespace mao {

/// Chunked bump allocator with same-size free-list reuse.
class Arena {
public:
  explicit Arena(size_t FirstChunkBytes = 16 * 1024)
      : NextChunkBytes(FirstChunkBytes < MinChunkBytes ? MinChunkBytes
                                                       : FirstChunkBytes) {}

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  ~Arena() {
    for (char *Chunk : Chunks)
      ::operator delete(Chunk);
  }

  /// Returns \p Bytes of storage aligned to \p Align. Never returns null;
  /// throws std::bad_alloc on exhaustion like operator new.
  void *allocate(size_t Bytes, size_t Align = alignof(std::max_align_t)) {
    if (Bytes == 0)
      Bytes = 1;
    const size_t Rounded = roundUp(Bytes, Align);
    // Free-list hit: blocks are binned by (rounded size); alignment is
    // preserved because a recycled block was originally carved at >= Align
    // for its size class (we only bin blocks released via deallocate with
    // the same size they were allocated at). Bins only exist once
    // something has been deallocated, so allocation-only phases (parsing)
    // pay a single predicted branch here, not a hash lookup.
    if (!FreeBins.empty()) {
      for (FreeBin &Bin : FreeBins) {
        if (Bin.Size != Rounded || !Bin.Head)
          continue;
        void *Block = Bin.Head;
        std::memcpy(&Bin.Head, Block, sizeof(void *));
        return Block;
      }
    }
    uintptr_t Cur = reinterpret_cast<uintptr_t>(Ptr);
    uintptr_t Aligned = (Cur + Align - 1) & ~(uintptr_t(Align) - 1);
    if (Aligned + Rounded > reinterpret_cast<uintptr_t>(End)) {
      grow(Rounded + Align);
      Cur = reinterpret_cast<uintptr_t>(Ptr);
      Aligned = (Cur + Align - 1) & ~(uintptr_t(Align) - 1);
    }
    Ptr = reinterpret_cast<char *>(Aligned + Rounded);
    BytesLive += Rounded;
    return reinterpret_cast<void *>(Aligned);
  }

  /// Returns a block to the same-size free list for reuse. \p Bytes and
  /// \p Align must match the allocate() call that produced \p Block. The
  /// free lists are intrusive — the link pointer lives in the freed block
  /// itself (roundUp guarantees every block holds at least one pointer) —
  /// so releasing a block never allocates and never hashes.
  void deallocate(void *Block, size_t Bytes,
                  size_t Align = alignof(std::max_align_t)) {
    if (!Block)
      return;
    if (Bytes == 0)
      Bytes = 1;
    const size_t Rounded = roundUp(Bytes, Align);
    for (FreeBin &Bin : FreeBins) {
      if (Bin.Size != Rounded)
        continue;
      std::memcpy(Block, &Bin.Head, sizeof(void *));
      Bin.Head = Block;
      return;
    }
    FreeBins.push_back({Rounded, nullptr});
    std::memcpy(Block, &FreeBins.back().Head, sizeof(void *));
    FreeBins.back().Head = Block;
  }

  /// Typed convenience: uninitialized storage for \p N objects of T.
  template <typename T> T *allocateArray(size_t N) {
    return static_cast<T *>(allocate(N * sizeof(T), alignof(T)));
  }

  /// Total bytes handed out (net of free-list recycling it is an upper
  /// bound on live bytes); for stats/bench reporting.
  size_t bytesAllocated() const { return BytesLive; }

  /// Number of backing chunks — growth diagnostics.
  size_t chunkCount() const { return Chunks.size(); }

private:
  static constexpr size_t MinChunkBytes = 4 * 1024;
  static constexpr size_t MaxChunkBytes = 2 * 1024 * 1024;

  static size_t roundUp(size_t Bytes, size_t Align) {
    const size_t A = Align < sizeof(void *) ? sizeof(void *) : Align;
    return (Bytes + A - 1) & ~(A - 1);
  }

  void grow(size_t AtLeast) {
    size_t Size = NextChunkBytes;
    while (Size < AtLeast)
      Size *= 2;
    char *Chunk = static_cast<char *>(::operator new(Size));
    Chunks.push_back(Chunk);
    Ptr = Chunk;
    End = Chunk + Size;
    if (NextChunkBytes < MaxChunkBytes)
      NextChunkBytes *= 2;
  }

  /// One intrusive free list of same-size blocks; Head links through the
  /// first pointer-sized bytes of each freed block.
  struct FreeBin {
    size_t Size;
    void *Head;
  };

  std::vector<char *> Chunks;
  char *Ptr = nullptr;
  char *End = nullptr;
  size_t NextChunkBytes;
  size_t BytesLive = 0;
  /// Same-size free lists, linearly scanned: an IR arena sees few distinct
  /// block sizes (the entry list's nodes), so a flat vector beats a hash map
  /// on both hit and miss.
  std::vector<FreeBin> FreeBins;
};

/// std-compatible allocator over an Arena. Containers using it must not
/// outlive the arena. Equality is identity of the arena, and the allocator
/// propagates on move assignment so container moves stay O(1) (the arena
/// pointer travels with the nodes).
template <typename T> class ArenaAllocator {
public:
  using value_type = T;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  ArenaAllocator() = delete; // An arena is required; no default heap mode.
  explicit ArenaAllocator(Arena *A) : A(A) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U> &Other) : A(Other.arena()) {}

  T *allocate(size_t N) {
    return static_cast<T *>(A->allocate(N * sizeof(T), alignof(T)));
  }
  void deallocate(T *P, size_t N) { A->deallocate(P, N * sizeof(T), alignof(T)); }

  Arena *arena() const { return A; }

  template <typename U> bool operator==(const ArenaAllocator<U> &O) const {
    return A == O.arena();
  }
  template <typename U> bool operator!=(const ArenaAllocator<U> &O) const {
    return A != O.arena();
  }

private:
  Arena *A;
};

} // namespace mao

#endif // MAO_SUPPORT_ARENA_H
