//===- serve/ArtifactCache.h - Crash-safe persistent cache ------*- C++ -*-===//
///
/// \file
/// A content-addressed on-disk cache of optimization artifacts: the
/// optimized output text and its per-run report, keyed by a 64-bit FNV-1a
/// over (input bytes, canonical pipeline config, pass/option versions).
/// One entry is one file `<16-hex-digit-key>.mao` in the cache directory.
///
/// Crash safety is the design center — a build farm pointing thousands of
/// concurrent compile jobs at a shared cache directory must never read a
/// torn entry, and a writer killed at any instruction must never leave the
/// cache in a state that serves wrong bytes:
///
///   * Writes go to a uniquely named temp file in the same directory,
///     are fsync'd, and become visible only through an atomic rename(2);
///     the directory is fsync'd after the rename so the entry survives a
///     host crash too. A writer killed mid-write leaves only a stale
///     `*.tmp.*` file, which open() and fsck() sweep.
///   * Every entry carries a magic/version header, its own key, and an
///     FNV-1a checksum trailer over all preceding bytes. lookup() verifies
///     all of them; a torn, truncated, or bit-flipped entry is moved into
///     the `quarantine/` subdirectory (never silently deleted — operators
///     can inspect it) and reported as a miss, so the caller recomputes.
///   * A cache hit is byte-identical to a recompute by construction: the
///     payload is the exact output of the optimization that stored it, and
///     the determinism contracts of the pipeline (byte-identical output
///     for every --mao-jobs value) make the recompute reproduce it.
///
/// The filesystem fault domain of support/FaultInjection (short writes,
/// rename failures, read-side bit flips) is wired through writeFileAtomic
/// and readEntryFile, so every recovery path here is deterministically
/// testable (ServeTest, maofuzz --serve).
///
/// Thread/process safety: all methods are safe to call concurrently from
/// multiple threads and multiple processes sharing one directory. Distinct
/// writers of the same key race benignly — both values are identical by
/// construction (content-addressing), and rename is atomic either way.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_SERVE_ARTIFACTCACHE_H
#define MAO_SERVE_ARTIFACTCACHE_H

#include "support/Hash.h"
#include "support/Status.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mao {
namespace serve {

/// The key and checksum hash, also reachable as serve::fnv1a64 (the
/// benchmark tool keys its cache probes with it).
using mao::fnv1a64;

/// One cached artifact: named payload sections ("output", "report", ...).
/// Section order is part of the serialized format and preserved.
struct CacheEntry {
  std::vector<std::pair<std::string, std::string>> Sections;

  const std::string *find(std::string_view Name) const {
    for (const auto &[N, V] : Sections)
      if (N == Name)
        return &V;
    return nullptr;
  }
  void set(std::string Name, std::string Value) {
    Sections.emplace_back(std::move(Name), std::move(Value));
  }
};

class ArtifactCache {
public:
  /// Exact counters, safe to read concurrently. Quarantines counts entries
  /// moved aside by lookup() or fsck(); StaleTmpRemoved counts leftover
  /// temp files from crashed writers swept by open() or fsck().
  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Stores = 0;
    uint64_t StoreFailures = 0;
    uint64_t Quarantines = 0;
    uint64_t StaleTmpRemoved = 0;
    uint64_t Evictions = 0; ///< Entries removed to honour the byte budget.
    uint64_t Entries = 0; ///< *.mao files present at the last open()/fsck().
  };

  ArtifactCache() = default;
  ArtifactCache(const ArtifactCache &) = delete;
  ArtifactCache &operator=(const ArtifactCache &) = delete;

  /// Opens (creating if needed) the cache rooted at \p Dir and sweeps
  /// stale temp files left by crashed writers. Idempotent. When a byte
  /// budget is set, an over-budget directory is trimmed on open too.
  MaoStatus open(const std::string &Dir);

  /// Caps the total bytes of visible entries; 0 (the default) means
  /// unbounded. A store that pushes the cache over the budget evicts the
  /// oldest entries (by modification time, file name as tiebreak) until
  /// the total fits again. Eviction is a sequence of atomic unlinks plus
  /// a directory fsync — a writer killed mid-evict leaves a smaller but
  /// fully consistent cache, never a corrupt one, and the next store or
  /// open() resumes trimming. May be called before or after open().
  void setByteBudget(uint64_t Bytes);
  uint64_t byteBudget() const;

  bool isOpen() const { return !Root.empty(); }
  const std::string &directory() const { return Root; }

  /// Looks \p Key up. Returns true and fills \p Out on a verified hit;
  /// returns false on a miss. A present-but-corrupt entry (bad magic,
  /// short file, checksum mismatch, key mismatch) is quarantined and
  /// reported as a miss — corruption can never surface as data.
  bool lookup(uint64_t Key, CacheEntry &Out);

  /// Stores \p Entry under \p Key crash-safely (temp + fsync + atomic
  /// rename + directory fsync). On failure the cache directory is left
  /// exactly as it was (modulo a removed temp file); callers treat a
  /// store failure as a diagnostic, not an error — the computed result
  /// they hold is still valid.
  MaoStatus store(uint64_t Key, const CacheEntry &Entry);

  /// Validates every entry in the cache, quarantining corrupt ones and
  /// sweeping stale temp files. Returns the number of quarantined
  /// entries. Used by `maod --fsck-cache` and the crash-recovery test.
  unsigned fsck();

  Stats stats() const;

  /// The on-disk path an entry for \p Key lives at (for tests).
  std::string entryPath(uint64_t Key) const;

  /// Serializes / parses the on-disk entry format (exposed for tests).
  /// Format: "MAOA" u32 version, u64 key, u32 nsections, per section
  /// {u32 name-len, name, u64 data-len, data}, u64 FNV-1a trailer over
  /// every preceding byte.
  static std::string serializeEntry(uint64_t Key, const CacheEntry &Entry);
  static MaoStatus parseEntry(std::string_view Bytes, uint64_t ExpectedKey,
                              CacheEntry &Out);

private:
  /// Moves the (corrupt) entry at \p Path into quarantine/ and counts it.
  void quarantine(const std::string &Path);
  /// Removes `*.tmp.*` files under Root; returns how many were removed.
  unsigned sweepStaleTmp();
  /// Re-counts `*.mao` entries into the Entries stat.
  void recountEntries();
  /// Evicts oldest entries until the cache fits the byte budget (no-op
  /// when no budget is set). Returns the number of evicted entries.
  unsigned enforceBudget();

  std::string Root;
  std::atomic<uint64_t> BudgetBytes{0};
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Stores{0};
  std::atomic<uint64_t> StoreFailures{0};
  std::atomic<uint64_t> Quarantines{0};
  std::atomic<uint64_t> StaleTmp{0};
  std::atomic<uint64_t> Evicted{0};
  std::atomic<uint64_t> Entries{0};
  std::atomic<uint64_t> TmpSeq{0}; ///< Uniquifies temp names per instance.
};

} // namespace serve
} // namespace mao

#endif // MAO_SERVE_ARTIFACTCACHE_H
