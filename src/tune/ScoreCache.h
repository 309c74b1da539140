//===- tune/ScoreCache.h - Candidate score memoization ----------*- C++ -*-===//
///
/// \file
/// Memoization of simulator scores keyed by (processor config, hash of the
/// candidate's assembled section bytes). Distinct parameterizations often
/// lower to byte-identical programs (a toggle for a pass that fires zero
/// times, a NOP pad the relaxer already emitted), and the simulator is the
/// expensive stage of candidate evaluation — the cycle count is a pure
/// function of the bytes under a fixed config, so identical bytes never
/// simulate twice.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_TUNE_SCORECACHE_H
#define MAO_TUNE_SCORECACHE_H

#include "asm/Assembler.h"

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace mao {

class ScoreCache {
public:
  /// One cache instance covers one processor config; the config name is
  /// folded into every key so two caches (or one cleared and re-seeded)
  /// can never confuse configs.
  explicit ScoreCache(std::string ConfigName)
      : ConfigName(std::move(ConfigName)) {}

  /// FNV-1a over the config name and every section's name and bytes.
  uint64_t keyFor(const SectionBytes &Bytes) const;

  /// The memoized cycle count for \p Key, counting a hit or miss.
  std::optional<uint64_t> lookup(uint64_t Key) const;

  /// Memoizes \p Cycles for \p Key (first write wins; scores for one key
  /// are value-identical by construction, so order cannot matter). The
  /// cache never evicts: a tune run's evaluation budget bounds it.
  void insert(uint64_t Key, uint64_t Cycles);

  /// Exact hit/miss accounting: lookup(), insert() and stats() all run
  /// under the single cache mutex, and the tuner consults the cache from
  /// the orchestrator thread in candidate-index order (BatchEvaluator
  /// stage 2), so the counts are identical for every --mao-jobs value.
  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    size_t Entries = 0;
  };
  Stats stats() const;

private:
  std::string ConfigName;
  mutable std::mutex M; ///< Guards all mutable state below.
  std::unordered_map<uint64_t, uint64_t> Map;
  mutable uint64_t Hits = 0;
  mutable uint64_t Misses = 0;
};

} // namespace mao

#endif // MAO_TUNE_SCORECACHE_H
