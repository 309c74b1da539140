//===- support/Random.h - Deterministic random source ----------*- C++ -*-===//
///
/// \file
/// SplitMix64-based random source. Experiments such as the Nopinizer (paper
/// Sec. III-E) must be repeatable given a seed, so all randomized components
/// share this small deterministic generator instead of std::mt19937's
/// platform-dependent distributions.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_SUPPORT_RANDOM_H
#define MAO_SUPPORT_RANDOM_H

#include <cassert>
#include <cstdint>

namespace mao {

/// Deterministic, seedable 64-bit generator (SplitMix64).
class RandomSource {
public:
  constexpr explicit RandomSource(uint64_t Seed) : State(Seed) {}

  /// Returns the next raw 64-bit value.
  uint64_t next() {
    State += 0x9e3779b97f4a7c15ULL;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

  /// Returns a uniform value in [0, Bound). \p Bound must be nonzero.
  uint64_t nextBelow(uint64_t Bound) {
    assert(Bound != 0 && "nextBelow requires a positive bound");
    // Multiplicative range reduction; bias is negligible for our bounds.
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(next()) * Bound) >> 64);
  }

  /// Returns a uniform value in [Lo, Hi] inclusive.
  int64_t nextInRange(int64_t Lo, int64_t Hi) {
    assert(Lo <= Hi && "empty range");
    return Lo + static_cast<int64_t>(
                    nextBelow(static_cast<uint64_t>(Hi - Lo) + 1));
  }

  /// Returns true with probability Numer/Denom.
  bool nextChance(uint64_t Numer, uint64_t Denom) {
    assert(Denom != 0 && "zero denominator");
    return nextBelow(Denom) < Numer;
  }

private:
  uint64_t State;
};

} // namespace mao

#endif // MAO_SUPPORT_RANDOM_H
