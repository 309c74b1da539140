//===- support/Hash.h - 64-bit FNV-1a -------------------------*- C++ -*-===//
///
/// \file
/// The one FNV-1a implementation behind every stable 64-bit digest: cache
/// keys and artifact checksums, the peephole rule digest, NOPIN's
/// per-function seed salt, the score cache and diagnostic fingerprints.
/// Those values are persisted or compared across runs, so the function
/// must never change.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_SUPPORT_HASH_H
#define MAO_SUPPORT_HASH_H

#include <cstdint>
#include <string_view>

namespace mao {

/// 64-bit FNV-1a over \p Data folded into \p Hash (chainable; the default
/// is the FNV offset basis).
inline uint64_t fnv1a64(std::string_view Data,
                        uint64_t Hash = 0xcbf29ce484222325ULL) {
  for (unsigned char C : Data)
    Hash = (Hash ^ C) * 0x100000001b3ULL;
  return Hash;
}

} // namespace mao

#endif // MAO_SUPPORT_HASH_H
