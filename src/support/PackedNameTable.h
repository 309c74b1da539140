//===- support/PackedNameTable.h - Table keyed by short names --*- C++ -*-===//
///
/// \file
/// A fixed-capacity open-addressing hash table from names of at most eight
/// bytes to small values. The lexer's hottest lookups, register names and
/// mnemonic spellings, are such names: each packs losslessly into one
/// uint64_t, so a probe is a multiply, a shift and a compare of the packed
/// key and the length. There is no byte-string hashing, no modulo by a
/// prime and no bucket chain. Filled once, then only read.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_SUPPORT_PACKEDNAMETABLE_H
#define MAO_SUPPORT_PACKEDNAMETABLE_H

#include <array>
#include <cassert>
#include <cstdint>
#include <string_view>

namespace mao {

/// Maps names of 1..MaxNameLength bytes to ValueT in 2^LogCapacity slots,
/// probed linearly. Inserts keep the table at most half full, so every
/// probe sequence reaches an empty slot. The stored length makes the key
/// exact: a name with embedded or trailing NUL bytes never aliases a
/// shorter one.
template <class ValueT, unsigned LogCapacity> class PackedNameTable {
public:
  static constexpr size_t MaxNameLength = 8;
  static constexpr size_t Capacity = size_t(1) << LogCapacity;

  /// Binds \p Name to \p Value unless it is already bound: the first
  /// binding wins. \p Name must be 1..MaxNameLength bytes.
  void insert(std::string_view Name, const ValueT &Value) {
    assert(!Name.empty() && Name.size() <= MaxNameLength &&
           "name does not pack into the table's key");
    const uint64_t Key = pack(Name);
    for (size_t I = home(Key);; I = (I + 1) & (Capacity - 1)) {
      Slot &S = Slots[I];
      if (S.Length == Name.size() && S.Key == Key)
        return;
      if (S.Length == 0) {
        assert(2 * (Size + 1) <= Capacity && "table more than half full");
        S = {Key, static_cast<uint8_t>(Name.size()), Value};
        ++Size;
        return;
      }
    }
  }

  /// The value bound to \p Name, or null when none is (including every
  /// name that is empty or longer than MaxNameLength).
  const ValueT *find(std::string_view Name) const {
    if (Name.empty() || Name.size() > MaxNameLength)
      return nullptr;
    const uint64_t Key = pack(Name);
    for (size_t I = home(Key);; I = (I + 1) & (Capacity - 1)) {
      const Slot &S = Slots[I];
      if (S.Length == Name.size() && S.Key == Key)
        return &S.Value;
      if (S.Length == 0)
        return nullptr;
    }
  }

private:
  /// Length 0 marks an empty slot; bound names are never empty.
  struct Slot {
    uint64_t Key = 0;
    uint8_t Length = 0;
    ValueT Value{};
  };

  /// Little-endian, zero-padded. A byte loop, not a variable-length
  /// memcpy, which compiles to a library call on every lookup.
  static uint64_t pack(std::string_view Name) {
    uint64_t Key = 0;
    for (size_t I = 0; I < Name.size(); ++I)
      Key |= uint64_t(static_cast<unsigned char>(Name[I])) << (8 * I);
    return Key;
  }
  /// Fibonacci hashing: the multiply carries the low bytes, where short
  /// names differ, into the top LogCapacity bits.
  static size_t home(uint64_t Key) {
    return static_cast<size_t>((Key * UINT64_C(0x9E3779B97F4A7C15)) >>
                               (64 - LogCapacity));
  }

  std::array<Slot, Capacity> Slots{};
  size_t Size = 0;
};

} // namespace mao

#endif // MAO_SUPPORT_PACKEDNAMETABLE_H
