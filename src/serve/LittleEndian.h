//===- serve/LittleEndian.h - Fixed-width wire integers ---------*- C++ -*-===//
///
/// \file
/// The little-endian integers of the artifact cache's entry format and of
/// maod's frames. Readers are bounds-checked: they fail, never read past
/// the end.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_SERVE_LITTLEENDIAN_H
#define MAO_SERVE_LITTLEENDIAN_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace mao {
namespace serve {

/// Appends \p V, least significant byte first.
inline void appendU32(std::string &Out, uint32_t V) {
  for (unsigned I = 0; I < 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

inline void appendU64(std::string &Out, uint64_t V) {
  for (unsigned I = 0; I < 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

/// Reads the integer at \p Pos into \p Out and advances \p Pos; false
/// when fewer bytes remain.
inline bool readU32(std::string_view Bytes, size_t &Pos, uint32_t &Out) {
  if (Pos + 4 > Bytes.size())
    return false;
  Out = 0;
  for (unsigned I = 0; I < 4; ++I)
    Out |= static_cast<uint32_t>(static_cast<unsigned char>(Bytes[Pos + I]))
           << (8 * I);
  Pos += 4;
  return true;
}

inline bool readU64(std::string_view Bytes, size_t &Pos, uint64_t &Out) {
  if (Pos + 8 > Bytes.size())
    return false;
  Out = 0;
  for (unsigned I = 0; I < 8; ++I)
    Out |= static_cast<uint64_t>(static_cast<unsigned char>(Bytes[Pos + I]))
           << (8 * I);
  Pos += 8;
  return true;
}

} // namespace serve
} // namespace mao

#endif // MAO_SERVE_LITTLEENDIAN_H
