//===- x86/Semantics.cpp - Out-of-line concrete operations -------------------==//

#include "x86/Semantics.h"

using namespace mao;

std::optional<uint64_t> mao::evalDivOp(SymTag Tag, unsigned Bits, uint64_t Hi,
                                       uint64_t Lo, uint64_t Den) {
  const uint64_t Mask = onesMask(Bits);
  if (Tag == SymTag::DivQ || Tag == SymTag::DivR) {
    if ((Den & Mask) == 0)
      return std::nullopt;
    unsigned __int128 Num =
        (static_cast<unsigned __int128>(Hi & Mask) << Bits) | (Lo & Mask);
    return static_cast<uint64_t>(Tag == SymTag::DivQ ? Num / (Den & Mask)
                                                     : Num % (Den & Mask)) &
           Mask;
  }
  const int64_t SDen = sext(Den, Bits);
  if (SDen == 0)
    return std::nullopt;
  __int128 Num = (static_cast<__int128>(sext(Hi, Bits)) << Bits) | (Lo & Mask);
  // The hardware faults on a quotient that does not fit; the model keeps
  // its low bits. Division by -1 negates, which overflows __int128 for the
  // smallest dividend, so it wraps in unsigned arithmetic instead.
  if (SDen == -1)
    return Tag == SymTag::IDivQ
               ? static_cast<uint64_t>(0 - static_cast<unsigned __int128>(Num)) &
                     Mask
               : 0;
  return static_cast<uint64_t>(Tag == SymTag::IDivQ ? Num / SDen
                                                    : Num % SDen) &
         Mask;
}

uint64_t mao::evalFloatOp(SymTag Tag, uint64_t A, uint64_t B) {
  switch (Tag) {
  case SymTag::FAdd32:
    return fromF32(asF32(A) + asF32(B));
  case SymTag::FSub32:
    return fromF32(asF32(A) - asF32(B));
  case SymTag::FMul32:
    return fromF32(asF32(A) * asF32(B));
  case SymTag::FDiv32:
    return fromF32(asF32(A) / asF32(B));
  case SymTag::FAdd64:
    return fromF64(asF64(A) + asF64(B));
  case SymTag::FSub64:
    return fromF64(asF64(A) - asF64(B));
  case SymTag::FMul64:
    return fromF64(asF64(A) * asF64(B));
  default:
    return fromF64(asF64(A) / asF64(B));
  }
}

bool mao::ucomiFlag(unsigned FlagPos, Mnemonic Mn, uint64_t A, uint64_t B) {
  bool Unordered, Eq, Lt;
  if (Mn == Mnemonic::UCOMISS) {
    float X = asF32(A), Y = asF32(B);
    Unordered = X != X || Y != Y;
    Eq = X == Y;
    Lt = X < Y;
  } else {
    double X = asF64(A), Y = asF64(B);
    Unordered = X != X || Y != Y;
    Eq = X == Y;
    Lt = X < Y;
  }
  switch (1u << FlagPos) {
  case FlagZF:
    return Unordered || Eq;
  case FlagCF:
    return Unordered || Lt;
  case FlagPF:
    return Unordered;
  default:
    return false; // OF/AF/SF are cleared.
  }
}
