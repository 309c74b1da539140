//===- x86/X86Defs.h - Core x86-64 definitions ------------------*- C++ -*-===//
///
/// \file
/// Small shared enums for the x86-64 instruction model: operation widths,
/// condition codes, RFLAGS bits, and execution-port masks. These are the
/// vocabulary used by the opcode table, the encoder, the dataflow framework
/// and the micro-architectural simulator.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_X86_X86DEFS_H
#define MAO_X86_X86DEFS_H

#include <bit>
#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>

namespace mao {

/// Operation width. For GPR instructions this is the operand size implied by
/// the AT&T mnemonic suffix (b/w/l/q) or by the register operands.
enum class Width : uint8_t { None, B, W, L, Q };

/// Returns the width in bytes; None maps to 0.
inline unsigned widthBytes(Width W) {
  switch (W) {
  case Width::None:
    return 0;
  case Width::B:
    return 1;
  case Width::W:
    return 2;
  case Width::L:
    return 4;
  case Width::Q:
    return 8;
  }
  assert(false && "covered switch");
  return 0;
}

/// Returns the AT&T suffix character for a width ('\0' for None).
inline char widthSuffix(Width W) {
  switch (W) {
  case Width::None:
    return '\0';
  case Width::B:
    return 'b';
  case Width::W:
    return 'w';
  case Width::L:
    return 'l';
  case Width::Q:
    return 'q';
  }
  assert(false && "covered switch");
  return '\0';
}

/// x86 condition codes with their hardware encodings (the low nibble of the
/// 0F 8x / 0F 9x / 0F 4x opcode families).
enum class CondCode : uint8_t {
  O = 0x0,
  NO = 0x1,
  B = 0x2,  // aka C, NAE
  AE = 0x3, // aka NC, NB
  E = 0x4,  // aka Z
  NE = 0x5, // aka NZ
  BE = 0x6, // aka NA
  A = 0x7,  // aka NBE
  S = 0x8,
  NS = 0x9,
  P = 0xa,  // aka PE
  NP = 0xb, // aka PO
  L = 0xc,  // aka NGE
  GE = 0xd, // aka NL
  LE = 0xe, // aka NG
  G = 0xf,  // aka NLE
  None = 0xff,
};

/// Returns the canonical AT&T spelling ("e", "ne", "g", ...).
const char *condCodeName(CondCode CC);

/// Parses a condition-code suffix, accepting all aliases ("z", "nae", ...).
/// Returns CondCode::None when \p Text is not a condition code.
CondCode parseCondCode(std::string_view Text);

/// One accepted condition-code spelling. The full alias table is exposed so
/// clients that precompute suffix-resolution tables (the parser's mnemonic
/// map) can enumerate every spelling instead of probing parseCondCode().
struct CondCodeSpelling {
  const char *Name;
  CondCode CC;
};
constexpr unsigned NumCondCodeSpellings = 30;
extern const CondCodeSpelling CondCodeSpellings[NumCondCodeSpellings];

/// Returns the negated condition (E <-> NE, L <-> GE, ...).
inline CondCode invertCondCode(CondCode CC) {
  assert(CC != CondCode::None && "inverting the null condition");
  return static_cast<CondCode>(static_cast<uint8_t>(CC) ^ 1);
}

/// RFLAGS bits tracked by the dataflow framework. MAO precisely models the
/// x86-64 condition codes (paper Sec. III-B), which is what enables the
/// redundant-test-removal pass.
enum FlagBit : uint8_t {
  FlagCF = 1 << 0,
  FlagPF = 1 << 1,
  FlagAF = 1 << 2,
  FlagZF = 1 << 3,
  FlagSF = 1 << 4,
  FlagOF = 1 << 5,
  FlagDF = 1 << 6,
};

/// All six arithmetic status flags.
constexpr uint8_t FlagsAllStatus =
    FlagCF | FlagPF | FlagAF | FlagZF | FlagSF | FlagOF;

/// Returns the set of flags a condition code reads.
uint8_t condCodeFlagsUsed(CondCode CC);

/// Formats a flag mask as e.g. "CF|ZF" for diagnostics.
std::string flagMaskToString(uint8_t Mask);

/// PF of a result: set when its low byte has an even number of one bits.
inline bool parity8(uint64_t Value) {
  return (std::popcount(Value & 0xff) % 2) == 0;
}

/// Execution ports of the modelled out-of-order back end (Core-2-like:
/// three ALU-capable issue ports plus dedicated load / store-address /
/// store-data ports). The paper's Sec. III-F observations (lea restricted
/// to port 0, shifts to ports 0 and 5) are encoded in the opcode table.
enum PortBit : uint8_t {
  Port0 = 1 << 0,
  Port1 = 1 << 1,
  Port2 = 1 << 2, // load
  Port3 = 1 << 3, // store address
  Port4 = 1 << 4, // store data
  Port5 = 1 << 5,
};

/// Ports usable by generic single-cycle ALU operations.
constexpr uint8_t PortsAluAny = Port0 | Port1 | Port5;

} // namespace mao

#endif // MAO_X86_X86DEFS_H
