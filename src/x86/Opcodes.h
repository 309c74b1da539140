//===- x86/Opcodes.h - Mnemonic enumeration and opcode info -----*- C++ -*-===//
///
/// \file
/// Mnemonic enumeration plus the per-mnemonic OpcodeInfo record generated
/// from Opcodes.def. The record carries everything downstream clients need:
/// encoding family, flag side effects, implicit register effects, and the
/// scheduling class used by the micro-architectural simulator.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_X86_OPCODES_H
#define MAO_X86_OPCODES_H

#include "x86/X86Defs.h"

#include <cstdint>
#include <string>

namespace mao {

/// Encoding/operand-shape family; drives both parsing validation and the
/// binary encoder.
enum class EncKind : uint8_t {
  Fixed,      // no explicit operands, fixed byte pattern
  Mov,        // mov in all its forms (incl. movabs)
  Movx,       // movz../movs.. with two widths (incl. movslq)
  Lea,
  AluRMI,     // add/or/adc/sbb/and/sub/xor/cmp
  Test,
  UnaryRM,    // not/neg/mul/div/idiv (F6/F7), inc/dec (FE/FF)
  ImulMulti,  // imul: 1-, 2-, and 3-operand forms
  ShiftRot,
  Push,
  Pop,
  Xchg,
  Bswap,
  Jmp,
  Jcc,
  Call,
  Ret,
  Setcc,
  Cmovcc,
  Nop,
  SseMov,     // xmm <-> xmm/mem moves
  SseCvtMov,  // movd/movq between GPR and xmm
  SseAlu,     // xmm arithmetic/logic, reg <- reg/mem
  Prefetch,
  Opaque,     // unmodelled instruction kept as raw text
};

/// Implicit register effect bits (super registers).
enum ImpRegBit : uint8_t {
  ImpRAX = 1 << 0,
  ImpRBX = 1 << 1,
  ImpRCX = 1 << 2,
  ImpRDX = 1 << 3,
  ImpRSP = 1 << 4,
  ImpRBP = 1 << 5,
  ImpRSI = 1 << 6,
  ImpRDI = 1 << 7,
};
constexpr uint8_t ImpAllRegs = 0xff;

/// All mnemonics MAO models, in Opcodes.def order.
enum class Mnemonic : uint8_t {
  Invalid = 0,
#define MAO_MNEM(Enum, Name, Kind, FDef, FUse, IDef, IUse, EncA, EncB, Lat,   \
                 Ports, Uops)                                                  \
  Enum,
#include "x86/Opcodes.def"
  NumMnemonics,
};

/// Static description of one mnemonic.
struct OpcodeInfo {
  const char *Name;    ///< Base AT&T spelling, without width/cc suffix.
  EncKind Kind;
  uint8_t FlagsDef;    ///< Status flags written (incl. "undefined" ones).
  uint8_t FlagsUse;    ///< Status flags read (CC-dependent flags excluded).
  uint8_t ImpDef;      ///< Implicitly written super registers.
  uint8_t ImpUse;      ///< Implicitly read super registers.
  uint8_t EncA;        ///< Kind-specific encoding datum.
  uint8_t EncB;        ///< Kind-specific encoding datum.
  uint8_t Latency;     ///< Result latency in cycles (modelled machine).
  uint8_t Ports;       ///< Execution-port mask (PortBit).
  uint8_t Uops;        ///< Fused-domain micro-ops.
};

/// The per-mnemonic table, generated from Opcodes.def (defined in
/// Opcodes.cpp). Indexed by the Mnemonic enumerator value; exposed so
/// opcodeInfo() inlines to a single indexed load — it sits on the encode
/// and parse hot paths and is consulted several times per instruction.
extern const OpcodeInfo OpcodeTable[static_cast<unsigned>(
    Mnemonic::NumMnemonics)];

/// Returns the static record for \p Mn.
inline const OpcodeInfo &opcodeInfo(Mnemonic Mn) {
  return OpcodeTable[static_cast<unsigned>(Mn)];
}

/// True for instructions that end or redirect straight-line execution.
inline bool isControlFlow(Mnemonic Mn) {
  EncKind K = opcodeInfo(Mn).Kind;
  return K == EncKind::Jmp || K == EncKind::Jcc || K == EncKind::Call ||
         K == EncKind::Ret;
}

} // namespace mao

#endif // MAO_X86_OPCODES_H
