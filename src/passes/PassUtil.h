//===- passes/PassUtil.h - Shared helpers for optimization passes -*- C++ -*-===//
///
/// \file
/// Small utilities shared by the optimization passes: the kept
/// per-function analyses and common predicates over instructions.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_PASSES_PASSUTIL_H
#define MAO_PASSES_PASSUTIL_H

#include "ir/MaoUnit.h"
#include "pass/FunctionAnalyses.h"

namespace mao {

/// True for ALU operations whose ZF/SF/PF flags reflect the value written
/// to the destination (the precondition for removing a subsequent
/// `test r, r`).
inline bool flagsReflectResult(Mnemonic Mn) {
  switch (Mn) {
  case Mnemonic::ADD:
  case Mnemonic::SUB:
  case Mnemonic::AND:
  case Mnemonic::OR:
  case Mnemonic::XOR:
  case Mnemonic::NEG:
  case Mnemonic::INC:
  case Mnemonic::DEC:
  case Mnemonic::SHL:
  case Mnemonic::SHR:
  case Mnemonic::SAR:
    return true;
  default:
    return false;
  }
}

/// The destination register of \p Insn when it is a plain register (the
/// last operand); Reg::None otherwise.
inline Reg plainRegDest(const Instruction &Insn) {
  if (Insn.Ops.empty())
    return Reg::None;
  const Operand &Dst = Insn.Ops.back();
  return Dst.isReg() ? Dst.R : Reg::None;
}

} // namespace mao

#endif // MAO_PASSES_PASSUTIL_H
