//===- x86/Instruction.h - The single instruction struct --------*- C++ -*-===//
///
/// \file
/// "Every possible x86 instruction [is encoded] into a single C struct type"
/// (paper Sec. II). Instruction is that struct: mnemonic, operation width,
/// condition code, operands in AT&T order, and a handful of attributes the
/// optimizer manipulates directly (NOP length, relaxed branch size).
///
/// InstructionEffects is the table-driven side-effect summary that the
/// simple dataflow apparatus consumes: which super registers and which
/// condition flags an instruction defines and uses, and whether it touches
/// memory.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_X86_INSTRUCTION_H
#define MAO_X86_INSTRUCTION_H

#include "x86/Opcodes.h"
#include "x86/Operand.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace mao {

/// Dense register mask: bits [0,16) are the GPR super registers RAX..R15,
/// bits [16,32) are XMM0..XMM15.
using RegMask = uint32_t;

/// Returns the RegMask bit for any register view (RIP yields 0).
RegMask regMaskBit(Reg R);

/// All GPRs clobbered by a call under the System V AMD64 ABI.
extern const RegMask CallClobberedMask;
/// GPRs that may carry arguments into a call (rdi,rsi,rdx,rcx,r8,r9,rsp).
extern const RegMask CallUsedMask;
/// Callee-visible registers a `ret` is conservatively said to use.
extern const RegMask RetUsedMask;

/// Side-effect summary of one instruction.
struct InstructionEffects {
  RegMask RegDefs = 0;
  RegMask RegUses = 0;
  uint8_t FlagsDef = 0;
  uint8_t FlagsUse = 0;
  bool MemRead = false;
  bool MemWrite = false;
  /// True when the instruction must not be reordered or reasoned across
  /// (opaque instructions, calls).
  bool Barrier = false;
};

/// One assembly instruction.
struct Instruction {
  Mnemonic Mn = Mnemonic::Invalid;
  Width W = Width::None;    ///< Operation width (b/w/l/q suffix).
  Width SrcW = Width::None; ///< Source width for movz/movs pairs.
  CondCode CC = CondCode::None;
  uint8_t NopLength = 1;    ///< Encoded length for NOP (1..15 bytes).
  /// Branch displacement size chosen by relaxation: 0 = not yet chosen,
  /// 1 = rel8, 4 = rel32. Calls are always rel32.
  uint8_t BranchSize = 0;
  OperandList Ops;          ///< AT&T order: sources first, destination last.

  const OpcodeInfo &info() const { return opcodeInfo(Mn); }

  /// The verbatim text of an Opaque instruction (makeOpaque keeps it in
  /// the Sym of a single None operand); "" for every other instruction.
  const std::string &rawText() const;

  bool isOpaque() const { return info().Kind == EncKind::Opaque; }
  bool isNop() const { return Mn == Mnemonic::NOP; }
  bool isCall() const { return info().Kind == EncKind::Call; }
  bool isReturn() const { return info().Kind == EncKind::Ret; }
  bool isUncondJump() const { return info().Kind == EncKind::Jmp; }
  bool isCondJump() const { return info().Kind == EncKind::Jcc; }
  bool isBranch() const { return isUncondJump() || isCondJump(); }
  /// True when straight-line execution cannot fall through this entry.
  bool endsStraightLine() const { return isUncondJump() || isReturn(); }
  /// True for instructions whose only architectural effect is writing the
  /// status flags (cmp/test/ucomis*): if the flags are dead, the whole
  /// instruction is dead.
  bool writesFlagsOnly() const {
    return info().Kind == EncKind::Test || Mn == Mnemonic::CMP ||
           Mn == Mnemonic::UCOMISS || Mn == Mnemonic::UCOMISD;
  }

  /// For branches/calls: the target operand (Symbol for direct targets,
  /// Register/Memory for indirect ones). Null for other instructions.
  const Operand *branchTarget() const;
  /// True for `jmp *%reg` / `jmp *mem` style targets.
  bool hasIndirectTarget() const;

  /// Returns the instruction's single memory operand, or null. (The modelled
  /// subset never has two memory operands.)
  const Operand *memOperand() const;
  Operand *memOperand();

  /// Computes the table-driven side-effect summary.
  InstructionEffects effects() const;

  /// Renders AT&T assembly text ("movl %eax, 4(%rsp)").
  std::string toString() const;
  /// Appends toString()'s text to \p Out without temporaries.
  void appendTo(std::string &Out) const;

  /// Returns the full mnemonic including width/cc suffix ("movl", "jne").
  std::string mnemonicText() const;
  /// Appends mnemonicText() to \p Out without a temporary.
  void appendMnemonicTo(std::string &Out) const;

  bool operator==(const Instruction &O) const = default;
};

/// How an explicit operand participates in its instruction.
enum class OperandRole : uint8_t { None, Read, Write, ReadWrite, Address };

/// The most explicit operands any modelled form has (3-operand imul).
constexpr size_t MaxRoleOperands = 3;
using OperandRoles = std::array<OperandRole, MaxRoleOperands>;

/// The role of each explicit operand, parallel to Insn.Ops, by encoding
/// kind: what effects() and the linter read. Kinds without data operands
/// (direct branches, ret, fixed forms, opaque text) give None throughout.
/// Implicit operands (rax/rdx of mul and div) are not listed.
OperandRoles operandRoles(const Instruction &Insn);

/// Convenience builders used throughout passes, tests and the workload
/// generator. All take operands in AT&T order.

/// Builds `Mn` with no operands.
Instruction makeInstr(Mnemonic Mn, Width W = Width::None);
/// Builds `Mn src, dst`.
Instruction makeInstr(Mnemonic Mn, Width W, Operand Src, Operand Dst);
/// Builds `Mn op`.
Instruction makeInstr(Mnemonic Mn, Width W, Operand Op);
/// Builds a direct jump/call to \p Label.
Instruction makeJump(const std::string &Label);
Instruction makeCondJump(CondCode CC, const std::string &Label);
Instruction makeCall(const std::string &Label);
/// Builds a NOP of \p Bytes encoded bytes (1..15).
Instruction makeNop(unsigned Bytes);
/// Builds an Opaque instruction that re-emits \p Text verbatim.
Instruction makeOpaque(std::string Text);

// The payload of a MaoEntry: with its 40-byte header a list entry stays
// within 160 bytes.
static_assert(sizeof(Instruction) <= 120, "Instruction grew past 120 bytes");

} // namespace mao

#endif // MAO_X86_INSTRUCTION_H
