//===- passes/SimAddr.h - Forward/backward address simulation ---*- C++ -*-===//
///
/// \file
/// Instruction simulation for sampling-based race detection (paper
/// Sec. III-E-m, supporting the RACEZ workflow): given a PMU sample that
/// carries the register file at one instruction, simple forward and
/// backward simulation over the surrounding straight-line code recovers
/// the effective addresses of neighbouring memory operations, multiplying
/// the number of sampled addresses by 4.1x-6.3x without raising the
/// sampling frequency.
///
/// Only a small subset of instructions is interpreted (mov/add/sub/lea with
/// immediates and register copies); anything else invalidates the affected
/// registers — exactly the paper's "handling only a small subset of all
/// instructions".
///
//===----------------------------------------------------------------------===//

#ifndef MAO_PASSES_SIMADDR_H
#define MAO_PASSES_SIMADDR_H

#include "analysis/CFG.h"

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

namespace mao {

/// GPR register file snapshot attached to a sample; unknown entries are
/// nullopt (e.g. lightly populated snapshots from cheap sampling modes).
struct RegSnapshot {
  std::array<std::optional<int64_t>, NumGprSupers> Gpr;

  std::optional<int64_t> get(Reg R) const {
    if (!regIsGpr(R))
      return std::nullopt;
    return Gpr[gprSuperIndex(R)];
  }
  void set(Reg R, int64_t Value) {
    if (regIsGpr(R))
      Gpr[gprSuperIndex(R)] = Value;
  }
  void invalidate(Reg R) {
    if (regIsGpr(R))
      Gpr[gprSuperIndex(R)] = std::nullopt;
  }
};

/// One recovered effective address.
struct RecoveredAddress {
  const MaoEntry *Entry; ///< The memory instruction.
  int64_t Address;       ///< Computed effective address.
  bool FromSample;       ///< True for the sampled instruction itself.
};

/// Simulates forward and backward from the instruction at \p SampleIdx in
/// \p BB, whose register file at *entry to that instruction* is \p Snapshot.
/// Returns every memory-operand address that becomes computable.
/// \p Window bounds how far the simulation walks in each direction
/// (0 = to the block boundary); the RACEZ deployment used short windows.
std::vector<RecoveredAddress> simulateAddresses(const BasicBlock &BB,
                                                size_t SampleIdx,
                                                const RegSnapshot &Snapshot,
                                                unsigned Window = 0);

/// Computes the effective address of \p Insn's memory operand under
/// \p Regs; nullopt when a participating register is unknown or there is
/// no memory operand. RIP-relative and symbolic addresses are not
/// computable from a register snapshot.
std::optional<int64_t> effectiveAddress(const Instruction &Insn,
                                        const RegSnapshot &Regs);

} // namespace mao

#endif // MAO_PASSES_SIMADDR_H
