//===- sim/Emulator.h - Architectural x86-64 interpreter --------*- C++ -*-===//
///
/// \file
/// A functional (architectural-state) interpreter for the modelled
/// instruction subset. Two roles in the reproduction:
///
///  1. Verification. The paper validates MAO by assembling before/after
///     outputs and diffing (Sec. III-A). For *transforming* passes we can
///     go further: run the program before and after the pass on the same
///     inputs and require identical architectural results. The emulator is
///     the oracle for those property tests.
///
///  2. Trace generation. The micro-architectural simulator (src/uarch) is
///     trace-driven; the emulator produces the dynamic instruction stream
///     (with branch outcomes implicit in the sequence) that the uarch model
///     consumes. It can also produce register-file snapshots for the
///     SIMADDR sampling experiments.
///
/// Execution interprets the IR entry list directly; instruction addresses
/// (when needed by the uarch model) come from relaxation results. What a
/// data instruction computes is not stated here: the run loop follows
/// jumps, calls and returns itself and hands every other instruction to
/// the shared interpreter of x86/Semantics.h over concrete values, the
/// same interpreter the symbolic evaluator (check/SymbolicEval) runs.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_SIM_EMULATOR_H
#define MAO_SIM_EMULATOR_H

#include "ir/MaoUnit.h"
#include "support/Status.h"

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

namespace mao {

/// Architectural machine state.
struct MachineState {
  std::array<uint64_t, NumGprSupers> Gpr{};
  std::array<uint64_t, 16> XmmLo{}; // Low 64 bits; enough for scalar SSE.
  bool CF = false, PF = false, AF = false, ZF = false, SF = false,
       OF = false;

  uint64_t &gpr(Reg R) { return Gpr[gprSuperIndex(R)]; }
  uint64_t gprValue(Reg R) const;   ///< Width-masked read of any GPR view.
  void setGpr(Reg R, uint64_t Value); ///< Width-correct write (merge/zext).

  /// Whole-state comparison, used by the differential table-consistency
  /// tests (check/ layer) to detect which flags an execution touched.
  bool operator==(const MachineState &) const = default;
};

/// Why execution stopped.
enum class StopReason {
  Returned,       ///< Top-level ret.
  StepLimit,      ///< Exceeded the configured budget.
  UnknownTarget,  ///< Branch/call to an unknown label.
  Unsupported,    ///< Opaque or unimplemented instruction reached.
  Error,          ///< Internal inconsistency (e.g. division by zero).
};

/// Result of one run.
struct EmulationResult {
  StopReason Reason = StopReason::Error;
  std::string Message;
  uint64_t InstructionsExecuted = 0;
  MachineState Final;
};

/// The interpreter.
class Emulator {
public:
  struct Config {
    uint64_t MaxSteps = 10'000'000;
    uint64_t StackBase = 0x7fff'0000'0000ULL; ///< Initial rsp (grows down).
    /// Invoked after each executed instruction (for tracing). Return false
    /// to stop execution early (reported as StepLimit).
    std::function<bool(const MaoEntry &, const MachineState &)> OnStep;
  };

  explicit Emulator(MaoUnit &Unit);

  /// Runs function \p Name from \p Initial state. Memory persists across
  /// runs on the same Emulator (intentional: set up inputs with store()).
  EmulationResult run(const std::string &Name, const MachineState &Initial,
                      const Config &Cfg);
  EmulationResult run(const std::string &Name, const MachineState &Initial);

  /// Direct memory access, little-endian.
  void store(uint64_t Address, uint64_t Value, unsigned Bytes);
  uint64_t load(uint64_t Address, unsigned Bytes) const;

private:
  MaoUnit &Unit;
  std::unordered_map<std::string, EntryIter> Labels;
  std::unordered_map<uint64_t, uint8_t> Memory;
};

} // namespace mao

#endif // MAO_SIM_EMULATOR_H
