//===- analysis/Summaries.h - Per-function ABI summaries --------*- C++ -*-===//
///
/// \file
/// Bottom-up interprocedural function summaries over the call graph: which
/// registers a function may clobber vs. provably preserves (including
/// callee-saved push/pop save-restore pairing), the net stack-pointer delta
/// reaching each `ret`, the maximum frame depth, leaf status, red-zone use,
/// and which argument registers the function may read. Summaries propagate
/// callee-first through the call graph's SCCs; recursive components iterate
/// a conservative fixpoint (a self call starts out as the architectural
/// clobber-everything model and can only stay or grow more precise across
/// rounds), and indirect or external calls always fall back to the
/// architectural System V AMD64 ABI assumption.
///
/// Consumers (the MaoCheck ABI rules, Lint.cpp) query the table through
/// callClobbers()/callReads(): the callee's summary when the call target
/// resolves to a modelled unit function, the ABI masks otherwise. That is
/// what lets a call stop being an opaque clobber-everything barrier.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_ANALYSIS_SUMMARIES_H
#define MAO_ANALYSIS_SUMMARIES_H

#include "analysis/CFG.h"
#include "analysis/CallGraph.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace mao {

/// Callee-saved GPRs under the System V AMD64 ABI: rbx, rbp, r12-r15.
extern const RegMask CalleeSavedMask;
/// Registers that may carry arguments: rdi,rsi,rdx,rcx,r8,r9 and xmm0-7.
extern const RegMask ArgRegsMask;
/// Registers carrying return values: rax, rdx, xmm0, xmm1.
extern const RegMask ReturnRegsMask;

/// Net bytes \p Insn pushes onto the stack: push, pop, and add/sub of a
/// constant to %rsp; 0 for a call (the callee pops the return address)
/// and anything that leaves %rsp alone; nullopt for any other write to
/// %rsp (mov, lea, leave, opaque). The frame walk here and the linter's
/// alignment rule share this one rule.
std::optional<int64_t> stackDelta(const Instruction &Insn);

/// What one function does to the machine state, as far as the analysis can
/// prove. The detail vectors carry pre-rendered, function-local fragments
/// the ABI lint rules wrap into findings.
struct FunctionSummary {
  /// True when every instruction was modellable; false falls back all
  /// consumers to the architectural call model.
  bool Known = false;
  /// Super registers whose value at `ret` may differ from entry, net of
  /// paired save/restore. The conservative default assumes an
  /// ABI-conformant callee.
  RegMask Clobbered = 0;
  /// Callee-saved supers proven preserved (untouched, or saved in the
  /// entry block and restored on every return path).
  RegMask Preserved = 0;
  /// Argument registers whose entry value may be read (directly or passed
  /// through to a callee that reads them).
  RegMask ArgsRead = 0;
  /// No calls, tail calls, or unattributable outward jumps.
  bool Leaf = true;
  /// The rsp delta was statically tracked on every reachable path.
  bool StackKnown = false;
  /// Valid when StackKnown: every `ret` executes at push depth 0.
  bool StackBalanced = false;
  /// Maximum tracked push depth in this function alone, in bytes.
  int64_t MaxFrameBytes = 0;
  /// Worst-case stack bytes including callees (return addresses counted);
  /// -1 when unbounded or unknown (recursion, indirect/external calls).
  int64_t MaxTotalFrameBytes = -1;
  /// Some instruction addresses memory below %rsp.
  bool UsesRedZone = false;

  /// "callee-saved %rbx is written by 'xorq %rbx, %rbx' ..." fragments.
  std::vector<std::string> CalleeSavedViolations;
  /// "'ret' in block #2 executes with 8 byte(s) still pushed" fragments.
  std::vector<std::string> StackViolations;
  /// "'movq %rax, -8(%rsp)' addresses the red zone" fragments; violations
  /// only when the function is not a leaf.
  std::vector<std::string> RedZoneSites;
};

class SummaryTable {
public:
  /// Computes summaries for every unit function, callee-first over \p CG's
  /// SCCs. \p Graphs must hold one built CFG per function, in the same
  /// index order as CG/Unit.functions().
  static SummaryTable compute(const CallGraph &CG, std::vector<CFG> &Graphs);

  const FunctionSummary &summary(unsigned FnIdx) const {
    return Summaries[FnIdx];
  }
  size_t size() const { return Summaries.size(); }

  /// Summary of the function \p Call targets, or nullptr when the target
  /// is indirect, external, or its summary is not Known.
  const FunctionSummary *calleeSummary(const Instruction &Call) const;

  /// Registers a caller must assume \p Call clobbers: the callee's summary
  /// (plus %r10/%r11 for @PLT calls — the lazy-binding stub) when known,
  /// the architectural CallClobberedMask otherwise.
  RegMask callClobbers(const Instruction &Call) const;

  /// Argument registers \p Call may read: the callee's ArgsRead when
  /// known, all of ArgRegsMask otherwise.
  RegMask callReads(const Instruction &Call) const;

private:
  const CallGraph *CG = nullptr;
  std::vector<FunctionSummary> Summaries;
};

} // namespace mao

#endif // MAO_ANALYSIS_SUMMARIES_H
