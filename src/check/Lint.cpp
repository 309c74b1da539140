//===- check/Lint.cpp - Rule-based assembly linter ------------------------===//

#include "check/Lint.h"

#include "analysis/CFG.h"
#include "analysis/CallGraph.h"
#include "analysis/Dataflow.h"
#include "analysis/Summaries.h"
#include "support/FileIO.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <array>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <sstream>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

using namespace mao;

namespace {

/// Shared state handed to every rule for one function.
struct FnLintContext {
  MaoFunction &Fn;
  CFG &G;
  const LivenessResult &Live;
  /// Interprocedural summaries, or null for the clobber-everything model.
  const SummaryTable *Table;
  /// This function's index in the unit (== call-graph node index).
  unsigned FnIndex;
};

/// One buffered finding, pre-promotion. Rules run per function on worker
/// threads and append here; the sequential merge applies werror, baseline
/// suppression, counting, and emission in function order — which is what
/// keeps the finding set byte-identical for every Jobs value.
struct Finding {
  DiagSeverity Severity; // Warning or Note.
  DiagCode Code;
  std::string Message;
};

class FindingBuf {
public:
  explicit FindingBuf(std::vector<Finding> &Out) : Out(Out) {}
  void warn(DiagCode Code, std::string Message) {
    Out.push_back({DiagSeverity::Warning, Code, std::move(Message)});
  }
  void note(DiagCode Code, std::string Message) {
    Out.push_back({DiagSeverity::Note, Code, std::move(Message)});
  }

private:
  std::vector<Finding> &Out;
};

std::string blockName(const BasicBlock &B) {
  if (!B.Labels.empty())
    return "'" + B.Labels.front()->labelName() + "'";
  return "#" + std::to_string(B.Index);
}

const char *gprMaskName(unsigned Bit) {
  static const char *Names[] = {
      "rax",  "rcx",  "rdx",  "rbx",  "rsp",   "rbp",   "rsi",   "rdi",
      "r8",   "r9",   "r10",  "r11",  "r12",   "r13",   "r14",   "r15",
      "xmm0", "xmm1", "xmm2", "xmm3", "xmm4",  "xmm5",  "xmm6",  "xmm7",
      "xmm8", "xmm9", "xmm10", "xmm11", "xmm12", "xmm13", "xmm14", "xmm15"};
  return Names[Bit];
}

/// Supers readable at entry without a prior def: the six argument
/// registers, rax (vararg SSE count), rsp/rbp, the callee-saved set (a
/// read is how they get saved), and xmm0-7 (argument registers).
const RegMask EntryDefined =
    regMaskBit(Reg::RAX) | regMaskBit(Reg::RCX) | regMaskBit(Reg::RDX) |
    regMaskBit(Reg::RBX) | regMaskBit(Reg::RSP) | regMaskBit(Reg::RBP) |
    regMaskBit(Reg::RSI) | regMaskBit(Reg::RDI) | regMaskBit(Reg::R8) |
    regMaskBit(Reg::R9) | regMaskBit(Reg::R12) | regMaskBit(Reg::R13) |
    regMaskBit(Reg::R14) | regMaskBit(Reg::R15) |
    (0xffu << 16); // xmm0-7

//===----------------------------------------------------------------------===//
// R1: registers/flags directly read by an instruction before any definition
// reaches it, when the ABI does not define them at a call boundary (r10/r11
// are caller-clobbered scratch, xmm8-15 are argument-free and
// caller-clobbered, status flags are undefined). Computed as a forward
// definite-assignment fixpoint over direct instruction reads rather than
// backward liveness: an unresolved indirect jump makes liveness treat every
// register as live-in, which would drown the rule in false positives.
//
// Summary-sharpened: with interprocedural summaries a call defines only
// what its callee's summary clobbers, instead of everything — a register
// like %r10 that the callee provably leaves alone stays undefined across
// the call, so reads after the call are caught too.
//===----------------------------------------------------------------------===//

void ruleUseBeforeDef(const FnLintContext &C, FindingBuf &E) {
  const std::vector<BasicBlock> &Blocks = C.G.blocks();
  if (Blocks.empty())
    return;

  // Definitely-defined masks at block entry; meet is intersection over
  // predecessors, so the optimistic (all-defined) start descends to the
  // maximal fixpoint. Entry-unreachable blocks stay at top and report
  // nothing — the unreachable-block rule owns those.
  std::vector<RegMask> RegIn(Blocks.size(), ~RegMask(0));
  std::vector<uint8_t> FlagIn(Blocks.size(), FlagsAllStatus);
  RegIn[0] = EntryDefined;
  FlagIn[0] = 0;

  auto Transfer = [&C](const BasicBlock &B, RegMask &Regs, uint8_t &Flags,
                       RegMask *RegOffend, uint8_t *FlagOffend) {
    for (const EntryIter &It : B.Insns) {
      const Instruction &Insn = std::as_const(*It).instruction();
      const InstructionEffects Eff = Insn.effects();
      if (RegOffend)
        *RegOffend |= Eff.RegUses & ~Regs;
      if (FlagOffend)
        *FlagOffend |=
            Eff.FlagsUse & FlagsAllStatus & static_cast<uint8_t>(~Flags);
      if (C.Table && Insn.isCall()) {
        // Summary-sharpened call: defines its clobber set (the flags are
        // still architecturally left in *some* state).
        Regs |= C.Table->callClobbers(Insn);
        Flags = FlagsAllStatus;
        continue;
      }
      Regs |= Eff.RegDefs;
      Flags |= Eff.FlagsDef & FlagsAllStatus;
      // Calls and opaque instructions leave every register in *some*
      // state; treat everything as defined past them to stay quiet.
      if (Eff.Barrier) {
        Regs = ~RegMask(0);
        Flags = FlagsAllStatus;
      }
    }
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const BasicBlock &B : Blocks) {
      RegMask Regs = RegIn[B.Index];
      uint8_t Flags = FlagIn[B.Index];
      Transfer(B, Regs, Flags, nullptr, nullptr);
      for (unsigned S : B.Succs) {
        RegMask NewR = RegIn[S] & Regs;
        uint8_t NewF = FlagIn[S] & Flags;
        if (NewR != RegIn[S] || NewF != FlagIn[S]) {
          RegIn[S] = NewR;
          FlagIn[S] = NewF;
          Changed = true;
        }
      }
    }
  }

  RegMask RegOffenders = 0;
  uint8_t FlagOffenders = 0;
  for (const BasicBlock &B : Blocks) {
    RegMask Regs = RegIn[B.Index];
    uint8_t Flags = FlagIn[B.Index];
    Transfer(B, Regs, Flags, &RegOffenders, &FlagOffenders);
  }

  for (unsigned I = 0; I < 32; ++I)
    if (RegOffenders & (1u << I))
      E.warn(DiagCode::LintUseBeforeDef,
             "function '" + C.Fn.name() + "': register %" +
                 std::string(gprMaskName(I)) +
                 " is read before any definition (not defined at function "
                 "entry by the ABI)");
  if (FlagOffenders)
    E.warn(DiagCode::LintUseBeforeDef,
           "function '" + C.Fn.name() +
               "': status flags are read before any definition (flags: " +
               flagMaskToString(FlagOffenders) + ")");
}

//===----------------------------------------------------------------------===//
// R2: compare/test instructions whose flags nobody reads before the next
// flag definition — pure wasted work.
//===----------------------------------------------------------------------===//

void ruleDeadFlagWrite(const FnLintContext &C, FindingBuf &E) {
  for (const BasicBlock &B : C.G.blocks()) {
    InsnLiveness IL = perInstructionLiveness(C.G, B.Index, C.Live);
    for (size_t I = 0; I < B.Insns.size(); ++I) {
      const Instruction &Insn = std::as_const(*B.Insns[I]).instruction();
      if (!Insn.writesFlagsOnly())
        continue;
      uint8_t Defs = Insn.effects().FlagsDef & FlagsAllStatus;
      if (Defs && (Defs & IL.FlagsLiveAfter[I]) == 0)
        E.warn(DiagCode::LintDeadFlagWrite,
               "function '" + C.Fn.name() + "', block " + blockName(B) +
                   ": '" + Insn.toString() +
                   "' computes flags that are never read");
    }
  }
}

//===----------------------------------------------------------------------===//
// R3: blocks no path from the entry reaches. Skipped when the function has
// unresolved indirect branches (unknown edges could reach anything).
//===----------------------------------------------------------------------===//

void ruleUnreachable(const FnLintContext &C, FindingBuf &E) {
  if (C.Fn.HasUnresolvedIndirect || C.G.blocks().empty())
    return;
  std::vector<bool> Seen(C.G.blocks().size(), false);
  std::vector<unsigned> Work = {0};
  Seen[0] = true;
  while (!Work.empty()) {
    unsigned B = Work.back();
    Work.pop_back();
    for (unsigned S : C.G.blocks()[B].Succs)
      if (!Seen[S]) {
        Seen[S] = true;
        Work.push_back(S);
      }
  }
  for (const BasicBlock &B : C.G.blocks())
    if (!Seen[B.Index] && !B.isInert())
      E.warn(DiagCode::LintUnreachableBlock,
             "function '" + C.Fn.name() + "': block " + blockName(B) +
                 " is unreachable");
}

//===----------------------------------------------------------------------===//
// R4: call sites where the stack is provably misaligned. The SysV ABI makes
// %rsp ≡ 8 (mod 16) at function entry (the call pushed the return address
// onto an aligned stack) and requires %rsp ≡ 0 (mod 16) at every call, i.e.
// a known push-depth ≡ 8 (mod 16). Depth tracking is abandoned (not
// reported) at instructions that modify %rsp in unmodelled ways.
//===----------------------------------------------------------------------===//

void ruleStackAlignment(const FnLintContext &C, FindingBuf &E) {
  const auto &Blocks = C.G.blocks();
  if (Blocks.empty())
    return;
  constexpr int64_t Unknown = INT64_MIN;
  std::vector<int64_t> EntryDepth(Blocks.size(), INT64_MIN + 1); // unvisited
  EntryDepth[0] = 0;
  std::vector<unsigned> Work = {0};
  while (!Work.empty()) {
    unsigned BI = Work.back();
    Work.pop_back();
    int64_t Depth = EntryDepth[BI];
    for (EntryIter It : Blocks[BI].Insns) {
      if (!It->isInstruction())
        continue;
      const Instruction &Insn = std::as_const(*It).instruction();
      if (Depth != Unknown && Insn.isCall() && ((Depth % 16) + 16) % 16 != 8)
        E.warn(DiagCode::LintStackMisaligned,
               "function '" + C.Fn.name() + "', block " +
                   blockName(Blocks[BI]) + ": call '" + Insn.toString() +
                   "' with %rsp misaligned (push depth " +
                   std::to_string(Depth) + " bytes, need ≡ 8 mod 16)");
      if (Depth != Unknown) {
        auto Delta = stackDelta(Insn);
        Depth = Delta ? Depth + *Delta : Unknown;
      }
    }
    for (unsigned S : Blocks[BI].Succs) {
      if (EntryDepth[S] == INT64_MIN + 1) {
        EntryDepth[S] = Depth;
        Work.push_back(S);
      } else if (EntryDepth[S] != Depth) {
        // Conflicting depths at a join: stop checking downstream rather
        // than guessing.
        if (EntryDepth[S] != Unknown) {
          EntryDepth[S] = Unknown;
          Work.push_back(S);
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// R5/R6: partial-register hazards. A narrow (8/16-bit) register write
// merges into the old super-register value; a following wider read stalls
// on the merge (R5), and the merge itself carries a false dependency on the
// previous producer of the register when nothing in the block defined it
// (R6, informational).
//===----------------------------------------------------------------------===//

void rulePartialRegister(const FnLintContext &C, FindingBuf &E) {
  for (const BasicBlock &B : C.G.blocks()) {
    // Per super register: width of the last write in this block, or None.
    std::array<Width, 16> LastWrite;
    LastWrite.fill(Width::None);
    std::array<bool, 16> Written{};
    for (EntryIter It : B.Insns) {
      if (!It->isInstruction())
        continue;
      const Instruction &Insn = std::as_const(*It).instruction();
      if (Insn.isOpaque() || Insn.isCall()) {
        LastWrite.fill(Width::None);
        Written.fill(Insn.isCall());
        continue;
      }
      // Wide reads of a super last written narrowly -> stall (R5).
      auto CheckRead = [&](Reg R, Width ReadW) {
        if (!regIsGpr(R))
          return;
        unsigned S = gprSuperIndex(R);
        Width WW = LastWrite[S];
        if ((WW == Width::B || WW == Width::W) &&
            (ReadW == Width::L || ReadW == Width::Q))
          E.warn(DiagCode::LintPartialRegStall,
                 "function '" + C.Fn.name() + "', block " + blockName(B) +
                     ": '" + Insn.toString() + "' reads %" + regName(R) +
                     " after a narrow write to the same register "
                     "(partial-register stall)");
      };
      // Operand roles come from the x86 layer (operandRoles); implicit
      // operands, such as mul's rdx:rax, are not tracked.
      const OperandRoles Roles = operandRoles(Insn);
      auto RoleOf = [&](size_t I) {
        return I < MaxRoleOperands ? Roles[I] : OperandRole::None;
      };
      for (size_t I = 0; I < Insn.Ops.size(); ++I) {
        const Operand &Op = Insn.Ops[I];
        if (Op.isReg()) {
          if (RoleOf(I) != OperandRole::Write)
            CheckRead(Op.R, regWidth(Op.R));
        } else if (Op.isMem()) {
          if (Op.Mem.Base != Reg::None && Op.Mem.Base != Reg::RIP)
            CheckRead(Op.Mem.Base, Width::Q);
          if (Op.Mem.Index != Reg::None)
            CheckRead(Op.Mem.Index, Width::Q);
        }
      }
      for (size_t I = 0; I < Insn.Ops.size(); ++I) {
        const OperandRole Role = RoleOf(I);
        const Reg R = Insn.Ops[I].R;
        if (!Insn.Ops[I].isReg() || !regIsGpr(R) ||
            (Role != OperandRole::Write && Role != OperandRole::ReadWrite))
          continue;
        unsigned S = gprSuperIndex(R);
        Width WW = regWidth(R);
        bool Narrow = WW == Width::B || WW == Width::W || regIsHighByte(R);
        if (Narrow && !Written[S] && Role == OperandRole::Write)
          E.note(DiagCode::LintFalseDependency,
                 "function '" + C.Fn.name() + "', block " + blockName(B) +
                     ": '" + Insn.toString() + "' merges into %" +
                     regName(superReg(R)) +
                     " without a prior full-width definition (false "
                     "dependency; consider a zero-extending move)");
        LastWrite[S] = regIsHighByte(R) ? Width::B : WW;
        Written[S] = true;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// R7: unresolved-indirect-jump audit with per-function counts — the paper's
// Sec. II resolution experiment as structured linter output.
//===----------------------------------------------------------------------===//

/// Per-function buffered output of one parallel analysis job.
struct FnOutput {
  std::vector<Finding> Findings;
  unsigned IndirectTotal = 0;
  unsigned IndirectUnresolved = 0;
};

void ruleIndirectAudit(const FnLintContext &C, FindingBuf &E, FnOutput &Out) {
  const CFG::Stats &S = C.G.stats();
  unsigned Unresolved = C.G.unresolvedJumps().size();
  Out.IndirectTotal += S.IndirectJumps;
  Out.IndirectUnresolved += Unresolved;
  if (S.IndirectJumps == 0)
    return;
  if (Unresolved > 0)
    E.warn(DiagCode::LintUnresolvedIndirect,
           "function '" + C.Fn.name() + "': " + std::to_string(Unresolved) +
               " of " + std::to_string(S.IndirectJumps) +
               " indirect jumps unresolved (same-block: " +
               std::to_string(S.ResolvedSameBlock) +
               ", reaching-defs: " + std::to_string(S.ResolvedReachingDefs) +
               ")");
  else
    E.note(DiagCode::LintUnresolvedIndirect,
           "function '" + C.Fn.name() + "': all " +
               std::to_string(S.IndirectJumps) +
               " indirect jumps resolved (same-block: " +
               std::to_string(S.ResolvedSameBlock) +
               ", reaching-defs: " + std::to_string(S.ResolvedReachingDefs) +
               ")");
}

//===----------------------------------------------------------------------===//
// R8-R10: ABI conformance findings precomputed by the function summaries —
// callee-saved registers clobbered without save/restore pairing, net stack
// deltas reaching `ret` (or a tail call), and red-zone accesses in
// functions that call out (the callee's frame overlaps the red zone).
//===----------------------------------------------------------------------===//

void ruleAbiSummary(const FnLintContext &C, FindingBuf &E) {
  if (!C.Table)
    return;
  const FunctionSummary &S = C.Table->summary(C.FnIndex);
  if (!S.Known)
    return; // Opaque or non-converging: conservative silence.
  for (const std::string &V : S.CalleeSavedViolations)
    E.warn(DiagCode::LintCalleeSavedClobbered,
           "function '" + C.Fn.name() + "': " + V);
  for (const std::string &V : S.StackViolations)
    E.warn(DiagCode::LintUnbalancedStack,
           "function '" + C.Fn.name() + "': " + V);
  if (!S.Leaf)
    for (const std::string &V : S.RedZoneSites)
      E.warn(DiagCode::LintRedZoneNonLeaf,
             "function '" + C.Fn.name() + "': " + V +
                 " in a non-leaf function (a callee's frame may overwrite "
                 "the red zone)");
}

//===----------------------------------------------------------------------===//
// R11/R12: argument-value tracking at call sites. "Valid" registers hold a
// meaningful value: the ABI-defined set at entry, plus everything written;
// a call invalidates what it clobbers (minus the return registers). An
// argument register the callee may read that is invalid at the call site is
// dead on arrival (R11). A write to an argument register that nothing
// consumes before a call that clobbers it without reading it is a dead
// write (R12, requires a known callee summary).
//
// Without summaries (the clobber-everything model) every call invalidates
// all argument registers and is assumed to read all of them — the
// comparison baseline that the summary sharpening strictly improves on.
//===----------------------------------------------------------------------===//

void ruleArgValues(const FnLintContext &C, FindingBuf &E) {
  const std::vector<BasicBlock> &Blocks = C.G.blocks();
  if (Blocks.empty())
    return;

  auto CallClob = [&](const Instruction &Insn) -> RegMask {
    return C.Table ? C.Table->callClobbers(Insn) : CallClobberedMask;
  };
  auto CallRead = [&](const Instruction &Insn) -> RegMask {
    return C.Table ? C.Table->callReads(Insn) : ArgRegsMask;
  };

  std::vector<RegMask> In(Blocks.size(), ~RegMask(0));
  In[0] = EntryDefined;

  auto Transfer = [&](const BasicBlock &B, RegMask Valid,
                      bool Report) -> RegMask {
    // Last unconsumed write to each argument register in this block, for
    // the dead-write check (reset at block boundaries: conservative).
    std::array<const Instruction *, 32> LastArgWrite{};
    for (const EntryIter &It : B.Insns) {
      const Instruction &Insn = std::as_const(*It).instruction();
      const InstructionEffects Eff = Insn.effects();
      if (Insn.isCall()) {
        RegMask Reads = CallRead(Insn);
        RegMask Clob = CallClob(Insn);
        // With summaries, only a Known callee justifies a report (we can
        // prove it reads the register); an unknown callee's assumed
        // reads-all-args would be a false-positive firehose. Without
        // summaries every call is reported against the architectural
        // model — the comparison baseline.
        bool ReportReads = !C.Table || C.Table->calleeSummary(Insn);
        if (Report && ReportReads) {
          RegMask DeadArgs = Reads & ArgRegsMask & ~Valid;
          for (unsigned I = 0; I < 32; ++I)
            if (DeadArgs & (1u << I))
              E.warn(DiagCode::LintArgUndefinedAtCall,
                     "function '" + C.Fn.name() + "', block " + blockName(B) +
                         ": argument %" + gprMaskName(I) + " of '" +
                         Insn.toString() +
                         "' may hold a clobbered or undefined value");
          if (C.Table && C.Table->calleeSummary(Insn)) {
            RegMask DeadWrites = Clob & ~Reads & ArgRegsMask;
            for (unsigned I = 0; I < 32; ++I)
              if ((DeadWrites & (1u << I)) && LastArgWrite[I])
                E.note(DiagCode::LintDeadArgWrite,
                       "function '" + C.Fn.name() + "', block " +
                           blockName(B) + ": '" +
                           LastArgWrite[I]->toString() + "' writes %" +
                           gprMaskName(I) + " but '" + Insn.toString() +
                           "' neither reads nor preserves it (dead write)");
          }
        }
        Valid = (Valid & ~Clob) | ReturnRegsMask;
        LastArgWrite.fill(nullptr);
        continue;
      }
      if (Insn.isOpaque()) {
        Valid = ~RegMask(0);
        LastArgWrite.fill(nullptr);
        continue;
      }
      // Reads consume pending argument writes.
      for (unsigned I = 0; I < 32; ++I)
        if (Eff.RegUses & (1u << I))
          LastArgWrite[I] = nullptr;
      Valid |= Eff.RegDefs;
      RegMask ArgDefs = Eff.RegDefs & ArgRegsMask;
      for (unsigned I = 0; I < 32; ++I)
        if (ArgDefs & (1u << I))
          LastArgWrite[I] = &Insn;
    }
    return Valid;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const BasicBlock &B : Blocks) {
      RegMask Out = Transfer(B, In[B.Index], false);
      for (unsigned S : B.Succs) {
        RegMask Merged = In[S] & Out;
        if (Merged != In[S]) {
          In[S] = Merged;
          Changed = true;
        }
      }
    }
  }
  for (const BasicBlock &B : Blocks)
    Transfer(B, In[B.Index], true);
}

//===----------------------------------------------------------------------===//
// Baseline files: '#' comments and blank lines ignored; the first
// whitespace-delimited token of every other line is a 16-hex-digit
// diagFingerprint. Anything after the fingerprint is informational.
//===----------------------------------------------------------------------===//

bool loadBaseline(const std::string &Path,
                  std::unordered_set<uint64_t> &Out, std::string &Error) {
  std::string Text;
  if (!readWholeFile(Path, Text)) {
    Error = "cannot open baseline file '" + Path + "'";
    return false;
  }
  std::istringstream Lines(Text);
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(Lines, Line)) {
    ++LineNo;
    size_t Begin = Line.find_first_not_of(" \t\r");
    if (Begin == std::string::npos || Line[Begin] == '#')
      continue;
    size_t End = Line.find_first_of(" \t\r", Begin);
    std::string Token = Line.substr(
        Begin, End == std::string::npos ? std::string::npos : End - Begin);
    uint64_t Value = 0;
    if (Token.size() != 16 ||
        std::sscanf(Token.c_str(), "%16llx",
                    reinterpret_cast<unsigned long long *>(&Value)) != 1) {
      Error = "baseline file '" + Path + "', line " +
              std::to_string(LineNo) + ": expected a 16-hex-digit "
              "fingerprint, got '" + Token + "'";
      return false;
    }
    Out.insert(Value);
  }
  return true;
}

/// The rule name a DiagCode belongs to, for per-rule stats counters.
const char *ruleNameFor(DiagCode Code) {
  for (const LintRuleInfo &Rule : lintRules())
    if (Rule.Code == Code)
      return Rule.Name;
  return "internal";
}

/// Sequential merge stage: baseline suppression, werror promotion,
/// per-rule counters, the findings digest, and emission through the
/// DiagEngine — all in function order, independent of Jobs.
class Merger {
public:
  Merger(const LintOptions &Options, DiagEngine &Diags, LintResult &Result,
         const std::unordered_set<uint64_t> &Baseline)
      : Options(Options), Diags(Diags), Result(Result), Baseline(Baseline) {}

  void emit(Finding F) {
    uint64_t FP = diagFingerprint(F.Code, F.Message);
    All.push_back({FP, F.Code, F.Message});
    if (Baseline.count(FP)) {
      ++Result.Suppressed;
      StatsRegistry::instance().counter("lint.suppressed").add();
      return;
    }
    StatsRegistry::instance()
        .counter(std::string("lint.findings.") + ruleNameFor(F.Code))
        .add();
    Digest = (Digest ^ FP) * 1099511628211ull;
    SourceLoc Loc{Options.FileName, 0};
    if (F.Severity == DiagSeverity::Note) {
      ++Result.Notes;
      Diags.note(F.Code, std::move(F.Message), Loc, "lint");
    } else if (Options.WarningsAsErrors) {
      ++Result.Errors;
      Diags.error(F.Code, std::move(F.Message), Loc, "lint");
    } else {
      ++Result.Warnings;
      Diags.warning(F.Code, std::move(F.Message), Loc, "lint");
    }
  }

  void finish() { Result.FindingsDigest = Digest; }

  /// Writes every finding seen (suppressed or not) as a baseline file.
  bool writeBaseline(const std::string &Path, std::string &Error) const {
    std::string Text = "# mao lint baseline (fingerprint  rule: message)\n";
    for (const Entry &E : All)
      Text += diagFingerprintHex(E.Fingerprint) + "  " +
              diagCodeName(E.Code) + ": " + E.Message + "\n";
    if (writeWholeFile(Path, Text)) {
      Error = "cannot write baseline file '" + Path + "'";
      return false;
    }
    return true;
  }

private:
  struct Entry {
    uint64_t Fingerprint;
    DiagCode Code;
    std::string Message;
  };
  const LintOptions &Options;
  DiagEngine &Diags;
  LintResult &Result;
  const std::unordered_set<uint64_t> &Baseline;
  std::vector<Entry> All;
  uint64_t Digest = 1469598103934665603ull;
};

} // namespace

const std::vector<LintRuleInfo> &mao::lintRules() {
  static const std::vector<LintRuleInfo> Rules = {
      {"use-before-def", DiagCode::LintUseBeforeDef,
       "register or flag read with no prior definition"},
      {"dead-flag-write", DiagCode::LintDeadFlagWrite,
       "compare/test result never consumed"},
      {"unreachable-block", DiagCode::LintUnreachableBlock,
       "basic block unreachable from the function entry"},
      {"stack-misaligned", DiagCode::LintStackMisaligned,
       "call site with %rsp not 16-byte aligned"},
      {"partial-reg-stall", DiagCode::LintPartialRegStall,
       "wide read after narrow write of the same register"},
      {"false-dependency", DiagCode::LintFalseDependency,
       "narrow merge-write without prior full-width definition"},
      {"unresolved-indirect", DiagCode::LintUnresolvedIndirect,
       "indirect-jump resolution audit (paper Sec. II)"},
      {"callee-saved-clobbered", DiagCode::LintCalleeSavedClobbered,
       "callee-saved register written without save/restore pairing"},
      {"unbalanced-stack", DiagCode::LintUnbalancedStack,
       "net stack delta reaches ret or a tail call"},
      {"red-zone-nonleaf", DiagCode::LintRedZoneNonLeaf,
       "red-zone access in a function that calls out"},
      {"arg-undefined", DiagCode::LintArgUndefinedAtCall,
       "argument register dead on arrival at a call site"},
      {"dead-arg-write", DiagCode::LintDeadArgWrite,
       "argument write the callee neither reads nor preserves"},
  };
  return Rules;
}

LintResult mao::lintUnit(MaoUnit &Unit, const LintOptions &Options,
                         DiagEngine &Diags) {
  LintResult Result;
  try {
    std::unordered_set<uint64_t> Baseline;
    if (!Options.BaselinePath.empty()) {
      std::string Error;
      if (!loadBaseline(Options.BaselinePath, Baseline, Error)) {
        Result.InternalError = true;
        Result.InternalDetail = Error;
        return Result;
      }
    }

    std::vector<MaoFunction> &Fns = Unit.functions();
    size_t N = Fns.size();

    ThreadPool Pool(ThreadPool::resolveWorkers(Options.Jobs));

    // Stage 1 (parallel): CFG construction + indirect-jump resolution.
    std::vector<CFG> Graphs(N);
    Pool.parallelFor(N, [&](size_t I) {
      Graphs[I] = CFG::build(Fns[I]);
      resolveIndirectJumps(Graphs[I]);
    });

    // Stage 2 (sequential): call graph and bottom-up summaries.
    CallGraph CG;
    SummaryTable Table;
    if (Options.Interprocedural) {
      CG = CallGraph::build(Unit);
      Table = SummaryTable::compute(CG, Graphs);
    }

    // Stage 3 (parallel): per-function rules into per-function buffers.
    std::vector<FnOutput> Outputs(N);
    Pool.parallelFor(N, [&](size_t I) {
      LivenessResult Live = computeLiveness(Graphs[I]);
      FnLintContext C{Fns[I], Graphs[I], Live,
                      Options.Interprocedural ? &Table : nullptr,
                      static_cast<unsigned>(I)};
      FindingBuf E(Outputs[I].Findings);
      ruleUseBeforeDef(C, E);
      ruleDeadFlagWrite(C, E);
      ruleUnreachable(C, E);
      ruleStackAlignment(C, E);
      rulePartialRegister(C, E);
      ruleAbiSummary(C, E);
      ruleArgValues(C, E);
      ruleIndirectAudit(C, E, Outputs[I]);
    });

    // Stage 4 (sequential): ordered merge.
    Merger M(Options, Diags, Result, Baseline);
    for (FnOutput &O : Outputs) {
      Result.IndirectTotal += O.IndirectTotal;
      Result.IndirectUnresolved += O.IndirectUnresolved;
      for (Finding &F : O.Findings)
        M.emit(std::move(F));
    }
    if (Result.IndirectTotal > 0)
      M.emit({DiagSeverity::Note, DiagCode::LintUnresolvedIndirect,
              "unit: " + std::to_string(Result.IndirectUnresolved) + " of " +
                  std::to_string(Result.IndirectTotal) +
                  " indirect jumps unresolved"});
    M.finish();
    if (!Options.BaselineOutPath.empty()) {
      std::string Error;
      if (!M.writeBaseline(Options.BaselineOutPath, Error)) {
        Result.InternalError = true;
        Result.InternalDetail = Error;
      }
    }
  } catch (const std::exception &Ex) {
    Result.InternalError = true;
    Result.InternalDetail = Ex.what();
  } catch (...) {
    Result.InternalError = true;
    Result.InternalDetail = "unknown exception";
  }
  return Result;
}

int mao::lintExitCode(const LintResult &Result) {
  if (Result.InternalError)
    return 2;
  return Result.clean() ? 0 : 1;
}
