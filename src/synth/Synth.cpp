//===- synth/Synth.cpp - Superoptimizer peephole-rule synthesis -------------===//
///
/// \file
/// Implementation of the harvest -> canonicalize -> enumerate -> prove ->
/// score -> emit pipeline (see Synth.h for the stage contracts and the
/// determinism story).
///
//===----------------------------------------------------------------------===//

#include "synth/Synth.h"

#include "analysis/CFG.h"
#include "asm/Parser.h"
#include "check/SemanticValidator.h"
#include "check/SymbolicEval.h"
#include "support/ThreadPool.h"
#include "uarch/Runner.h"
#include "workload/Workload.h"
#include "x86/Registers.h"
#include "x86/X86Defs.h"

#include <algorithm>
#include <cctype>
#include <climits>
#include <map>

namespace mao {
namespace synth {

namespace {

/// Concrete super registers the prover and scorer assign to template
/// variables %A..%D. The proof generalizes to any distinct-GPR binding:
/// nothing in the window vocabulary treats a specific GPR specially.
constexpr std::array<Reg, MaxRuleVars> ProveBinding = {Reg::RDI, Reg::RSI,
                                                       Reg::RDX, Reg::RCX};

//===----------------------------------------------------------------------===//
// Harvest.
//===----------------------------------------------------------------------===//

/// True when \p Insn can appear in a canonical window: vocabulary
/// mnemonic, 32/64-bit, no condition code, and reg/imm operands only.
bool isSynthesizable(const Instruction &Insn) {
  if (!isWindowVocabMnemonic(Insn.Mn) || Insn.CC != CondCode::None)
    return false;
  if (Insn.W != Width::L && Insn.W != Width::Q)
    return false;
  if (Insn.Ops.empty() || Insn.Ops.size() > 2)
    return false;
  for (const Operand &Op : Insn.Ops) {
    if (Op.isReg()) {
      if (!regIsGpr(Op.R) || regWidth(Op.R) != Insn.W ||
          gprWithWidth(superReg(Op.R), Insn.W) != Op.R)
        return false;
    } else if (Op.isConstImm()) {
      if (Op.Imm < INT32_MIN || Op.Imm > INT32_MAX)
        return false;
    } else {
      return false;
    }
  }
  return true;
}

/// Canonicalizes BB.Insns[I..I+Len) by register renaming (first
/// appearance order -> %A, %B, ...). Returns false when the window mixes
/// widths or needs more than MaxRuleVars registers.
bool canonicalizeWindow(const BasicBlock &BB, size_t I, size_t Len,
                        std::vector<TemplateInsn> &Out) {
  Out.clear();
  std::array<Reg, MaxRuleVars> VarOf{};
  unsigned NumVars = 0;
  const Width W = std::as_const(*BB.Insns[I]).instruction().W;
  for (size_t K = 0; K < Len; ++K) {
    const Instruction &Insn = std::as_const(*BB.Insns[I + K]).instruction();
    if (Insn.W != W)
      return false;
    TemplateInsn T;
    T.Mn = Insn.Mn;
    T.W = Insn.W;
    for (const Operand &Op : Insn.Ops) {
      TemplateOperand TO;
      if (Op.isReg()) {
        const Reg Super = superReg(Op.R);
        unsigned Var = NumVars;
        for (unsigned V = 0; V < NumVars; ++V)
          if (VarOf[V] == Super)
            Var = V;
        if (Var == NumVars) {
          if (NumVars == MaxRuleVars)
            return false;
          VarOf[NumVars++] = Super;
        }
        TO.K = TemplateOperand::Kind::RegVar;
        TO.Var = Var;
      } else {
        TO.K = TemplateOperand::Kind::Imm;
        TO.Value = Op.Imm;
      }
      T.Ops.push_back(TO);
    }
    Out.push_back(std::move(T));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Prove.
//===----------------------------------------------------------------------===//

std::vector<Instruction>
renderConcrete(const std::vector<TemplateInsn> &Seq) {
  std::vector<Instruction> Out;
  Out.reserve(Seq.size());
  for (const TemplateInsn &T : Seq)
    Out.push_back(renderTemplateInsn(T, ProveBinding));
  return Out;
}

bool summaryIsPure(const BlockSummary &S) {
  return S.Supported && S.Stores.empty() && S.Calls.empty() &&
         S.Opaques.empty() && S.Term.Kind == TermKind::Fallthrough;
}

//===----------------------------------------------------------------------===//
// Verify (SemanticValidator embedding).
//===----------------------------------------------------------------------===//

struct FlagProbe {
  uint8_t Bit;
  const char *Setcc;
};
/// AF has no setcc encoding and stays covered by the symbolic oracle.
constexpr FlagProbe FlagProbes[] = {{FlagCF, "setb"},
                                    {FlagPF, "setp"},
                                    {FlagZF, "sete"},
                                    {FlagSF, "sets"},
                                    {FlagOF, "seto"}};

std::string embeddingFunction(const std::vector<TemplateInsn> &Seq,
                              unsigned NumVars, uint8_t DeadFlags) {
  std::string Body = "\t.text\n\t.type synth_check, @function\nsynth_check:\n";
  for (const Instruction &Insn : renderConcrete(Seq))
    Body += "\t" + Insn.toString() + "\n";
  // Make every bound register observable through a store...
  for (unsigned V = 0; V < NumVars; ++V)
    Body += "\tmovq %" + std::string(regName(ProveBinding[V])) + ", -" +
            std::to_string(8 * (V + 1)) + "(%rsp)\n";
  // ...and every unguarded status flag through setcc + store.
  int Slot = 64;
  for (const FlagProbe &P : FlagProbes) {
    if (DeadFlags & P.Bit)
      continue;
    Body += "\t" + std::string(P.Setcc) + " %r10b\n";
    Body += "\tmovb %r10b, -" + std::to_string(Slot++) + "(%rsp)\n";
  }
  Body += "\tret\n\t.size synth_check, .-synth_check\n";
  return Body;
}

//===----------------------------------------------------------------------===//
// Score.
//===----------------------------------------------------------------------===//

std::string scoringHarness(const std::vector<TemplateInsn> &Seq,
                           uint64_t Iterations) {
  std::string Text = "\t.text\n\t.globl bench_main\n"
                     "\t.type bench_main, @function\nbench_main:\n";
  Text += "\tmovq $" + std::to_string(Iterations) + ", %r15\n";
  const int64_t Seeds[MaxRuleVars] = {17, 29, 43, 57};
  for (unsigned V = 0; V < MaxRuleVars; ++V)
    Text += "\tmovq $" + std::to_string(Seeds[V]) + ", %" +
            std::string(regName(ProveBinding[V])) + "\n";
  Text += ".Lsynth_loop:\n";
  for (const Instruction &Insn : renderConcrete(Seq))
    Text += "\t" + Insn.toString() + "\n";
  Text += "\tsubq $1, %r15\n\tjne .Lsynth_loop\n";
  Text += "\tmovq $0, %rax\n\tret\n\t.size bench_main, .-bench_main\n";
  return Text;
}

//===----------------------------------------------------------------------===//
// Per-window pipeline (one fault-safe shard).
//===----------------------------------------------------------------------===//

struct WindowOutcome {
  bool HasRule = false;
  bool Failed = false; ///< Shard threw; window dropped.
  SynthRule Rule;      ///< Rule.Name assigned at merge time.
  uint64_t Tried = 0;
  uint64_t Proven = 0;
  uint64_t Verified = 0;
  uint64_t Scored = 0;
};

PeepholeRule makeWindowRule(const std::vector<TemplateInsn> &Pattern,
                            const std::vector<TemplateInsn> &Replacement,
                            uint8_t DeadFlags) {
  PeepholeRule R;
  R.Name = "SYN_TMP";
  R.Group = "synth";
  R.Strategy = RuleStrategy::Window;
  R.Pattern = PeepholeRule::renderTemplates(Pattern);
  R.Guards = renderWindowGuards(DeadFlags);
  R.Replacement = PeepholeRule::renderTemplates(Replacement);
  const MaoStatus S = compilePeepholeRule(R);
  (void)S; // By construction: rendered from compiled templates.
  return R;
}

WindowOutcome processWindow(const HarvestedWindow &HW,
                            const SynthOptions &Options) {
  WindowOutcome Out;
  Out.Rule.Support = HW.Support;

  struct ProvenCandidate {
    std::vector<TemplateInsn> Rep;
    uint8_t DeadFlags = 0;
  };
  std::vector<ProvenCandidate> Survivors;
  const std::vector<std::vector<TemplateInsn>> Candidates =
      enumerateCandidates(HW.Insns);
  Out.Tried = Candidates.size();
  for (const std::vector<TemplateInsn> &Cand : Candidates) {
    uint8_t DeadFlags = 0;
    if (!proveWindowRewrite(HW.Insns, Cand, DeadFlags))
      continue;
    ++Out.Proven;
    const PeepholeRule R = makeWindowRule(HW.Insns, Cand, DeadFlags);
    if (!verifyRuleWithValidator(R).ok())
      continue;
    ++Out.Verified;
    Survivors.push_back({Cand, DeadFlags});
    if (Survivors.size() >= 8) // Scoring budget per window.
      break;
  }
  if (Survivors.empty())
    return Out;

  Out.Scored = 1;
  const ErrorOr<uint64_t> Before =
      scoreWindowCycles(HW.Insns, Options.Config, Options.LoopIterations);
  if (!Before.ok())
    return Out;
  uint64_t BestCycles = *Before;
  const ProvenCandidate *Best = nullptr;
  for (const ProvenCandidate &PC : Survivors) {
    const ErrorOr<uint64_t> After =
        scoreWindowCycles(PC.Rep, Options.Config, Options.LoopIterations);
    if (!After.ok())
      continue;
    if (*After < BestCycles) { // Strict win only; ties keep the original.
      BestCycles = *After;
      Best = &PC;
    }
  }
  if (!Best)
    return Out;
  Out.HasRule = true;
  Out.Rule.Rule = makeWindowRule(HW.Insns, Best->Rep, Best->DeadFlags);
  Out.Rule.CyclesBefore = *Before;
  Out.Rule.CyclesAfter = BestCycles;
  return Out;
}

std::string upperMnemonicTag(const TemplateInsn &T) {
  std::string Tag = opcodeInfo(T.Mn).Name;
  Tag += widthSuffix(T.W);
  for (char &C : Tag)
    C = static_cast<char>(std::toupper(static_cast<unsigned char>(C)));
  return Tag;
}

} // namespace

std::vector<HarvestedWindow>
harvestWindows(const std::vector<std::pair<std::string, std::string>> &Corpus,
               unsigned MaxWindow, SynthStats *Stats) {
  std::map<std::string, HarvestedWindow> Unique;
  uint64_t Harvested = 0;
  for (const auto &[Name, Text] : Corpus) {
    ErrorOr<MaoUnit> UnitOr = parseAssembly(Text, nullptr, Name);
    if (!UnitOr.ok())
      continue;
    MaoUnit Unit = UnitOr.take();
    for (MaoFunction &Fn : Unit.functions()) {
      CFG Graph = CFG::build(Fn);
      for (const BasicBlock &BB : Graph.blocks()) {
        for (size_t I = 0; I < BB.Insns.size(); ++I) {
          for (size_t Len = 1; Len <= MaxWindow; ++Len) {
            if (I + Len > BB.Insns.size())
              break;
            bool AllOk = true;
            for (size_t K = 0; K < Len; ++K)
              AllOk = AllOk &&
                      isSynthesizable(
                          std::as_const(*BB.Insns[I + K]).instruction());
            if (!AllOk)
              break;
            std::vector<TemplateInsn> Canon;
            if (!canonicalizeWindow(BB, I, Len, Canon))
              continue;
            ++Harvested;
            const std::string Key = PeepholeRule::renderTemplates(Canon);
            HarvestedWindow &HW = Unique[Key];
            if (HW.Insns.empty())
              HW.Insns = std::move(Canon);
            ++HW.Support;
          }
        }
      }
    }
  }
  std::vector<HarvestedWindow> Out;
  Out.reserve(Unique.size());
  for (auto &[Key, HW] : Unique)
    Out.push_back(std::move(HW)); // Map order: sorted by canonical text.
  if (Stats) {
    Stats->WindowsHarvested += Harvested;
    Stats->UniqueWindows += Out.size();
  }
  return Out;
}

std::vector<std::vector<TemplateInsn>>
enumerateCandidates(const std::vector<TemplateInsn> &Window) {
  std::vector<std::vector<TemplateInsn>> Out;
  if (Window.empty())
    return Out;
  const Width W = Window[0].W;
  unsigned NumVars = 0;
  std::vector<int64_t> Imms = {0, 1};
  for (const TemplateInsn &T : Window)
    for (const TemplateOperand &O : T.Ops) {
      if (O.K == TemplateOperand::Kind::RegVar)
        NumVars = std::max(NumVars, O.Var + 1);
      else if (std::find(Imms.begin(), Imms.end(), O.Value) == Imms.end())
        Imms.push_back(O.Value);
    }
  std::sort(Imms.begin(), Imms.end());

  // Length 0: erase the window.
  Out.emplace_back();
  if (Window.size() < 2)
    return Out;

  // Length 1: one instruction over the window's registers and constants.
  auto RegOp = [&](unsigned V) {
    TemplateOperand O;
    O.K = TemplateOperand::Kind::RegVar;
    O.Var = V;
    return O;
  };
  auto ImmOp = [&](int64_t Value) {
    TemplateOperand O;
    O.K = TemplateOperand::Kind::Imm;
    O.Value = Value;
    return O;
  };
  auto TwoOp = [&](Mnemonic Mn, TemplateOperand Src, TemplateOperand Dst) {
    TemplateInsn T;
    T.Mn = Mn;
    T.W = W;
    T.Ops = {Src, Dst};
    return T;
  };
  constexpr Mnemonic TwoOpMnems[] = {Mnemonic::MOV, Mnemonic::ADD,
                                     Mnemonic::SUB, Mnemonic::AND,
                                     Mnemonic::OR,  Mnemonic::XOR};
  constexpr Mnemonic OneOpMnems[] = {Mnemonic::NEG, Mnemonic::NOT,
                                     Mnemonic::INC, Mnemonic::DEC};
  for (const Mnemonic Mn : TwoOpMnems)
    for (unsigned Dst = 0; Dst < NumVars; ++Dst) {
      for (unsigned Src = 0; Src < NumVars; ++Src) {
        if (Mn == Mnemonic::MOV && Src == Dst)
          continue; // Identity move; the empty candidate subsumes it.
        Out.push_back({TwoOp(Mn, RegOp(Src), RegOp(Dst))});
      }
      for (const int64_t Value : Imms)
        Out.push_back({TwoOp(Mn, ImmOp(Value), RegOp(Dst))});
    }
  for (const Mnemonic Mn : OneOpMnems)
    for (unsigned Dst = 0; Dst < NumVars; ++Dst) {
      TemplateInsn T;
      T.Mn = Mn;
      T.W = W;
      T.Ops = {RegOp(Dst)};
      Out.push_back({T});
    }
  return Out;
}

bool proveWindowRewrite(const std::vector<TemplateInsn> &Window,
                        const std::vector<TemplateInsn> &Candidate,
                        uint8_t &DeadFlags) {
  DeadFlags = 0;
  const std::vector<Instruction> A = renderConcrete(Window);
  const std::vector<Instruction> B = renderConcrete(Candidate);
  auto Pointers = [](const std::vector<Instruction> &Seq) {
    std::vector<const Instruction *> P;
    P.reserve(Seq.size());
    for (const Instruction &Insn : Seq)
      P.push_back(&Insn);
    return P;
  };
  SymTable Table;
  BlockEvaluator Eval(Table);
  const BlockSummary SA = Eval.evaluate(Pointers(A));
  const BlockSummary SB = Eval.evaluate(Pointers(B));
  if (!summaryIsPure(SA) || !summaryIsPure(SB))
    return false;
  for (unsigned R = 0; R < NumDenseRegs; ++R)
    if (SA.Regs[R] != SB.Regs[R])
      return false;
  for (unsigned F = 0; F < NumStatusFlags; ++F)
    if (SA.Flags[F] != SB.Flags[F])
      DeadFlags |= static_cast<uint8_t>(1u << F);
  return true;
}

MaoStatus verifyRuleWithValidator(const PeepholeRule &R) {
  if (R.Strategy != RuleStrategy::Window)
    return MaoStatus::error(R.Name + ": only Window rules are verifiable");
  const std::string BeforeText =
      embeddingFunction(R.Pat, R.NumVars, R.DeadFlags);
  const std::string AfterText =
      embeddingFunction(R.Rep, R.NumVars, R.DeadFlags);
  ErrorOr<MaoUnit> Before = parseAssembly(BeforeText, nullptr, "before.s");
  if (!Before.ok())
    return MaoStatus::error(R.Name + ": embedding parse: " +
                            Before.message());
  ErrorOr<MaoUnit> After = parseAssembly(AfterText, nullptr, "after.s");
  if (!After.ok())
    return MaoStatus::error(R.Name + ": embedding parse: " + After.message());
  const ValidationReport Report = validateSemantics(*Before, *After);
  if (!Report.Equivalent)
    return MaoStatus::error(R.Name +
                            ": validator divergence: " + Report.firstMessage());
  return MaoStatus::success();
}

MaoStatus verifyActiveSynthRules(std::string *Detail) {
  unsigned Checked = 0;
  for (const PeepholeRule &R : activePeepholeRules()) {
    if (R.Group != "synth")
      continue;
    ++Checked;
    if (R.Strategy != RuleStrategy::Window)
      return MaoStatus::error(R.Name + ": synth rules must be Window rules");
    uint8_t Derived = 0;
    if (!proveWindowRewrite(R.Pat, R.Rep, Derived))
      return MaoStatus::error(R.Name + ": symbolic oracle rejects the rule");
    if (Derived & ~R.DeadFlags)
      return MaoStatus::error(
          R.Name + ": guard too weak: derived " +
          renderWindowGuards(Derived) + " vs committed " +
          renderWindowGuards(R.DeadFlags));
    if (MaoStatus S = verifyRuleWithValidator(R); !S.ok())
      return S;
  }
  if (Detail)
    *Detail = std::to_string(Checked) + " synth rule(s) re-proven";
  return MaoStatus::success();
}

ErrorOr<uint64_t> scoreWindowCycles(const std::vector<TemplateInsn> &Seq,
                                    const std::string &Config,
                                    uint64_t Iterations) {
  const std::optional<ProcessorConfig> Model = ProcessorConfig::byName(Config);
  if (!Model)
    return MaoStatus::error("unknown processor config '" + Config + "'");
  MeasureOptions MO;
  MO.Config = *Model;
  ErrorOr<MaoUnit> UnitOr =
      parseAssembly(scoringHarness(Seq, Iterations), nullptr, "harness.s");
  if (!UnitOr.ok())
    return MaoStatus::error("scoring harness parse: " + UnitOr.message());
  MaoUnit Unit = UnitOr.take();
  return scoreFunctionCycles(Unit, "bench_main", MO);
}

ErrorOr<SynthResult> synthesizeRules(const SynthOptions &Options) {
  if (Options.MaxWindow < 1 || Options.MaxWindow > 3)
    return MaoStatus::error("--synth-window must be 1..3");
  if (!ProcessorConfig::byName(Options.Config))
    return MaoStatus::error("unknown processor config '" + Options.Config +
                            "'");

  SynthResult Result;
  std::vector<std::pair<std::string, std::string>> Corpus = Options.Corpus;
  if (Options.IncludeWorkloads)
    Corpus.emplace_back(
        "workload:google",
        generateWorkloadAssembly(googleCorpusProfile(/*Scale=*/0.25)));
  Result.Stats.CorpusFiles = Corpus.size();

  const std::vector<HarvestedWindow> Windows =
      harvestWindows(Corpus, Options.MaxWindow, &Result.Stats);

  // Fan the windows out; each shard is fault-contained and writes only its
  // own slot, so the merge below is independent of the worker count.
  std::vector<WindowOutcome> Slots(Windows.size());
  ThreadPool Pool(std::max(1u, Options.Jobs));
  Pool.parallelFor(Windows.size(), [&](size_t I) {
    try {
      Slots[I] = processWindow(Windows[I], Options);
    } catch (...) {
      Slots[I] = WindowOutcome();
      Slots[I].Failed = true;
    }
  });

  std::vector<SynthRule> Winners;
  for (const WindowOutcome &Out : Slots) {
    Result.Stats.CandidatesTried += Out.Tried;
    Result.Stats.CandidatesProven += Out.Proven;
    Result.Stats.CandidatesVerified += Out.Verified;
    Result.Stats.RulesScored += Out.Scored;
    if (Out.Failed)
      ++Result.Stats.ShardFailures;
    if (Out.HasRule)
      Winners.push_back(Out.Rule);
  }

  // Keep the best-supported rules, then emit in canonical pattern order.
  std::stable_sort(Winners.begin(), Winners.end(),
                   [](const SynthRule &L, const SynthRule &R) {
                     if (L.Support != R.Support)
                       return L.Support > R.Support;
                     return L.Rule.Pattern < R.Rule.Pattern;
                   });
  if (Winners.size() > Options.MaxRules)
    Winners.resize(Options.MaxRules);
  std::sort(Winners.begin(), Winners.end(),
            [](const SynthRule &L, const SynthRule &R) {
              return L.Rule.Pattern < R.Rule.Pattern;
            });

  // Deterministic names + provenance.
  std::vector<std::string> Taken;
  for (SynthRule &SR : Winners) {
    std::string Base = "SYN";
    for (const TemplateInsn &T : SR.Rule.Pat)
      Base += "_" + upperMnemonicTag(T);
    std::string Name = Base;
    for (unsigned Tie = 2;
         std::find(Taken.begin(), Taken.end(), Name) != Taken.end(); ++Tie)
      Name = Base + "_" + std::to_string(Tie);
    Taken.push_back(Name);
    SR.Rule.Name = Name;
    // "maosynth" names the synthesizer in every emitted table, the
    // committed one included; it stays so regenerated tables keep their
    // bytes.
    SR.Rule.Provenance =
        "synth:maosynth seed=" + std::to_string(Options.Seed) +
        " support=" + std::to_string(SR.Support) +
        " win=" + std::to_string(SR.CyclesBefore) + "->" +
        std::to_string(SR.CyclesAfter);
  }
  Result.Stats.RulesEmitted = Winners.size();
  Result.Rules = std::move(Winners);

  // Render the complete table: compiled-in strategy rules + the winners.
  std::vector<PeepholeRule> Table;
  for (const PeepholeRule &R : builtinPeepholeRules())
    if (R.Group != "synth")
      Table.push_back(R);
  for (const SynthRule &SR : Result.Rules)
    Table.push_back(SR.Rule);
  Result.TableText = renderPeepholeRulesDef(Table);
  return Result;
}

} // namespace synth
} // namespace mao
