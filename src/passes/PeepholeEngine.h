//===- passes/PeepholeEngine.h - Synthesized window rewrite rules -*- C++ -*-===//
///
/// \file
/// The table of synthesized peephole rules and the matcher that applies
/// them. The hand-written peepholes of paper Sec. III-B (ZEE, REDTEST,
/// REDMOV, ADDADD) are passes, code in PeepholePasses.cpp; this table
/// holds only the data `mao --synth` produces. Each row of
/// PeepholeRules.def (the Opcodes.def X-macro idiom) is one window rule:
/// an adjacent N -> M rewrite in a small template language
/// ("movq %A, %B ; movq %B, %A" -> "movq %A, %B") with an optional
/// dead-flags guard, plus a provenance tag. The synthesis loop proves a
/// rule sound (src/synth); the SYNTH pass only ever pattern-matches it.
///
/// The active table is the compiled-in PeepholeRules.def by default;
/// `--synth-rules=FILE` replaces it at runtime (the parser below reads the
/// same .def shape back). The tuner's ScoreCache and the artifact cache
/// key (api::Session::cacheKey) fold peepholeRuleDigest() in, so a changed
/// table can never serve stale scores or bytes.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_PASSES_PEEPHOLEENGINE_H
#define MAO_PASSES_PEEPHOLEENGINE_H

#include "analysis/Dataflow.h"
#include "ir/MaoUnit.h"
#include "support/Status.h"
#include "x86/Instruction.h"

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mao {

/// One operand of a window-rule template instruction.
struct TemplateOperand {
  enum class Kind : uint8_t { RegVar, Imm } K = Kind::Imm;
  unsigned Var = 0;  ///< RegVar: variable index (%A=0 .. %D=3).
  int64_t Value = 0; ///< Imm: literal value.
};

/// One instruction of a window-rule pattern or replacement.
struct TemplateInsn {
  Mnemonic Mn = Mnemonic::Invalid;
  Width W = Width::None;
  std::vector<TemplateOperand> Ops; ///< AT&T order, like Instruction::Ops.
};

/// Maximum register variables a window rule may bind.
constexpr unsigned MaxRuleVars = 4;

/// One row of the rule table.
struct PeepholeRule {
  std::string Name;        ///< Stable identifier (fire-counter key).
  std::string Pattern;     ///< Matched window, in the template language.
  std::string Guards;      ///< "" or "dead-flags:CF|OF" style.
  std::string Replacement; ///< Replacement sequence ("" erases the window).
  std::string Provenance;  ///< "synth:..." evidence; not in the digest.

  // Compiled form (see compilePeepholeRule).
  std::vector<TemplateInsn> Pat;
  std::vector<TemplateInsn> Rep;
  uint8_t DeadFlags = 0; ///< Status flags that must be dead after the window.
  unsigned NumVars = 0;  ///< Distinct register variables bound by Pat.

  /// Renders one compiled template sequence back to its canonical text
  /// ("movq %A, %B ; movq %B, %A"); used by the emitter and for display.
  static std::string renderTemplates(const std::vector<TemplateInsn> &Seq);
};

/// Parses a window-rule instruction-template sequence ("movq %A, %B ;
/// addq $1, %A"). Mnemonics are restricted to the straight-line reg/imm
/// vocabulary the synthesis prover handles.
MaoStatus parseTemplates(std::string_view Text,
                         std::vector<TemplateInsn> &Out);

/// Instantiates one template instruction with concrete super registers per
/// variable (each rendered at the instruction's width). Shared between the
/// matcher's rewriter and the synthesis prover/scorer.
Instruction renderTemplateInsn(const TemplateInsn &T,
                               const std::array<Reg, MaxRuleVars> &Bind);

/// True when \p Mn may appear in a window-rule template (the straight-line
/// reg/imm ALU vocabulary); the harvester's admission filter.
bool isWindowVocabMnemonic(Mnemonic Mn);

/// Compiles R.Pattern/R.Guards/R.Replacement into the matcher form
/// (Pat/Rep/DeadFlags/NumVars). Refuses a replacement that is not shorter
/// than its pattern: such a rule could rewrite its own output forever.
MaoStatus compilePeepholeRule(PeepholeRule &R);

/// Renders a window-rule guard column for \p DeadFlags ("" when zero,
/// "dead-flags:CF|OF" style otherwise); the inverse of the guard parser.
std::string renderWindowGuards(uint8_t DeadFlags);

/// The table the SYNTH pass matches: the compiled-in PeepholeRules.def,
/// unless loadSynthPeepholeRules replaced it.
const std::vector<PeepholeRule> &activePeepholeRules();

/// Replaces the active table with the rules of the given .def text. The
/// table is process-level: the driver loads it once at start-up
/// (--synth-rules), before anything parses, and every session in the
/// process then uses it. A maod daemon therefore cannot compute with a
/// client's table, which is why `mao --connect` runs --synth-rules
/// requests locally. Not thread-safe; call before running pipelines.
MaoStatus loadSynthPeepholeRules(const std::string &DefText);

/// Restores the compiled-in table.
void resetPeepholeRules();

/// FNV-1a digest of every active rule row (name, pattern, guards,
/// replacement). Folded into the tuner's ScoreCache key and the artifact
/// cache key.
uint64_t peepholeRuleDigest();

/// Parses .def text (the same shape renderPeepholeRulesDef writes) into
/// compiled rule rows. Lines outside MAO_PEEPHOLE_RULE(...) invocations
/// are ignored.
MaoStatus parsePeepholeRulesDef(const std::string &Text,
                                std::vector<PeepholeRule> &Out);

/// Renders the complete canonical PeepholeRules.def for \p Rules: header
/// comment plus one MAO_PEEPHOLE_RULE invocation per rule. The output
/// reparses to an equal table (the round-trip contract `mao --synth` and
/// SynthTest rely on).
std::string renderPeepholeRulesDef(const std::vector<PeepholeRule> &Rules);

/// The index of the first window of \p Insns, instructions of block \p
/// Block, that \p R's pattern matches and whose guard holds under \p Live;
/// Insns.size() when there is none. \p Bind receives the window's
/// registers, one super register per variable.
size_t findWindow(const PeepholeRule &R, const std::vector<EntryIter> &Insns,
                  const LivenessResult &Live, unsigned Block,
                  std::array<Reg, MaxRuleVars> &Bind);

/// Rewrites the window findWindow found at \p I into R's replacement,
/// erasing the instructions the replacement does not need from \p Unit
/// and from \p Insns.
void applyWindow(MaoUnit &Unit, const PeepholeRule &R,
                 std::vector<EntryIter> &Insns, size_t I,
                 const std::array<Reg, MaxRuleVars> &Bind);

} // namespace mao

#endif // MAO_PASSES_PEEPHOLEENGINE_H
