//===- passes/PeepholeEngine.h - Table-driven peephole rewriting -*- C++ -*-===//
///
/// \file
/// The table-driven peephole rewrite engine. Every peephole the pipeline
/// can apply — the four hand-written patterns of paper Sec. III-B and any
/// number of superoptimizer-synthesized window rewrites — lives as one row
/// of PeepholeRules.def (the Opcodes.def X-macro idiom): name, group,
/// strategy, pattern, preconditions, replacement, and a provenance tag.
/// The pass classes in PeepholePasses.cpp are thin shims that run the
/// engine over one rule group; adding a rule is a table edit, not new
/// matcher code.
///
/// Two rule families:
///
///  - Strategy rules (EraseZeroExtend, EraseRedundantTest, ForwardLoad,
///    FoldImmChain) parameterize a built-in matching algorithm; their
///    pattern/guard/replacement columns document the shape for provenance
///    queries and the table digest.
///  - Window rules describe a generic adjacent N -> M rewrite in a small
///    template language ("movq %A, %B ; movq %B, %A" -> "movq %A, %B")
///    with an optional dead-flags precondition. This is the format
///    `mao --synth` emits: the synthesis loop proves a window rewrite sound
///    (src/synth), and the engine only ever has to pattern-match it.
///
/// The active table is the compiled-in PeepholeRules.def by default;
/// `--synth-rules=FILE` swaps the synth group at runtime (the parser below
/// reads the same .def shape back). The tuner's ScoreCache and the
/// artifact cache key (api::Session::cacheKey) fold peepholeRuleDigest()
/// in, so a changed table can never serve stale scores or bytes.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_PASSES_PEEPHOLEENGINE_H
#define MAO_PASSES_PEEPHOLEENGINE_H

#include "ir/MaoUnit.h"
#include "support/Status.h"
#include "x86/Instruction.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace mao {

class StatCounter;

/// How a rule's pattern/replacement columns are interpreted.
enum class RuleStrategy : uint8_t {
  EraseZeroExtend,   ///< ZEE: erase `movl %rX, %rX` after a 32-bit def.
  EraseRedundantTest,///< REDTEST: erase `test %r, %r` after a result ALU op.
  ForwardLoad,       ///< REDMOV: rewrite a repeated load to a reg-reg move.
  FoldImmChain,      ///< ADDADD: fold `add $i, r ; ... ; add $j, r`.
  Window,            ///< Generic adjacent N -> M template rewrite.
};

/// Renders the strategy as its .def spelling ("Window", ...).
const char *ruleStrategyName(RuleStrategy S);

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
  std::string Group;       ///< Pass group: "zee", "redtest", ..., "synth".
  RuleStrategy Strategy = RuleStrategy::Window;
  std::string Pattern;     ///< Matched shape (compiled for Window rules).
  std::string Guards;      ///< Preconditions ("dead-flags:CF|OF" for Window).
  std::string Replacement; ///< Replacement shape ("" erases the window).
  std::string Provenance;  ///< "hand:..." or "synth:...".

  // Compiled form (Window rules only; see compilePeepholeRule).
  std::vector<TemplateInsn> Pat;
  std::vector<TemplateInsn> Rep;
  uint8_t DeadFlags = 0; ///< Status flags that must be dead after the window.
  unsigned NumVars = 0;  ///< Distinct register variables bound by Pat.

  /// The rule's `peep.fire.<Name>` counter, resolved by the engine on the
  /// rule's first fire, so a rule that never fires registers no counter.
  /// A copy starts unresolved (its Name may be edited).
  struct FireCounterSlot {
    FireCounterSlot() = default;
    FireCounterSlot(const FireCounterSlot &) noexcept {}
    FireCounterSlot &operator=(const FireCounterSlot &) noexcept {
      Counter.store(nullptr, std::memory_order_relaxed);
      return *this;
    }
    mutable std::atomic<StatCounter *> Counter{nullptr};
  } Fires;

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
/// engine's rewriter and the synthesis prover/scorer.
Instruction renderTemplateInsn(const TemplateInsn &T,
                               const std::array<Reg, MaxRuleVars> &Bind);

/// True when \p Mn may appear in a window-rule template (the straight-line
/// reg/imm ALU vocabulary); the harvester's admission filter.
bool isWindowVocabMnemonic(Mnemonic Mn);

/// Compiles R.Pattern/R.Guards/R.Replacement into the matcher form
/// (Pat/Rep/DeadFlags/NumVars). No-op for non-Window strategies.
MaoStatus compilePeepholeRule(PeepholeRule &R);

/// Renders a window-rule guard column for \p DeadFlags ("" when zero,
/// "dead-flags:CF|OF" style otherwise); the inverse of the guard parser.
std::string renderWindowGuards(uint8_t DeadFlags);

/// The compiled-in table (PeepholeRules.def), in file order.
const std::vector<PeepholeRule> &builtinPeepholeRules();

/// The table the engine currently matches against: the built-ins, unless
/// loadSynthPeepholeRules replaced the synth group.
const std::vector<PeepholeRule> &activePeepholeRules();

/// Replaces the active table's "synth" group with the synth-group rules of
/// the given .def text (hand-rule rows in the text are ignored — the
/// strategy rules always come from the compiled-in table). The table is
/// process-level: the driver loads it once at start-up (--synth-rules),
/// before anything parses, and every session in the process then uses it.
/// A maod daemon therefore cannot compute with a client's table, which is
/// why `mao --connect` runs --synth-rules requests locally. Not
/// thread-safe; call before running pipelines.
MaoStatus loadSynthPeepholeRules(const std::string &DefText);

/// Restores the compiled-in table.
void resetPeepholeRules();

/// FNV-1a digest of every active rule row (name, group, strategy, pattern,
/// guards, replacement). Folded into the tuner's ScoreCache key and the
/// artifact cache key.
uint64_t peepholeRuleDigest();

/// Parses .def text (the same shape renderPeepholeRulesDef writes) into
/// rule rows, compiling Window rules. Lines outside MAO_PEEPHOLE_RULE(...)
/// invocations are ignored.
MaoStatus parsePeepholeRulesDef(const std::string &Text,
                                std::vector<PeepholeRule> &Out);

/// Renders the complete canonical PeepholeRules.def for \p Rules: header
/// comment plus one MAO_PEEPHOLE_RULE invocation per rule. The output
/// reparses to an equal table (the round-trip contract `mao --synth` and
/// SynthTest rely on).
std::string renderPeepholeRulesDef(const std::vector<PeepholeRule> &Rules);

/// Execution context handed to the engine by the pass shims.
struct PeepholeContext {
  MaoUnit &Unit;
  MaoFunction &Fn;
  /// Called once per rule application with the rule and the text of the
  /// instruction (window head) that matched; hooks pass tracing. Leave it
  /// empty when nobody listens: the text is rendered only for the hook.
  std::function<void(const PeepholeRule &, const std::string &)> OnFire;
};

/// Runs every active rule whose Group equals \p Group over the function.
/// Returns the number of rule applications; bumps the per-rule
/// `peep.fire.<name>` StatsRegistry counter for each.
unsigned runPeepholeGroup(PeepholeContext &Ctx, std::string_view Group);

} // namespace mao

#endif // MAO_PASSES_PEEPHOLEENGINE_H
