//===- tests/SynthTest.cpp - Superoptimizer rule-synthesis tests --------------==//
//
// The synthesis loop's safety story, tested stage by stage: the symbolic
// oracle must reject seeded-unsound candidates (including the subtle
// 32-bit zero-extension case), every accepted rule must survive the
// independent SemanticValidator recheck, the emitted .def must round-trip
// through the engine's parser, the whole run must be byte-identical across
// worker counts, and the committed PeepholeRules.def must re-prove — the
// same gate CI runs via `mao --synth-verify`.
//
//===----------------------------------------------------------------------===//

#include "asm/Parser.h"
#include "passes/PeepholeEngine.h"
#include "support/Stats.h"
#include "synth/Synth.h"
#include "tune/ScoreCache.h"

#include <gtest/gtest.h>

using namespace mao;
using namespace mao::synth;

namespace {

std::vector<TemplateInsn> templates(const std::string &Text) {
  std::vector<TemplateInsn> Out;
  MaoStatus S = parseTemplates(Text, Out);
  EXPECT_TRUE(S.ok()) << S.message();
  return Out;
}

PeepholeRule windowRule(const std::string &Pattern, const std::string &Guards,
                        const std::string &Replacement) {
  PeepholeRule R;
  R.Name = "TEST_RULE";
  R.Group = "synth";
  R.Strategy = RuleStrategy::Window;
  R.Pattern = Pattern;
  R.Guards = Guards;
  R.Replacement = Replacement;
  MaoStatus S = compilePeepholeRule(R);
  EXPECT_TRUE(S.ok()) << S.message();
  return R;
}

/// A tiny corpus whose hot block carries a copy-back, a duplicated move,
/// and an add of zero (the examples/synth_copy.s shapes).
const char *RedundantCorpus = "\t.text\n"
                              "\t.type f, @function\n"
                              "f:\n"
                              "\tmovq %rax, %rcx\n"
                              "\tmovq %rcx, %rax\n"
                              "\tmovq %rdx, %rsi\n"
                              "\tmovq %rdx, %rsi\n"
                              "\taddq $0, %rsi\n"
                              "\taddq %rsi, %rax\n"
                              "\tret\n"
                              "\t.size f, .-f\n";

SynthOptions corpusOptions() {
  SynthOptions Options;
  Options.Corpus.emplace_back("corpus.s", RedundantCorpus);
  Options.IncludeWorkloads = false; // Keep the unit test fast.
  return Options;
}

//===----------------------------------------------------------------------===//
// The symbolic oracle
//===----------------------------------------------------------------------===//

TEST(SynthOracle, RejectsSeededUnsoundCandidates) {
  uint8_t DeadFlags = 0;
  // Dropping a move loses the write to %B.
  EXPECT_FALSE(proveWindowRewrite(templates("movq %A, %B"), {}, DeadFlags));
  // An add of a non-zero constant is not erasable.
  EXPECT_FALSE(
      proveWindowRewrite(templates("addq $5, %A"), {}, DeadFlags));
  // Swapping source and destination is not the same move.
  EXPECT_FALSE(proveWindowRewrite(templates("movq %A, %B"),
                                  templates("movq %B, %A"), DeadFlags));
}

TEST(SynthOracle, ProvesCopyBackElimination) {
  uint8_t DeadFlags = 0xff;
  EXPECT_TRUE(proveWindowRewrite(templates("movq %A, %B ; movq %B, %A"),
                                 templates("movq %A, %B"), DeadFlags));
  // Moves leave flags alone on both sides: no guard needed.
  EXPECT_EQ(DeadFlags, 0u);
}

TEST(SynthOracle, RejectsCopyBackAt32BitWidth) {
  // The 32-bit back-copy re-zero-extends %A; erasing it changes the high
  // half whenever %A held a full 64-bit value. The oracle must see that.
  uint8_t DeadFlags = 0;
  EXPECT_FALSE(proveWindowRewrite(templates("movl %A, %B ; movl %B, %A"),
                                  templates("movl %A, %B"), DeadFlags));
}

TEST(SynthOracle, DerivesDeadFlagsGuardForAddZero) {
  uint8_t DeadFlags = 0;
  EXPECT_TRUE(
      proveWindowRewrite(templates("addq $0, %A"), {}, DeadFlags));
  // The registers agree but every status flag the ALU writes differs, so
  // the rewrite is only sound where all six are dead.
  EXPECT_EQ(DeadFlags,
            FlagCF | FlagPF | FlagAF | FlagZF | FlagSF | FlagOF);
}

//===----------------------------------------------------------------------===//
// SemanticValidator recheck
//===----------------------------------------------------------------------===//

TEST(SynthValidator, AcceptsOracleProvenRule) {
  const PeepholeRule R =
      windowRule("movq %A, %B ; movq %B, %A", "", "movq %A, %B");
  MaoStatus S = verifyRuleWithValidator(R);
  EXPECT_TRUE(S.ok()) << S.message();
}

TEST(SynthValidator, RejectsSeededUnsoundRule) {
  // Bypass the oracle entirely: a rule claiming a copy equals clearing the
  // destination. The validator's embedding stores %B, so it must diverge.
  const PeepholeRule R = windowRule("movq %A, %B", "", "movq $0, %B");
  MaoStatus S = verifyRuleWithValidator(R);
  EXPECT_FALSE(S.ok());
}

TEST(SynthValidator, RejectsMissingFlagGuard) {
  // Erasing `addq $0` without the dead-flags guard: the embedding captures
  // the unguarded flags with setcc, and ZF after `addq $0, %A` depends on
  // %A while the empty replacement leaves the entry flags. Must diverge.
  const PeepholeRule R = windowRule("addq $0, %A", "", "");
  MaoStatus S = verifyRuleWithValidator(R);
  EXPECT_FALSE(S.ok());
}

//===----------------------------------------------------------------------===//
// The full pipeline
//===----------------------------------------------------------------------===//

TEST(SynthPipeline, FindsRedundancyInCorpus) {
  auto ResultOr = synthesizeRules(corpusOptions());
  ASSERT_TRUE(ResultOr.ok()) << ResultOr.message();
  const SynthResult &R = *ResultOr;
  EXPECT_GT(R.Stats.UniqueWindows, 0u);
  EXPECT_GT(R.Stats.CandidatesProven, 0u);
  // Everything proven must also have passed the validator recheck.
  EXPECT_EQ(R.Stats.CandidatesProven, R.Stats.CandidatesVerified);
  EXPECT_EQ(R.Stats.ShardFailures, 0u);
  ASSERT_FALSE(R.Rules.empty());
  // The copy-back elimination is the canonical discovery on this corpus.
  bool FoundCopyBack = false;
  for (const SynthRule &SR : R.Rules) {
    EXPECT_EQ(SR.Rule.Group, "synth");
    EXPECT_LT(SR.CyclesAfter, SR.CyclesBefore); // Strict wins only.
    if (SR.Rule.Pattern == "movq %A, %B ; movq %B, %A" &&
        SR.Rule.Replacement == "movq %A, %B")
      FoundCopyBack = true;
  }
  EXPECT_TRUE(FoundCopyBack);
}

TEST(SynthPipeline, EmittedTableRoundTrips) {
  auto ResultOr = synthesizeRules(corpusOptions());
  ASSERT_TRUE(ResultOr.ok()) << ResultOr.message();
  std::vector<PeepholeRule> Parsed;
  MaoStatus S = parsePeepholeRulesDef(ResultOr->TableText, Parsed);
  ASSERT_TRUE(S.ok()) << S.message();
  // Parse -> render reproduces the emitted text byte for byte.
  EXPECT_EQ(renderPeepholeRulesDef(Parsed), ResultOr->TableText);
  // And the engine accepts it as the active synth group.
  S = loadSynthPeepholeRules(ResultOr->TableText);
  EXPECT_TRUE(S.ok()) << S.message();
  unsigned SynthRules = 0;
  for (const PeepholeRule &R : activePeepholeRules())
    if (R.Group == "synth")
      ++SynthRules;
  EXPECT_EQ(SynthRules, ResultOr->Rules.size());
  resetPeepholeRules();
}

TEST(SynthPipeline, DeterministicAcrossJobs) {
  SynthOptions Options = corpusOptions();
  Options.Jobs = 1;
  auto OneOr = synthesizeRules(Options);
  Options.Jobs = 4;
  auto FourOr = synthesizeRules(Options);
  ASSERT_TRUE(OneOr.ok() && FourOr.ok());
  EXPECT_EQ(OneOr->TableText, FourOr->TableText);
  EXPECT_EQ(OneOr->Stats.CandidatesTried, FourOr->Stats.CandidatesTried);
  EXPECT_EQ(OneOr->Stats.CandidatesProven, FourOr->Stats.CandidatesProven);
}

TEST(SynthPipeline, CommittedRulesReProve) {
  // The compiled-in PeepholeRules.def synth group must pass the same gate
  // CI runs (`mao --synth-verify`): oracle plus validator per rule.
  resetPeepholeRules();
  std::string Detail;
  MaoStatus S = verifyActiveSynthRules(&Detail);
  EXPECT_TRUE(S.ok()) << S.message();
}

//===----------------------------------------------------------------------===//
// The engine applying synthesized rules
//===----------------------------------------------------------------------===//

TEST(SynthEngine, AppliesRuleAndCountsFires) {
  auto UnitOr = parseAssembly(RedundantCorpus);
  ASSERT_TRUE(UnitOr.ok());
  MaoUnit Unit = UnitOr.take();
  ASSERT_EQ(Unit.functions().size(), 1u);
  const uint64_t FiresBefore =
      StatsRegistry::instance().counter("peep.fire.SYN_MOVQ_MOVQ_2").value();
  PeepholeContext Ctx{Unit, Unit.functions().front(), nullptr};
  const unsigned Applied = runPeepholeGroup(Ctx, "synth");
  EXPECT_GE(Applied, 2u); // Copy-back, duplicate move, add-zero.
  const uint64_t FiresAfter =
      StatsRegistry::instance().counter("peep.fire.SYN_MOVQ_MOVQ_2").value();
  EXPECT_GT(FiresAfter, FiresBefore); // Per-rule provenance counter.
}

TEST(SynthEngine, DeadFlagsGuardBlocksLiveFlags) {
  // `addq $0, %rax` directly feeding jne: ZF is live after the window, so
  // the guarded erase must NOT fire.
  auto UnitOr = parseAssembly("\t.text\n"
                              "\t.type f, @function\n"
                              "f:\n"
                              "\taddq $0, %rax\n"
                              "\tjne .Lout\n"
                              "\tmovq $1, %rax\n"
                              ".Lout:\n"
                              "\tret\n"
                              "\t.size f, .-f\n");
  ASSERT_TRUE(UnitOr.ok());
  MaoUnit Unit = UnitOr.take();
  const size_t InsnsBefore = Unit.functions().front().countInstructions();
  PeepholeContext Ctx{Unit, Unit.functions().front(), nullptr};
  (void)runPeepholeGroup(Ctx, "synth");
  EXPECT_EQ(Unit.functions().front().countInstructions(), InsnsBefore);
}

//===----------------------------------------------------------------------===//
// Score-cache staleness
//===----------------------------------------------------------------------===//

TEST(SynthScoreCache, RuleTableDigestChangesKey) {
  resetPeepholeRules();
  SectionBytes Bytes;
  Bytes[".text"] = {0x90, 0xc3};
  ScoreCache Cache("core2");
  const uint64_t KeyBuiltin = Cache.keyFor(Bytes);
  // Swap the synth group for a different table: same bytes, new key — a
  // tuner run against the swapped table can never hit stale scores.
  const PeepholeRule R =
      windowRule("movq %A, %B ; movq %B, %A", "", "movq %A, %B");
  MaoStatus S = loadSynthPeepholeRules(renderPeepholeRulesDef({R}));
  ASSERT_TRUE(S.ok()) << S.message();
  const uint64_t KeySwapped = Cache.keyFor(Bytes);
  resetPeepholeRules();
  EXPECT_NE(KeyBuiltin, KeySwapped);
  EXPECT_EQ(Cache.keyFor(Bytes), KeyBuiltin); // Reset restores the key.
}

} // namespace
