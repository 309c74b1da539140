//===- tests/TuneTest.cpp - Autotuner unit tests --------------------------===//
//
// Covers the tuner's contracts: determinism in (input, seed, budget,
// config) for every --mao-jobs value, score-memoization hit/miss
// correctness, search-space lowering/round-tripping, and the acceptance
// property that the tuner strictly beats the default pipeline on a kernel
// the default pipeline degrades.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "asm/Parser.h"
#include "pass/MaoPass.h"
#include "support/Random.h"
#include "tune/ScoreCache.h"
#include "tune/SearchSpace.h"
#include "tune/Tuner.h"

#include <gtest/gtest.h>

using namespace mao;

namespace {

MaoUnit parse(const std::string &Asm) {
  auto UnitOr = parseAssembly(Asm);
  if (!UnitOr.ok()) {
    ADD_FAILURE() << "parse failed: " << UnitOr.message();
    return MaoUnit();
  }
  return std::move(*UnitOr);
}

/// The 252.eon-shaped kernel: LOOP16's padding aliases two predictor
/// buckets, so the default pipeline DEGRADES it and the tuner must find a
/// strictly better parameterization (see examples/tune_alias.s).
std::string aliasKernel() {
  return "\t.text\n\t.globl bench_main\n\t.type bench_main, @function\n"
         "bench_main:\n"
         "\tpushq %rbp\n\tmovq %rsp, %rbp\n"
         "\txorl %eax, %eax\n\txorl %ebx, %ebx\n"
         "\tmovl $7, %r14d\n\tmovl $200, %r15d\n"
         "\t.p2align 5\n\tnop6\n"
         ".LOuter:\n\tmovl $2, %ecx\n"
         ".LSplit:\n\taddl $1, %eax\n\tsubl $1, %ecx\n\tjne .LSplit\n"
         "\tmovl $8, %ecx\n"
         ".LInner:\n\taddl $1, %ebx\n\tsubl $1, %ecx\n\tjne .LInner\n"
         "\tcmpl $0, %r14d\n\tje .LNever\n"
         "\tnop15\n\tnop11\n"
         "\tsubl $1, %r15d\n\tjne .LOuter\n\tjmp .LDone\n"
         ".LNever:\n\taddl $7, %eax\n\tjmp .LDone\n"
         ".LDone:\n\tmovl $0, %eax\n\tleave\n\tret\n"
         "\t.size bench_main, .-bench_main\n";
}

TEST(TuneBudget, Presets) {
  EXPECT_EQ(tuneBudgetFromString("small"), 24u);
  EXPECT_EQ(tuneBudgetFromString("medium"), 64u);
  EXPECT_EQ(tuneBudgetFromString("large"), 192u);
  EXPECT_EQ(tuneBudgetFromString("10"), 10u);
  EXPECT_EQ(tuneBudgetFromString("0"), 64u);   // Invalid -> default.
  EXPECT_EQ(tuneBudgetFromString("bogus"), 64u);
}

TEST(ScoreCache, HitMissAccounting) {
  linkAllPasses();
  MaoUnit Unit = parse(aliasKernel());
  auto BytesOr = assembleUnit(Unit);
  ASSERT_TRUE(BytesOr.ok());

  ScoreCache Cache("core2");
  uint64_t Key = Cache.keyFor(*BytesOr);

  // First lookup: miss, counted once.
  EXPECT_FALSE(Cache.lookup(Key).has_value());
  ScoreCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Entries, 0u);

  Cache.insert(Key, 1234);
  auto Score = Cache.lookup(Key);
  ASSERT_TRUE(Score.has_value());
  EXPECT_EQ(*Score, 1234u);
  S = Cache.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Entries, 1u);

  // First write wins: a duplicate insert cannot change the score.
  Cache.insert(Key, 9999);
  EXPECT_EQ(*Cache.lookup(Key), 1234u);
}

TEST(ScoreCache, KeyIsContentAndConfigSensitive) {
  linkAllPasses();
  MaoUnit A = parse(aliasKernel());
  MaoUnit B = parse(aliasKernel());
  auto BytesA = assembleUnit(A);
  auto BytesB = assembleUnit(B);
  ASSERT_TRUE(BytesA.ok());
  ASSERT_TRUE(BytesB.ok());

  ScoreCache Core2("core2");
  ScoreCache Opteron("opteron");
  // Same bytes -> same key; the key is a pure function of content.
  EXPECT_EQ(Core2.keyFor(*BytesA), Core2.keyFor(*BytesB));
  // Same bytes under another config -> different key: two configs can
  // never share a memoized score.
  EXPECT_NE(Core2.keyFor(*BytesA), Opteron.keyFor(*BytesA));

  // Different bytes -> different key (w.h.p.): pad one section.
  MaoUnit C = parse(aliasKernel() + "\tnop\n");
  auto BytesC = assembleUnit(C);
  ASSERT_TRUE(BytesC.ok());
  EXPECT_NE(Core2.keyFor(*BytesA), Core2.keyFor(*BytesC));
}

TEST(SearchSpace, DefaultRoundTripsThroughRegistry) {
  linkAllPasses();
  MaoUnit Unit = parse(aliasKernel());
  SearchSpace Space(Unit);
  TuneParams Default = Space.defaultParams();
  std::string Spec = Default.toString();
  EXPECT_FALSE(Spec.empty());

  // The canonical spelling must parse back through the validating registry
  // front end into the same pipeline.
  std::vector<PassRequest> Parsed;
  MaoStatus S = PassRegistry::instance().parsePipeline(Spec, Parsed);
  EXPECT_TRUE(S.ok()) << S.message();
  std::vector<PassRequest> Direct = Default.toRequests();
  ASSERT_EQ(Parsed.size(), Direct.size());
  for (size_t I = 0; I < Parsed.size(); ++I) {
    EXPECT_EQ(Parsed[I].PassName, Direct[I].PassName);
    EXPECT_EQ(Parsed[I].Options.all(), Direct[I].Options.all());
  }

  // The all-off baseline denotes the empty pipeline.
  EXPECT_TRUE(Space.baselineParams().toString().empty());
  EXPECT_TRUE(Space.baselineParams().toRequests().empty());
}

TEST(SearchSpace, MutateMovesExactlyOneAxisDeterministically) {
  linkAllPasses();
  MaoUnit Unit = parse(aliasKernel());
  SearchSpace Space(Unit);
  TuneParams P = Space.defaultParams();

  RandomSource RngA(42), RngB(42);
  for (int I = 0; I < 50; ++I) {
    TuneParams NextA = Space.mutate(P, RngA);
    TuneParams NextB = Space.mutate(P, RngB);
    // Same seed, same point -> same neighbour.
    EXPECT_EQ(NextA.toString(), NextB.toString());
    // A neighbour is a different parameterization.
    EXPECT_NE(NextA.toString(), P.toString());
    P = NextA;
  }
}

TEST(Tuner, DeterministicAcrossJobs) {
  linkAllPasses();
  TuneOptions Options;
  Options.Seed = 7;
  Options.Budget = 24;

  TuneResult Results[3];
  const unsigned JobCounts[3] = {1, 2, 8};
  for (int I = 0; I < 3; ++I) {
    MaoUnit Unit = parse(aliasKernel());
    Options.Jobs = JobCounts[I];
    auto ResultOr = tuneUnit(Unit, Options);
    ASSERT_TRUE(ResultOr.ok()) << ResultOr.message();
    Results[I] = std::move(*ResultOr);
  }
  for (int I = 1; I < 3; ++I) {
    EXPECT_EQ(Results[I].TunedPipeline, Results[0].TunedPipeline);
    EXPECT_EQ(Results[I].TunedCycles, Results[0].TunedCycles);
    EXPECT_EQ(Results[I].BaselineCycles, Results[0].BaselineCycles);
    EXPECT_EQ(Results[I].DefaultCycles, Results[0].DefaultCycles);
    EXPECT_EQ(Results[I].Evaluations, Results[0].Evaluations);
    EXPECT_EQ(Results[I].Restarts, Results[0].Restarts);
    // The improvement history — every step of the search — must match,
    // not just the final answer.
    ASSERT_EQ(Results[I].History.size(), Results[0].History.size());
    for (size_t J = 0; J < Results[0].History.size(); ++J) {
      EXPECT_EQ(Results[I].History[J].Evaluation,
                Results[0].History[J].Evaluation);
      EXPECT_EQ(Results[I].History[J].Cycles, Results[0].History[J].Cycles);
      EXPECT_EQ(Results[I].History[J].Pipeline,
                Results[0].History[J].Pipeline);
    }
    // And the full JSON report is byte-identical.
    EXPECT_EQ(tuneReportJson(Results[I]), tuneReportJson(Results[0]));
  }
}

TEST(Tuner, MemoizationCountsAreConsistent) {
  linkAllPasses();
  MaoUnit Unit = parse(aliasKernel());
  TuneOptions Options;
  Options.Budget = 24;
  auto ResultOr = tuneUnit(Unit, Options);
  ASSERT_TRUE(ResultOr.ok()) << ResultOr.message();
  // Every successfully scored candidate is either a fresh simulation
  // (miss) or served from the cache (hit).
  EXPECT_EQ(ResultOr->ScoreCacheHits + ResultOr->ScoreCacheMisses +
                ResultOr->FailedCandidates,
            ResultOr->Evaluations);
  // The baseline and the default pipeline differ in bytes, so at least
  // two candidates had to simulate.
  EXPECT_GE(ResultOr->ScoreCacheMisses, 2u);
  // Distinct parameterizations collapse to identical bytes often enough
  // on this kernel that the cache must have been exercised.
  EXPECT_GT(ResultOr->ScoreCacheHits, 0u);
}

TEST(Tuner, BeatsDefaultPipelineOnAliasKernel) {
  linkAllPasses();
  MaoUnit Unit = parse(aliasKernel());
  TuneOptions Options;
  Options.Budget = 64;
  auto ResultOr = tuneUnit(Unit, Options);
  ASSERT_TRUE(ResultOr.ok()) << ResultOr.message();
  // The default pipeline degrades this kernel (LOOP16's padding aliases
  // two predictor buckets); the tuner must strictly beat it.
  EXPECT_LT(ResultOr->TunedCycles, ResultOr->DefaultCycles);
  // The winner is applied to the unit: re-measuring the tuned unit's
  // entry reproduces the reported score... via the report's own contract
  // that TunedCycles <= every history entry.
  for (const TuneImprovement &Step : ResultOr->History)
    EXPECT_GE(Step.Cycles, ResultOr->TunedCycles);
  // The report is well-formed enough to round-trip its pipeline.
  if (!ResultOr->TunedPipeline.empty()) {
    std::vector<PassRequest> Parsed;
    EXPECT_TRUE(PassRegistry::instance()
                    .parsePipeline(ResultOr->TunedPipeline, Parsed)
                    .ok());
  }
}

TEST(Tuner, ReportJsonCarriesTheWin) {
  linkAllPasses();
  MaoUnit Unit = parse(aliasKernel());
  TuneOptions Options;
  Options.Budget = 64;
  auto ResultOr = tuneUnit(Unit, Options);
  ASSERT_TRUE(ResultOr.ok());
  std::string Json = tuneReportJson(*ResultOr);
  EXPECT_NE(Json.find("\"entry\": \"bench_main\""), std::string::npos);
  EXPECT_NE(Json.find("\"config\": \"core2\""), std::string::npos);
  EXPECT_NE(Json.find("\"tuned_cycles\": " +
                      std::to_string(ResultOr->TunedCycles)),
            std::string::npos);
  EXPECT_NE(Json.find("\"default_cycles\": " +
                      std::to_string(ResultOr->DefaultCycles)),
            std::string::npos);
  EXPECT_NE(Json.find("\"history\""), std::string::npos);
}

TEST(Tuner, UnknownEntryAndConfigAreErrors) {
  linkAllPasses();
  MaoUnit Unit = parse(aliasKernel());
  TuneOptions Options;
  Options.Entry = "no_such_function";
  EXPECT_FALSE(tuneUnit(Unit, Options).ok());
  Options.Entry.clear();
  Options.Config = "pentium9";
  EXPECT_FALSE(tuneUnit(Unit, Options).ok());
}

} // namespace
