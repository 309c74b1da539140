//===- tests/StatsTest.cpp - Observability layer tests --------------------===//
//
// Covers the metrics registry (exact concurrent accounting, deterministic
// snapshots), the single-buffer locked trace sink (no torn lines under
// concurrency), the global trace level, the Chrome trace-event timeline,
// and the run-report determinism contract: non-timing report sections are
// byte-identical for every --mao-jobs value.
//
//===----------------------------------------------------------------------===//

#include "mao/Mao.h"
#include "support/Stats.h"
#include "support/Timeline.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <thread>
#include <vector>

using namespace mao;

namespace {

constexpr unsigned kThreads = 8;

TEST(Stats, ConcurrentCounterSumsExactly) {
  StatCounter C;
  constexpr uint64_t PerThread = 20000;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < kThreads; ++T)
    Workers.emplace_back([&C] {
      for (uint64_t I = 0; I < PerThread; ++I)
        C.add();
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(C.value(), kThreads * PerThread);
}

TEST(Stats, ConcurrentHistogramIsExact) {
  StatHistogram H;
  constexpr uint64_t PerThread = 5000;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < kThreads; ++T)
    Workers.emplace_back([&H, T] {
      for (uint64_t I = 1; I <= PerThread; ++I)
        H.record(I + T); // Values span [1, PerThread + kThreads - 1].
    });
  for (std::thread &W : Workers)
    W.join();
  StatHistogram::Summary S = H.summary();
  EXPECT_EQ(S.Count, kThreads * PerThread);
  uint64_t ExpectedSum = 0;
  for (unsigned T = 0; T < kThreads; ++T)
    for (uint64_t I = 1; I <= PerThread; ++I)
      ExpectedSum += I + T;
  EXPECT_EQ(S.Sum, ExpectedSum);
  EXPECT_EQ(S.Min, 1u);
  EXPECT_EQ(S.Max, PerThread + kThreads - 1);
  uint64_t BucketTotal = 0;
  for (uint64_t B : S.Buckets)
    BucketTotal += B;
  EXPECT_EQ(BucketTotal, S.Count);
}

TEST(Stats, EmptyHistogramRendersZeroMin) {
  StatHistogram H;
  StatHistogram::Summary S = H.summary();
  EXPECT_EQ(S.Count, 0u);
  EXPECT_EQ(S.Min, 0u); // Not UINT64_MAX.
  EXPECT_EQ(S.Max, 0u);
}

TEST(Stats, SnapshotIsSortedAndDeterministic) {
  StatsRegistry &R = StatsRegistry::instance();
  R.reset();
  R.counter("zz.last").add(3);
  R.counter("aa.first").add(1);
  R.counter("mm.middle").add(2);
  R.gauge("zz.gauge").set(-7);
  R.gauge("aa.gauge").set(7);
  R.histogram("test.hist").record(42);

  StatsSnapshot A = R.snapshot();
  StatsSnapshot B = R.snapshot();
  ASSERT_GE(A.Counters.size(), 3u);
  EXPECT_TRUE(std::is_sorted(A.Counters.begin(), A.Counters.end(),
                             [](const auto &L, const auto &Rhs) {
                               return L.first < Rhs.first;
                             }));
  EXPECT_TRUE(std::is_sorted(A.Gauges.begin(), A.Gauges.end(),
                             [](const auto &L, const auto &Rhs) {
                               return L.first < Rhs.first;
                             }));
  ASSERT_EQ(A.Counters.size(), B.Counters.size());
  for (size_t I = 0; I < A.Counters.size(); ++I) {
    EXPECT_EQ(A.Counters[I].first, B.Counters[I].first);
    EXPECT_EQ(A.Counters[I].second, B.Counters[I].second);
  }
  // Cached references survive reset and keep working.
  StatCounter &C = R.counter("aa.first");
  R.reset();
  EXPECT_EQ(C.value(), 0u);
  C.add(9);
  EXPECT_EQ(R.counter("aa.first").value(), 9u);
  R.reset();
}

TEST(Stats, TableRendersAllInstrumentKinds) {
  StatsRegistry &R = StatsRegistry::instance();
  R.reset();
  R.counter("render.counter").add(5);
  R.gauge("render.gauge").set(-3);
  R.histogram("render.hist").record(100);
  std::string Table = renderStatsTable(R.snapshot());
  EXPECT_NE(Table.find("render.counter"), std::string::npos);
  EXPECT_NE(Table.find("render.gauge"), std::string::npos);
  EXPECT_NE(Table.find("render.hist"), std::string::npos);
  R.reset();
}

// The torn-line regression: TraceContext::trace used to emit prefix, body
// and newline as three separate stderr calls, so lines from parallel
// shards interleaved mid-line. Every chunk reaching the sink must now be
// exactly one complete "[name] body\n" line.
TEST(Trace, NoTornLinesUnderConcurrency) {
  std::mutex CapturedM;
  std::vector<std::string> Captured;
  LogWriter Prev = setLogWriter([&](const std::string &Text) {
    std::lock_guard<std::mutex> Lock(CapturedM);
    Captured.push_back(Text);
  });

  constexpr unsigned PerThread = 200;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < kThreads; ++T)
    Workers.emplace_back([T] {
      TraceContext Ctx("shard" + std::to_string(T), 1);
      for (unsigned I = 0; I < PerThread; ++I)
        Ctx.trace(0, "line %u of thread %u", I, T);
    });
  for (std::thread &W : Workers)
    W.join();
  setLogWriter(std::move(Prev));

  ASSERT_EQ(Captured.size(), kThreads * PerThread);
  for (const std::string &Chunk : Captured) {
    // One complete line per write: starts with the [name] prefix, ends
    // with exactly one newline, no interior newline.
    ASSERT_FALSE(Chunk.empty());
    EXPECT_EQ(Chunk.front(), '[');
    EXPECT_EQ(Chunk.back(), '\n');
    EXPECT_EQ(std::count(Chunk.begin(), Chunk.end(), '\n'), 1);
    EXPECT_NE(Chunk.find("] line "), std::string::npos) << Chunk;
  }
}

TEST(Trace, GlobalLevelFiltersInfrastructureTracing) {
  std::vector<std::string> Captured;
  LogWriter Prev = setLogWriter(
      [&](const std::string &Text) { Captured.push_back(Text); });

  int OldLevel = TraceContext::global().level();
  mao::api::Session::setTraceLevel(2);
  EXPECT_EQ(TraceContext::global().level(), 2);
  TraceContext::global().trace(2, "visible at level 2");
  TraceContext::global().trace(3, "invisible at level 2");
  mao::api::Session::setTraceLevel(0);
  TraceContext::global().trace(1, "invisible at level 0");
  TraceContext::global().setLevel(OldLevel);
  setLogWriter(std::move(Prev));

  ASSERT_EQ(Captured.size(), 1u);
  EXPECT_NE(Captured[0].find("visible at level 2"), std::string::npos);
}

TEST(Timeline, LanesPerThreadAndChromeSchema) {
  Timeline Tl;
  Timeline::setActive(&Tl);
  { TimelineSpan Main("pass", "main-span"); }
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < 3; ++T)
    Workers.emplace_back([T] {
      TimelineSpan Span("shard", "worker-span-" + std::to_string(T));
    });
  for (std::thread &W : Workers)
    W.join();
  Timeline::setActive(nullptr);

  EXPECT_EQ(Tl.eventCount(), 4u);
  std::string Json = Tl.renderJson();
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(Json.find("\"main\""), std::string::npos);   // Lane 0.
  EXPECT_NE(Json.find("worker-1"), std::string::npos);   // A worker lane.
  EXPECT_NE(Json.find("main-span"), std::string::npos);
  EXPECT_NE(Json.find("worker-span-2"), std::string::npos);
}

TEST(Timeline, SpansAreNoOpsWhenInactive) {
  ASSERT_EQ(Timeline::active(), nullptr);
  { TimelineSpan Span("pass", "never-recorded"); }
  // Nothing to assert beyond "did not crash": no timeline exists.
}

const char *kKernel =
    "\t.text\n\t.globl bench_main\n\t.type bench_main, @function\n"
    "bench_main:\n"
    "\tpushq %rbp\n\tmovq %rsp, %rbp\n"
    "\tmovl $100, %ecx\n"
    "\txorl %eax, %eax\n"
    ".LLOOP:\n"
    "\taddl $2, %eax\n"
    "\ttestl %eax, %eax\n" // Redundant: flags already set by addl.
    "\tsubl $1, %ecx\n"
    "\tjne .LLOOP\n"
    "\tmovl $0, %eax\n\tleave\n\tret\n"
    "\t.size bench_main, .-bench_main\n";

std::string runReportWithJobs(unsigned Jobs) {
  mao::api::Session::resetGlobalStats();
  mao::api::Session Session;
  mao::api::Program Program;
  EXPECT_TRUE(Session.parseText(kKernel, "t.s", Program).Ok);
  std::vector<mao::api::PassSpec> Pipeline;
  EXPECT_TRUE(
      mao::api::Session::parsePipelineSpec("zee,redtest,sched", Pipeline).Ok);
  mao::api::OptimizeOptions Options;
  Options.Jobs = Jobs;
  Options.CollectStats = true;
  mao::api::OptimizeResult Result =
      Session.optimize(Program, Pipeline, Options);
  EXPECT_TRUE(Result.Ok) << Result.Error;
  return Session.lastReportJson(/*IncludeTimings=*/false);
}

// The report-determinism contract: with timings excluded, the run report
// is byte-identical for every --mao-jobs value.
TEST(Report, NonTimingSectionsIdenticalAcrossJobs) {
  std::string Baseline = runReportWithJobs(1);
  EXPECT_NE(Baseline.find("\"version\""), std::string::npos);
  for (unsigned Jobs : {2u, 8u, 0u})
    EXPECT_EQ(runReportWithJobs(Jobs), Baseline) << "jobs=" << Jobs;
}

TEST(Report, ContentsReflectTheRun) {
  mao::api::Session::resetGlobalStats();
  mao::api::Session Session;
  mao::api::Program Program;
  ASSERT_TRUE(Session.parseText(kKernel, "t.s", Program).Ok);
  std::vector<mao::api::PassSpec> Pipeline;
  ASSERT_TRUE(
      mao::api::Session::parsePipelineSpec("zee,redtest", Pipeline).Ok);
  mao::api::OptimizeOptions Options;
  Options.CollectStats = true;
  ASSERT_TRUE(Session.optimize(Program, Pipeline, Options).Ok);

  mao::api::RunReport Report = Session.lastReport();
  ASSERT_EQ(Report.Passes.size(), 2u);
  EXPECT_EQ(Report.Passes[0].Pass, "ZEE");
  EXPECT_EQ(Report.Passes[1].Pass, "REDTEST");
  EXPECT_EQ(Report.Passes[1].Status, "ok");
  // REDTEST deletes the redundant testl: one transformation, a negative
  // instruction and byte delta.
  EXPECT_EQ(Report.Passes[1].Transformations, 1u);
  EXPECT_EQ(Report.Passes[1].InstructionDelta, -1);
  EXPECT_LT(Report.Passes[1].ByteDelta, 0);
  EXPECT_EQ(Report.Failures, 0u);
  EXPECT_EQ(Report.Input, "t.s");
  EXPECT_GT(Report.Parse.Instructions, 5u);

  // The pipeline counters landed in the registry.
  bool SawPassesRun = false;
  for (const auto &KV : Report.Counters)
    if (KV.first == "pipeline.passes_run")
      SawPassesRun = KV.second == 2;
  EXPECT_TRUE(SawPassesRun);
  // "time." counters are segregated out of the deterministic sections.
  for (const auto &KV : Report.Counters)
    EXPECT_NE(KV.first.rfind("time.", 0), 0u) << KV.first;

  std::string Json = Session.lastReportJson();
  EXPECT_NE(Json.find("\"version\""), std::string::npos);
  EXPECT_NE(Json.find("\"pipeline\""), std::string::npos);
  EXPECT_NE(Json.find("\"caches\""), std::string::npos);
  EXPECT_NE(Json.find("\"timings\""), std::string::npos);
  EXPECT_EQ(Session.lastReportJson(false).find("\"timings\""),
            std::string::npos);
  EXPECT_NE(Session.statsTable().find("pipeline.passes_run"),
            std::string::npos);
  mao::api::Session::resetGlobalStats();
}

} // namespace
