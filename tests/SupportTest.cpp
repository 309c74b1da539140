//===- tests/SupportTest.cpp - Support-library unit tests --------------------==//

#include "mao/CommandLine.h"
#include "support/Diag.h"
#include "support/FaultInjection.h"
#include "support/FileIO.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/Options.h"
#include "support/Random.h"
#include "support/Status.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

using namespace mao;

namespace {

// --- Whole-file reads -------------------------------------------------------

TEST(FileIO, ReadsEveryByteVerbatim) {
  const std::string Path = ::testing::TempDir() + "mao_read_whole_file.bin";
  std::string Bytes = "line\r\n\0tail without newline";
  Bytes += std::string(100000, 'x'); // past any single stdio buffer
  {
    std::ofstream Out(Path, std::ios::binary);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }
  std::string Read = "stale";
  ASSERT_TRUE(readWholeFile(Path, Read));
  EXPECT_EQ(Read, Bytes);
  std::remove(Path.c_str());
  EXPECT_FALSE(readWholeFile(Path, Read));
}

TEST(FileIO, ReadsFilesThatReportNoSize) {
  // procfs files report size 0 but have content: the read goes on to EOF.
  if (!std::filesystem::exists("/proc/self/status"))
    GTEST_SKIP() << "no procfs";
  std::string Read;
  ASSERT_TRUE(readWholeFile("/proc/self/status", Read));
  EXPECT_NE(Read.find("Name:"), std::string::npos);
}

// --- Whole-file writes ------------------------------------------------------

TEST(FileIO, WriteRoundTripsEveryByte) {
  const std::string Path = ::testing::TempDir() + "mao_write_whole_file.bin";
  std::string Bytes = "line\r\n\0tail without newline";
  Bytes += std::string(100000, 'x');
  ASSERT_TRUE(writeWholeFile(Path, "stale and longer than nothing").ok());
  ASSERT_TRUE(writeWholeFile(Path, Bytes).ok()); // Truncates, then writes.
  std::string Read;
  ASSERT_TRUE(readWholeFile(Path, Read));
  EXPECT_EQ(Read, Bytes);
  std::remove(Path.c_str());
}

TEST(FileIO, WriteDashGoesToStdout) {
  ::testing::internal::CaptureStdout();
  const MaoStatus S = writeWholeFile("-", "to stdout\n");
  EXPECT_EQ(::testing::internal::GetCapturedStdout(), "to stdout\n");
  EXPECT_TRUE(S.ok()) << S.message();
}

TEST(FileIO, WriteFailuresAreErrors) {
  const MaoStatus Missing = writeWholeFile("/nonexistent-dir/x.s", "text");
  ASSERT_FALSE(Missing.ok());
  EXPECT_EQ(Missing.message(),
            "cannot write /nonexistent-dir/x.s: No such file or directory");
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "no /dev/full";
  const MaoStatus Full = writeWholeFile("/dev/full", "text");
  ASSERT_FALSE(Full.ok());
  EXPECT_EQ(Full.message(), "cannot write /dev/full: No space left on device");
}

// --- The @seed suffix of a fault spec ---------------------------------------

/// The first 64 encoder-site decisions of the armed injector, then reset.
std::string encoderDraws() {
  FaultInjector &FI = FaultInjector::instance();
  std::string Draws;
  for (int I = 0; I < 64; ++I)
    Draws += FI.shouldFail(FaultSite::Encoder) ? '1' : '0';
  FI.reset();
  return Draws;
}

TEST(FaultSeed, SuffixReadsAsTheSeedArgument) {
  std::string Spec;
  uint64_t Seed = 1;
  ASSERT_TRUE(splitFaultSeed("encoder:500@7", Spec, Seed).ok());
  EXPECT_EQ(Spec, "encoder:500");
  EXPECT_EQ(Seed, 7u);
  ASSERT_TRUE(splitFaultSeed("encoder:500", Spec, Seed).ok());
  EXPECT_EQ(Spec, "encoder:500");
  EXPECT_EQ(Seed, 7u); // No suffix: the seed keeps its value.

  FaultInjector &FI = FaultInjector::instance();
  ASSERT_TRUE(FI.configure("encoder:500", 7).ok());
  const std::string ByArgument = encoderDraws();
  ASSERT_EQ(setenv("MAO_FAULT_INJECT", "encoder:500@7", 1), 0);
  FI.configureFromEnv();
  unsetenv("MAO_FAULT_INJECT");
  EXPECT_EQ(encoderDraws(), ByArgument);
  EXPECT_NE(ByArgument.find('1'), std::string::npos);

  auto CmdOr = parseCommandLine({"--mao-fault-inject=encoder:500@7", "a.s"});
  ASSERT_TRUE(CmdOr.ok()) << CmdOr.message();
  EXPECT_EQ(CmdOr->FaultSpec, "encoder:500");
  EXPECT_EQ(CmdOr->FaultSeed, 7u);
}

TEST(FaultSeed, BadSeedsAreRejectedEverywhere) {
  for (const char *Bad : {"@abc", "@", "@1x"}) {
    const std::string Payload = std::string("encoder:50") + Bad;
    std::string Spec;
    uint64_t Seed = 1;
    const MaoStatus S = splitFaultSeed(Payload, Spec, Seed);
    ASSERT_FALSE(S.ok()) << Payload;
    EXPECT_EQ(S.message(), std::string("seed must be an integer; got '") +
                               (Bad + 1) + "'");
    auto CmdOr = parseCommandLine({"--mao-fault-inject=" + Payload, "a.s"});
    ASSERT_FALSE(CmdOr.ok()) << Payload;
    EXPECT_EQ(CmdOr.message(), "--mao-fault-inject " + S.message());

    FaultInjector &FI = FaultInjector::instance();
    FI.reset();
    ASSERT_EQ(setenv("MAO_FAULT_INJECT", Payload.c_str(), 1), 0);
    ::testing::internal::CaptureStderr();
    FI.configureFromEnv();
    const std::string Err = ::testing::internal::GetCapturedStderr();
    unsetenv("MAO_FAULT_INJECT");
    EXPECT_FALSE(FI.siteEnabled(FaultSite::Encoder)) << Payload;
    EXPECT_EQ(Err, "mao: ignoring MAO_FAULT_INJECT: " + S.message() + "\n");
    FI.reset();
  }
}

// --- Option parsing (the paper's --mao= syntax) -----------------------------

TEST(Options, SinglePassNoOptions) {
  std::vector<PassRequest> Requests;
  ASSERT_TRUE(parseMaoOption("REDTEST", Requests).ok());
  ASSERT_EQ(Requests.size(), 1u);
  EXPECT_EQ(Requests[0].PassName, "REDTEST");
  EXPECT_TRUE(Requests[0].Options.all().empty());
}

TEST(Options, MultipleOptionsPerPass) {
  std::vector<PassRequest> Requests;
  ASSERT_TRUE(
      parseMaoOption("NOPIN=seed[42],density[15],maxlen[3]", Requests).ok());
  ASSERT_EQ(Requests.size(), 1u);
  EXPECT_EQ(Requests[0].Options.getInt("seed", 0), 42);
  EXPECT_EQ(Requests[0].Options.getInt("density", 0), 15);
  EXPECT_EQ(Requests[0].Options.getInt("maxlen", 0), 3);
}

TEST(Options, ValuesMayContainColons) {
  // ASM=o[/dev/null] style values may contain path separators and colons.
  std::vector<PassRequest> Requests;
  ASSERT_TRUE(parseMaoOption("ASM=o[a:b/c.s]:LFIND", Requests).ok());
  ASSERT_EQ(Requests.size(), 2u);
  EXPECT_EQ(Requests[0].Options.getString("o"), "a:b/c.s");
  EXPECT_EQ(Requests[1].PassName, "LFIND");
}

TEST(Options, FlagOptionsWithoutValues) {
  std::vector<PassRequest> Requests;
  ASSERT_TRUE(parseMaoOption("LOOP16=verbose,maxsize[8]", Requests).ok());
  EXPECT_TRUE(Requests[0].Options.has("verbose"));
  EXPECT_TRUE(Requests[0].Options.getBool("verbose"));
  EXPECT_EQ(Requests[0].Options.getInt("maxsize", 0), 8);
}

TEST(Options, MalformedInputsRejected) {
  std::vector<PassRequest> Requests;
  EXPECT_FALSE(parseMaoOption("", Requests).ok());
  EXPECT_FALSE(parseMaoOption("PASS=opt[unclosed", Requests).ok());
  EXPECT_FALSE(parseMaoOption("PASS:", Requests).ok());
  EXPECT_FALSE(parseMaoOption("=opt[1]", Requests).ok());
}

TEST(Options, CommandLineSplitsKinds) {
  auto CmdOr = parseCommandLine(
      {"--mao=ZEE:ASM=o[out.s]", "--64", "input.s"});
  ASSERT_TRUE(CmdOr.ok());
  EXPECT_EQ(CmdOr->Passes.size(), 2u);
  ASSERT_EQ(CmdOr->Passthrough.size(), 1u);
  EXPECT_EQ(CmdOr->Passthrough[0], "--64");
  ASSERT_EQ(CmdOr->Inputs.size(), 1u);
  EXPECT_EQ(CmdOr->Inputs[0], "input.s");
}

TEST(Options, RelaxModeFlagIsGone) {
  // There is one relaxation, gas's; the flag that chose between two is an
  // unknown option now.
  auto CmdOr = parseCommandLine({"--mao-relax=optimal", "input.s"});
  ASSERT_FALSE(CmdOr.ok());
  EXPECT_NE(CmdOr.message().find("unknown option '--mao-relax=optimal'"),
            std::string::npos)
      << CmdOr.message();
}

TEST(Options, DriverFlagsLandInFacadeFields) {
  // One row per settable driver flag: the argument, and a check that reads
  // the field it must land in. Every check fails on a default command line,
  // so a flag bound to the wrong field (or to none) is caught.
  struct Row {
    const char *Arg;
    bool (*Landed)(const MaoCommandLine &);
  };
  const Row Rows[] = {
      {"--mao=ZEE:LOOP16=maxsize[8]",
       [](const MaoCommandLine &C) {
         return C.Passes.size() == 2 && C.Passes[1].Name == "LOOP16" &&
                C.Passes[1].Options.size() == 1 &&
                C.Passes[1].Options[0].first == "maxsize" &&
                C.Passes[1].Options[0].second == "8";
       }},
      {"--mao-passes=zee,sched(window=8)",
       [](const MaoCommandLine &C) {
         return C.PassSpecs.size() == 1 &&
                C.PassSpecs[0] == "zee,sched(window=8)";
       }},
      {"--mao-help", [](const MaoCommandLine &C) { return C.Help; }},
      {"--mao-on-error=rollback",
       [](const MaoCommandLine &C) {
         return C.Optimize.OnError == "rollback";
       }},
      {"--mao-verify",
       [](const MaoCommandLine &C) {
         return C.Optimize.VerifyAfterEachPass;
       }},
      {"--mao-validate=semantic",
       [](const MaoCommandLine &C) {
         return C.Optimize.Validate == "semantic";
       }},
      {"--mao-pass-timeout-ms=250",
       [](const MaoCommandLine &C) {
         return C.Optimize.PassTimeoutMs == 250;
       }},
      {"--mao-jobs=3",
       [](const MaoCommandLine &C) {
         return C.Optimize.Jobs == 3 && C.Lint.Jobs == 3 &&
                C.Tune.Jobs == 3 && C.Synth.Jobs == 3;
       }},
      {"--mao-fault-inject=pass:10@7",
       [](const MaoCommandLine &C) {
         return C.FaultSpec == "pass:10" && C.FaultSeed == 7;
       }},
      {"--mao-sarif=out.sarif",
       [](const MaoCommandLine &C) {
         return C.Session.SarifPath == "out.sarif";
       }},
      {"--mao-report=r.json",
       [](const MaoCommandLine &C) { return C.ReportPath == "r.json"; }},
      {"--stats", [](const MaoCommandLine &C) { return C.Stats; }},
      {"--mao-trace-out=t.json",
       [](const MaoCommandLine &C) {
         return C.Session.TraceOutPath == "t.json";
       }},
      {"--mao-trace-level=2",
       [](const MaoCommandLine &C) { return C.TraceLevel == 2; }},
      {"--cache-dir=cache",
       [](const MaoCommandLine &C) { return C.CacheDir == "cache"; }},
      {"--connect=sock",
       [](const MaoCommandLine &C) { return C.ConnectPath == "sock"; }},
      {"--cache-verify", [](const MaoCommandLine &C) { return C.CacheVerify; }},
      {"--mao-score-cache-budget=4096",
       [](const MaoCommandLine &C) {
         return C.Tune.ScoreCacheBudgetBytes == 4096;
       }},
      {"--cache-budget=8192",
       [](const MaoCommandLine &C) { return C.CacheBudget == 8192; }},
      {"--lint", [](const MaoCommandLine &C) { return C.RunLint; }},
      {"--lint-werror",
       [](const MaoCommandLine &C) { return C.Lint.WarningsAsErrors; }},
      {"--lint-no-interproc",
       [](const MaoCommandLine &C) { return !C.Lint.Interprocedural; }},
      {"--lint-baseline=b.txt",
       [](const MaoCommandLine &C) {
         return C.Lint.BaselinePath == "b.txt";
       }},
      {"--lint-baseline-out=o.txt",
       [](const MaoCommandLine &C) {
         return C.Lint.BaselineOutPath == "o.txt";
       }},
      {"--tune", [](const MaoCommandLine &C) { return C.RunTune; }},
      {"--tune-budget=small",
       [](const MaoCommandLine &C) { return C.Tune.Budget == "small"; }},
      {"--tune-report=t.json",
       [](const MaoCommandLine &C) {
         return C.TuneReportPath == "t.json";
       }},
      {"--tune-seed=9", [](const MaoCommandLine &C) { return C.Tune.Seed == 9; }},
      {"--tune-config=opteron",
       [](const MaoCommandLine &C) { return C.Tune.Config == "opteron"; }},
      {"--tune-entry=kernel",
       [](const MaoCommandLine &C) { return C.Tune.Entry == "kernel"; }},
      {"--tune-synth-axis",
       [](const MaoCommandLine &C) { return C.Tune.SynthAxis; }},
      {"--tune-layout-axis",
       [](const MaoCommandLine &C) { return C.Tune.LayoutAxis; }},
      {"--synth", [](const MaoCommandLine &C) { return C.RunSynth; }},
      {"--synth-out=rules.def",
       [](const MaoCommandLine &C) {
         return C.Synth.OutPath == "rules.def";
       }},
      {"--synth-window=1",
       [](const MaoCommandLine &C) { return C.Synth.MaxWindow == 1; }},
      {"--synth-max-rules=4",
       [](const MaoCommandLine &C) { return C.Synth.MaxRules == 4; }},
      {"--synth-seed=5",
       [](const MaoCommandLine &C) { return C.Synth.Seed == 5; }},
      {"--synth-config=opteron",
       [](const MaoCommandLine &C) { return C.Synth.Config == "opteron"; }},
      {"--synth-no-workloads",
       [](const MaoCommandLine &C) { return !C.Synth.IncludeWorkloads; }},
      {"--synth-rules=rules.def",
       [](const MaoCommandLine &C) { return C.SynthRules == "rules.def"; }},
      {"--synth-verify",
       [](const MaoCommandLine &C) { return C.SynthVerify; }},
  };
  const MaoCommandLine Defaults = *parseCommandLine({});
  for (const Row &R : Rows) {
    SCOPED_TRACE(R.Arg);
    EXPECT_FALSE(R.Landed(Defaults));
    auto CmdOr = parseCommandLine({R.Arg, "in.s"});
    ASSERT_TRUE(CmdOr.ok()) << CmdOr.message();
    EXPECT_TRUE(R.Landed(*CmdOr));
  }

  // The table covers every flag the help reference lists, one per line.
  std::istringstream Help(driverOptionHelp());
  size_t Listed = 0;
  for (std::string Line; std::getline(Help, Line);)
    Listed += Line.rfind("  --", 0) == 0;
  EXPECT_EQ(Listed, std::size(Rows));
}

TEST(Options, DefaultsApplyWhenUnset) {
  MaoOptionMap Map;
  EXPECT_EQ(Map.getInt("trace", 7), 7);
  EXPECT_EQ(Map.getString("o", "-"), "-");
  EXPECT_TRUE(Map.getBool("x", true));
  Map.set("trace", "notanumber");
  EXPECT_EQ(Map.getInt("trace", 7), 7);
}

// --- Deterministic random source --------------------------------------------

TEST(Random, DeterministicStreams) {
  RandomSource A(12345), B(12345), C(54321);
  bool AllEqual = true, AnyDiffer = false;
  for (int I = 0; I < 100; ++I) {
    uint64_t VA = A.next(), VB = B.next(), VC = C.next();
    AllEqual &= VA == VB;
    AnyDiffer |= VA != VC;
  }
  EXPECT_TRUE(AllEqual);
  EXPECT_TRUE(AnyDiffer);
}

TEST(Random, BoundsRespected) {
  RandomSource Rng(7);
  for (int I = 0; I < 1000; ++I) {
    EXPECT_LT(Rng.nextBelow(10), 10u);
    int64_t V = Rng.nextInRange(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
  }
}

TEST(Random, ChanceIsRoughlyCalibrated) {
  RandomSource Rng(99);
  int Hits = 0;
  for (int I = 0; I < 10000; ++I)
    Hits += Rng.nextChance(1, 4) ? 1 : 0;
  EXPECT_GT(Hits, 2200);
  EXPECT_LT(Hits, 2800);
}

// --- Status / ErrorOr --------------------------------------------------------

// --- Stable digests and JSON escaping -------------------------------------

TEST(Hash, Fnv1a64KnownAnswers) {
  // The published FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
  // Chaining folds the second part into the first part's state.
  EXPECT_EQ(fnv1a64("bar", fnv1a64("foo")), fnv1a64("foobar"));
}

TEST(Hash, DiagFingerprintIsStable) {
  // Lint baselines store these values; the digest must never move.
  EXPECT_EQ(diagFingerprint(DiagCode::PassFailed, "pass X failed"),
            0x51f0101c94799ae6ULL);
}

TEST(Json, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(jsonEscape("\n\t\r"), "\\n\\t\\r");
  EXPECT_EQ(jsonEscape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
}

TEST(Status, SuccessAndError) {
  MaoStatus Ok = MaoStatus::success();
  EXPECT_TRUE(Ok.ok());
  EXPECT_FALSE(static_cast<bool>(Ok));
  MaoStatus Err = MaoStatus::error("boom");
  EXPECT_FALSE(Err.ok());
  EXPECT_TRUE(static_cast<bool>(Err));
  EXPECT_EQ(Err.message(), "boom");
}

TEST(Status, ErrorOrHoldsEither) {
  ErrorOr<int> Value(42);
  ASSERT_TRUE(Value.ok());
  EXPECT_EQ(*Value, 42);
  ErrorOr<int> Err(MaoStatus::error("nope"));
  ASSERT_FALSE(Err.ok());
  EXPECT_EQ(Err.message(), "nope");
}

TEST(Status, ErrorOrTakeMoves) {
  ErrorOr<std::string> Value(std::string("payload"));
  std::string Taken = Value.take();
  EXPECT_EQ(Taken, "payload");
}

} // namespace
