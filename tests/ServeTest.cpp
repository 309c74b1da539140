//===- tests/ServeTest.cpp - Artifact cache, protocol, maod engine --------===//
//
// Exercises the service-mode subsystem (src/serve) end to end: the
// crash-safe on-disk artifact cache (torn/corrupt entries quarantined,
// injected filesystem faults contained), the length-prefixed framing
// protocol (truncation and checksum failures detected, never
// half-interpreted), the Session::cacheRun facade (warm hits
// byte-identical to a recompute, keys separate exactly the inputs that
// can change output bytes), and the Engine degradation ladder (a worker
// never dies and never returns wrong bytes). The client/server pair is
// driven over a real unix socket, including retry and clean shutdown.
//
//===----------------------------------------------------------------------===//

#include "GasOracle.h"
#include "mao/Mao.h"
#include "passes/PeepholeEngine.h"
#include "serve/ArtifactCache.h"
#include "serve/Protocol.h"
#include "serve/Serve.h"
#include "support/FaultInjection.h"
#include "support/FileIO.h"
#include "support/Stats.h"
#include "tune/ScoreCache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

namespace {

using mao::FaultInjector;
using mao::MaoStatus;
using mao::serve::ArtifactCache;
using mao::serve::CacheEntry;
using mao::serve::Frame;
using mao::serve::FrameKind;
using mao::serve::ServeRequest;
using mao::serve::ServeResponse;
using mao::serve::ServeStatus;

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

/// Unique scratch directory, removed (recursively, best-effort) on exit.
class TempDir {
public:
  TempDir() {
    char Template[] = "/tmp/mao-servetest-XXXXXX";
    const char *P = mkdtemp(Template);
    EXPECT_NE(P, nullptr);
    Dir = P ? P : "";
  }
  ~TempDir() {
    if (!Dir.empty())
      std::system(("rm -rf '" + Dir + "'").c_str());
  }
  const std::string &path() const { return Dir; }

private:
  std::string Dir;
};

/// Every test leaves the process-wide injector disarmed.
struct FaultGuard {
  FaultGuard() { FaultInjector::instance().reset(); }
  ~FaultGuard() { FaultInjector::instance().reset(); }
};

std::string readFile(const std::string &Path) {
  std::string Bytes;
  mao::readWholeFile(Path, Bytes);
  return Bytes;
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

CacheEntry sampleEntry() {
  CacheEntry E;
  E.set("output", "optimized bytes\n\0with a NUL" + std::string(1, '\0'));
  E.set("report", "{\"passes\":[]}\n");
  E.set("extra", "");
  return E;
}

// --- On-disk entry format -------------------------------------------------

TEST(ArtifactCacheFormat, SerializeParseRoundTrip) {
  const CacheEntry E = sampleEntry();
  const std::string Bytes = ArtifactCache::serializeEntry(0xdeadbeefULL, E);
  CacheEntry Parsed;
  MaoStatus S = ArtifactCache::parseEntry(Bytes, 0xdeadbeefULL, Parsed);
  ASSERT_FALSE(S) << S.message();
  ASSERT_EQ(Parsed.Sections.size(), E.Sections.size());
  for (size_t I = 0; I < E.Sections.size(); ++I) {
    EXPECT_EQ(Parsed.Sections[I].first, E.Sections[I].first);
    EXPECT_EQ(Parsed.Sections[I].second, E.Sections[I].second);
  }
}

TEST(ArtifactCacheFormat, ParseRejectsWrongKey) {
  const std::string Bytes =
      ArtifactCache::serializeEntry(1, sampleEntry());
  CacheEntry Parsed;
  EXPECT_TRUE(static_cast<bool>(ArtifactCache::parseEntry(Bytes, 2, Parsed)));
}

TEST(ArtifactCacheFormat, ParseRejectsEveryTruncation) {
  const std::string Bytes =
      ArtifactCache::serializeEntry(7, sampleEntry());
  CacheEntry Parsed;
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    MaoStatus S = ArtifactCache::parseEntry(Bytes.substr(0, Len), 7, Parsed);
    EXPECT_TRUE(static_cast<bool>(S)) << "truncation to " << Len
                                      << " bytes parsed successfully";
  }
}

TEST(ArtifactCacheFormat, ParseRejectsEverySingleBitFlip) {
  const std::string Bytes =
      ArtifactCache::serializeEntry(7, sampleEntry());
  CacheEntry Parsed;
  for (size_t I = 0; I < Bytes.size(); ++I) {
    std::string Flipped = Bytes;
    Flipped[I] = static_cast<char>(Flipped[I] ^ 0x01);
    MaoStatus S = ArtifactCache::parseEntry(Flipped, 7, Parsed);
    EXPECT_TRUE(static_cast<bool>(S)) << "bit flip at byte " << I
                                      << " parsed successfully";
  }
}

// --- Cache store/lookup and crash recovery --------------------------------

TEST(ArtifactCache, StoreLookupAcrossInstances) {
  TempDir Tmp;
  const CacheEntry E = sampleEntry();
  {
    ArtifactCache Cache;
    ASSERT_FALSE(Cache.open(Tmp.path()));
    ASSERT_FALSE(Cache.store(42, E));
    EXPECT_TRUE(fileExists(Cache.entryPath(42)));
    CacheEntry Out;
    EXPECT_TRUE(Cache.lookup(42, Out));
    ASSERT_NE(Out.find("output"), nullptr);
    EXPECT_EQ(*Out.find("output"), *E.find("output"));
    EXPECT_FALSE(Cache.lookup(43, Out)); // Never stored.
    const ArtifactCache::Stats St = Cache.stats();
    EXPECT_EQ(St.Stores, 1u);
    EXPECT_EQ(St.Hits, 1u);
    EXPECT_EQ(St.Misses, 1u);
    EXPECT_EQ(St.Entries, 1u);
  }
  // A second process (modelled by a second instance) sees the entry.
  ArtifactCache Cache;
  ASSERT_FALSE(Cache.open(Tmp.path()));
  EXPECT_EQ(Cache.stats().Entries, 1u);
  CacheEntry Out;
  EXPECT_TRUE(Cache.lookup(42, Out));
  ASSERT_NE(Out.find("report"), nullptr);
  EXPECT_EQ(*Out.find("report"), *E.find("report"));
}

TEST(ArtifactCache, CorruptEntryQuarantinedAndRecomputable) {
  TempDir Tmp;
  ArtifactCache Cache;
  ASSERT_FALSE(Cache.open(Tmp.path()));
  ASSERT_FALSE(Cache.store(42, sampleEntry()));

  // Tear the entry the way a crashed writer without atomic rename would:
  // keep a prefix only.
  const std::string Path = Cache.entryPath(42);
  const std::string Bytes = readFile(Path);
  ASSERT_GT(Bytes.size(), 8u);
  writeFile(Path, Bytes.substr(0, Bytes.size() / 2));

  CacheEntry Out;
  EXPECT_FALSE(Cache.lookup(42, Out)) << "torn entry served as a hit";
  EXPECT_FALSE(fileExists(Path)) << "torn entry left in place";
  EXPECT_EQ(Cache.stats().Quarantines, 1u);
  EXPECT_EQ(Cache.stats().Entries, 0u);

  // The caller recomputes and stores again; the cache is healthy.
  ASSERT_FALSE(Cache.store(42, sampleEntry()));
  EXPECT_TRUE(Cache.lookup(42, Out));
  EXPECT_EQ(Cache.stats().Entries, 1u);
}

TEST(ArtifactCache, BudgetEvictsOldestFirst) {
  TempDir Tmp;
  ArtifactCache Cache;
  ASSERT_FALSE(Cache.open(Tmp.path()));
  for (uint64_t K = 1; K <= 3; ++K)
    ASSERT_FALSE(Cache.store(K, sampleEntry()));
  // Identical sections make every entry the same size on disk.
  const uint64_t One = std::filesystem::file_size(Cache.entryPath(1));
  // Age the entries deterministically: key 1 is the oldest.
  const auto Now = std::filesystem::last_write_time(Cache.entryPath(3));
  std::filesystem::last_write_time(Cache.entryPath(1),
                                   Now - std::chrono::seconds(20));
  std::filesystem::last_write_time(Cache.entryPath(2),
                                   Now - std::chrono::seconds(10));
  Cache.setByteBudget(3 * One); // Room for exactly three entries.
  const uint64_t EvictionsBefore =
      mao::StatsRegistry::instance().counter("serve.cache_evictions").value();

  ASSERT_FALSE(Cache.store(4, sampleEntry())); // Fourth entry: over budget.

  CacheEntry Out;
  EXPECT_FALSE(fileExists(Cache.entryPath(1))) << "oldest entry not evicted";
  EXPECT_TRUE(Cache.lookup(2, Out));
  EXPECT_TRUE(Cache.lookup(3, Out));
  EXPECT_TRUE(Cache.lookup(4, Out));
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  EXPECT_EQ(Cache.stats().Entries, 3u);
  EXPECT_EQ(mao::StatsRegistry::instance()
                .counter("serve.cache_evictions")
                .value(),
            EvictionsBefore + 1);
}

TEST(ArtifactCache, OverBudgetDirectoryIsTrimmedOnOpen) {
  TempDir Tmp;
  uint64_t One = 0;
  {
    ArtifactCache Writer;
    ASSERT_FALSE(Writer.open(Tmp.path()));
    for (uint64_t K = 1; K <= 4; ++K)
      ASSERT_FALSE(Writer.store(K, sampleEntry()));
    One = std::filesystem::file_size(Writer.entryPath(1));
    const auto Now = std::filesystem::last_write_time(Writer.entryPath(4));
    for (uint64_t K = 1; K <= 3; ++K)
      std::filesystem::last_write_time(
          Writer.entryPath(K),
          Now - std::chrono::seconds(10 * (4 - K)));
  }
  // A budget set before open() trims the pre-existing directory.
  ArtifactCache Cache;
  Cache.setByteBudget(2 * One);
  ASSERT_FALSE(Cache.open(Tmp.path()));
  EXPECT_EQ(Cache.stats().Evictions, 2u);
  EXPECT_EQ(Cache.stats().Entries, 2u);
  CacheEntry Out;
  EXPECT_FALSE(Cache.lookup(1, Out));
  EXPECT_FALSE(Cache.lookup(2, Out));
  EXPECT_TRUE(Cache.lookup(3, Out));
  EXPECT_TRUE(Cache.lookup(4, Out));
}

TEST(ArtifactCache, ZeroBudgetNeverEvicts) {
  TempDir Tmp;
  ArtifactCache Cache;
  ASSERT_FALSE(Cache.open(Tmp.path()));
  for (uint64_t K = 1; K <= 8; ++K)
    ASSERT_FALSE(Cache.store(K, sampleEntry()));
  EXPECT_EQ(Cache.byteBudget(), 0u);
  EXPECT_EQ(Cache.stats().Evictions, 0u);
  EXPECT_EQ(Cache.stats().Entries, 8u);
  CacheEntry Out;
  for (uint64_t K = 1; K <= 8; ++K)
    EXPECT_TRUE(Cache.lookup(K, Out)) << "key " << K;
}

TEST(ArtifactCache, OpenSweepsStaleTempFiles) {
  TempDir Tmp;
  writeFile(Tmp.path() + "/0000000000000042.mao.tmp.123.7", "partial write");
  ArtifactCache Cache;
  ASSERT_FALSE(Cache.open(Tmp.path()));
  EXPECT_GE(Cache.stats().StaleTmpRemoved, 1u);
  EXPECT_FALSE(fileExists(Tmp.path() + "/0000000000000042.mao.tmp.123.7"));
}

TEST(ArtifactCache, FsckQuarantinesCorruptEntries) {
  TempDir Tmp;
  ArtifactCache Cache;
  ASSERT_FALSE(Cache.open(Tmp.path()));
  ASSERT_FALSE(Cache.store(1, sampleEntry()));
  ASSERT_FALSE(Cache.store(2, sampleEntry()));
  std::string Bytes = readFile(Cache.entryPath(2));
  Bytes[Bytes.size() / 2] = static_cast<char>(Bytes[Bytes.size() / 2] ^ 0x40);
  writeFile(Cache.entryPath(2), Bytes);

  EXPECT_EQ(Cache.fsck(), 1u);
  EXPECT_EQ(Cache.stats().Quarantines, 1u);
  EXPECT_EQ(Cache.stats().Entries, 1u);
  CacheEntry Out;
  EXPECT_TRUE(Cache.lookup(1, Out));
  EXPECT_FALSE(Cache.lookup(2, Out));
}

TEST(ArtifactCache, InjectedWriteFaultsNeverPublishTornEntries) {
  FaultGuard Guard;
  TempDir Tmp;
  ArtifactCache Cache;
  ASSERT_FALSE(Cache.open(Tmp.path()));

  for (const char *Spec : {"fswrite:1000", "fsrename:1000"}) {
    ASSERT_FALSE(FaultInjector::instance().configure(Spec, 42));
    MaoStatus S = Cache.store(42, sampleEntry());
    EXPECT_TRUE(static_cast<bool>(S)) << Spec << ": store succeeded";
    EXPECT_FALSE(fileExists(Cache.entryPath(42)))
        << Spec << ": a failed store became visible";
    CacheEntry Out;
    EXPECT_FALSE(Cache.lookup(42, Out));
    FaultInjector::instance().reset();
  }
  EXPECT_EQ(Cache.stats().StoreFailures, 2u);

  // With faults off the same store succeeds and the entry is intact.
  ASSERT_FALSE(Cache.store(42, sampleEntry()));
  CacheEntry Out;
  EXPECT_TRUE(Cache.lookup(42, Out));
  ASSERT_NE(Out.find("output"), nullptr);
  EXPECT_EQ(*Out.find("output"), *sampleEntry().find("output"));
}

TEST(ArtifactCache, InjectedReadCorruptionIsQuarantinedNotServed) {
  FaultGuard Guard;
  TempDir Tmp;
  ArtifactCache Cache;
  ASSERT_FALSE(Cache.open(Tmp.path()));
  ASSERT_FALSE(Cache.store(42, sampleEntry()));

  ASSERT_FALSE(FaultInjector::instance().configure("cacheread:1000", 42));
  CacheEntry Out;
  EXPECT_FALSE(Cache.lookup(42, Out)) << "bit-flipped read served as a hit";
  FaultInjector::instance().reset();

  EXPECT_EQ(Cache.stats().Quarantines, 1u);
  ASSERT_FALSE(Cache.store(42, sampleEntry()));
  EXPECT_TRUE(Cache.lookup(42, Out));
}

// --- Framing protocol -----------------------------------------------------

TEST(Protocol, FrameRoundTripAndCleanEof) {
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  Frame In;
  In.Kind = FrameKind::Request;
  In.Payload = std::string("payload with \0 NUL", 18);
  ASSERT_FALSE(mao::serve::writeFrame(Fds[1], In));
  Frame Empty;
  Empty.Kind = FrameKind::Shutdown;
  ASSERT_FALSE(mao::serve::writeFrame(Fds[1], Empty));
  ::close(Fds[1]);

  Frame Out;
  bool CleanEof = true;
  ASSERT_FALSE(mao::serve::readFrame(Fds[0], Out, CleanEof));
  EXPECT_FALSE(CleanEof);
  EXPECT_EQ(Out.Kind, FrameKind::Request);
  EXPECT_EQ(Out.Payload, In.Payload);
  ASSERT_FALSE(mao::serve::readFrame(Fds[0], Out, CleanEof));
  EXPECT_EQ(Out.Kind, FrameKind::Shutdown);
  EXPECT_TRUE(Out.Payload.empty());
  // Peer closed between frames: orderly EOF, not an error.
  MaoStatus S = mao::serve::readFrame(Fds[0], Out, CleanEof);
  EXPECT_FALSE(S) << S.message();
  EXPECT_TRUE(CleanEof);
  ::close(Fds[0]);
}

TEST(Protocol, TornFrameIsAnErrorNotAnEof) {
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  Frame In;
  In.Kind = FrameKind::Response;
  In.Payload = "some payload";
  // Capture the wire bytes, then replay only a prefix.
  int Capture[2];
  ASSERT_EQ(::pipe(Capture), 0);
  ASSERT_FALSE(mao::serve::writeFrame(Capture[1], In));
  ::close(Capture[1]);
  std::string Wire(4096, '\0');
  const ssize_t N = ::read(Capture[0], Wire.data(), Wire.size());
  ASSERT_GT(N, 0);
  Wire.resize(static_cast<size_t>(N));
  ::close(Capture[0]);

  ASSERT_EQ(::write(Fds[1], Wire.data(), Wire.size() - 5),
            static_cast<ssize_t>(Wire.size() - 5));
  ::close(Fds[1]);
  Frame Out;
  bool CleanEof = false;
  MaoStatus S = mao::serve::readFrame(Fds[0], Out, CleanEof);
  EXPECT_TRUE(static_cast<bool>(S));
  EXPECT_FALSE(CleanEof);
  ::close(Fds[0]);
}

TEST(Protocol, CorruptedPayloadFailsTheChecksum) {
  int Capture[2];
  ASSERT_EQ(::pipe(Capture), 0);
  Frame In;
  In.Kind = FrameKind::Response;
  In.Payload = "bytes that will be corrupted in transit";
  ASSERT_FALSE(mao::serve::writeFrame(Capture[1], In));
  ::close(Capture[1]);
  std::string Wire(4096, '\0');
  const ssize_t N = ::read(Capture[0], Wire.data(), Wire.size());
  ASSERT_GT(N, 0);
  Wire.resize(static_cast<size_t>(N));
  ::close(Capture[0]);

  Wire[Wire.size() - 3] = static_cast<char>(Wire[Wire.size() - 3] ^ 0x10);
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  ASSERT_EQ(::write(Fds[1], Wire.data(), Wire.size()),
            static_cast<ssize_t>(Wire.size()));
  ::close(Fds[1]);
  Frame Out;
  bool CleanEof = false;
  MaoStatus S = mao::serve::readFrame(Fds[0], Out, CleanEof);
  ASSERT_TRUE(static_cast<bool>(S));
  EXPECT_NE(S.message().find("checksum"), std::string::npos) << S.message();
  ::close(Fds[0]);
}

TEST(Protocol, OversizedLengthPrefixIsRefusedBeforeAllocating) {
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  Frame In;
  In.Kind = FrameKind::Request;
  In.Payload = "small";
  ASSERT_FALSE(mao::serve::writeFrame(Fds[1], In));
  ::close(Fds[1]);
  Frame Out;
  bool CleanEof = false;
  MaoStatus S = mao::serve::readFrame(Fds[0], Out, CleanEof, /*MaxPayload=*/2);
  ASSERT_TRUE(static_cast<bool>(S));
  EXPECT_NE(S.message().find("too large"), std::string::npos) << S.message();
  ::close(Fds[0]);
}

TEST(Protocol, InjectedTruncationSurfacesAsTornFrame) {
  FaultGuard Guard;
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  Frame In;
  In.Kind = FrameKind::Request;
  In.Payload = "doomed";
  ASSERT_FALSE(mao::serve::writeFrame(Fds[1], In));
  ::close(Fds[1]);
  ASSERT_FALSE(FaultInjector::instance().configure("frame:1000", 42));
  Frame Out;
  bool CleanEof = false;
  MaoStatus S = mao::serve::readFrame(Fds[0], Out, CleanEof);
  ASSERT_TRUE(static_cast<bool>(S));
  EXPECT_NE(S.message().find("truncated"), std::string::npos) << S.message();
  ::close(Fds[0]);
}

TEST(Protocol, RequestResponseCodecRoundTrip) {
  ServeRequest R;
  R.Name = "kernel.s";
  R.Source = std::string("source with \0 NUL bytes", 23);
  R.Pipeline = "zee,sched(window=8)";
  R.OnError = "skip";
  R.Validate = "structural";
  R.Jobs = 4;
  R.DeadlineMs = 1500;
  R.Verify = 1;
  ServeRequest R2;
  ASSERT_FALSE(mao::serve::decodeRequest(mao::serve::encodeRequest(R), R2));
  EXPECT_EQ(R2.Name, R.Name);
  EXPECT_EQ(R2.Source, R.Source);
  EXPECT_EQ(R2.Pipeline, R.Pipeline);
  EXPECT_EQ(R2.OnError, R.OnError);
  EXPECT_EQ(R2.Validate, R.Validate);
  EXPECT_EQ(R2.Jobs, R.Jobs);
  EXPECT_EQ(R2.DeadlineMs, R.DeadlineMs);
  EXPECT_EQ(R2.Verify, R.Verify);

  ServeResponse P;
  P.Status = ServeStatus::DegradedIdentity;
  P.CacheHit = true;
  P.Output = "out";
  P.Report = "{}";
  P.Diagnostic = "why";
  ServeResponse P2;
  ASSERT_FALSE(mao::serve::decodeResponse(mao::serve::encodeResponse(P), P2));
  EXPECT_EQ(P2.Status, P.Status);
  EXPECT_TRUE(P2.CacheHit);
  EXPECT_EQ(P2.Output, P.Output);
  EXPECT_EQ(P2.Report, P.Report);
  EXPECT_EQ(P2.Diagnostic, P.Diagnostic);
}

TEST(Protocol, SchemaTwoRequestIsAnsweredWithAnError) {
  // Schema 2 carried a relax-mode string before the verify flag; the
  // server answers such a frame with an error frame.
  std::string Old = mao::serve::encodeRequest(ServeRequest());
  Old[0] = 2;
  Old.insert(Old.size() - 4, std::string("\x04\0\0\0grow", 8));
  int In[2], Out[2];
  ASSERT_EQ(::pipe(In), 0);
  ASSERT_EQ(::pipe(Out), 0);
  ASSERT_FALSE(mao::serve::writeFrame(In[1], Frame{FrameKind::Request, Old}));
  ::close(In[1]);
  mao::serve::Server Server{mao::serve::ServerOptions{}};
  EXPECT_FALSE(Server.runOnFds(In[0], Out[1]));
  ::close(In[0]);
  ::close(Out[1]);
  Frame Reply;
  bool CleanEof = false;
  ASSERT_FALSE(mao::serve::readFrame(Out[0], Reply, CleanEof));
  ::close(Out[0]);
  EXPECT_EQ(Reply.Kind, FrameKind::Error);
  EXPECT_EQ(Reply.Payload, "unsupported request schema 2");
}

TEST(Protocol, CodecRejectsTruncationAndTrailingBytes) {
  const std::string Request = mao::serve::encodeRequest(ServeRequest());
  ServeRequest R;
  for (size_t Len = 0; Len < Request.size(); ++Len)
    EXPECT_TRUE(static_cast<bool>(
        mao::serve::decodeRequest(Request.substr(0, Len), R)))
        << "request truncated to " << Len << " bytes decoded";
  EXPECT_TRUE(static_cast<bool>(mao::serve::decodeRequest(Request + "x", R)));

  const std::string Response = mao::serve::encodeResponse(ServeResponse());
  ServeResponse P;
  for (size_t Len = 0; Len < Response.size(); ++Len)
    EXPECT_TRUE(static_cast<bool>(
        mao::serve::decodeResponse(Response.substr(0, Len), P)))
        << "response truncated to " << Len << " bytes decoded";
  EXPECT_TRUE(
      static_cast<bool>(mao::serve::decodeResponse(Response + "x", P)));
}

// --- Session::cacheRun (facade) -------------------------------------------

mao::api::CachedRunRequest kernelRequest() {
  mao::api::CachedRunRequest Request;
  Request.Source = kKernel;
  Request.Name = "kernel.s";
  EXPECT_TRUE(
      mao::api::Session::parsePipelineSpec("redtest", Request.Pipeline).Ok);
  Request.Options.OnError = "rollback";
  return Request;
}

TEST(CacheRun, WarmHitIsByteIdenticalToColdCompute) {
  TempDir Tmp;
  mao::api::Session Session;
  ASSERT_TRUE(Session.cacheOpen(Tmp.path() + "/cache").Ok);

  mao::api::CachedRunResult Cold, Warm;
  ASSERT_TRUE(Session.cacheRun(kernelRequest(), Cold).Ok);
  EXPECT_FALSE(Cold.CacheHit);
  EXPECT_EQ(Cold.Output.find("testl"), std::string::npos);
  EXPECT_FALSE(Cold.ReportJson.empty());

  ASSERT_TRUE(Session.cacheRun(kernelRequest(), Warm).Ok);
  EXPECT_TRUE(Warm.CacheHit);
  EXPECT_EQ(Warm.Output, Cold.Output);
  EXPECT_EQ(Warm.ReportJson, Cold.ReportJson);

  // A different session (fresh process, same binary) hits the same entry.
  mao::api::Session Other;
  ASSERT_TRUE(Other.cacheOpen(Tmp.path() + "/cache").Ok);
  mao::api::CachedRunResult Reused;
  ASSERT_TRUE(Other.cacheRun(kernelRequest(), Reused).Ok);
  EXPECT_TRUE(Reused.CacheHit);
  EXPECT_EQ(Reused.Output, Cold.Output);
  EXPECT_EQ(Reused.ReportJson, Cold.ReportJson);

  const mao::api::ArtifactCounters Stats = Session.cacheStats();
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Stores, 1u);
}

TEST(CacheRun, VerifyHitRecomputesAndAgrees) {
  TempDir Tmp;
  mao::api::Session Session;
  ASSERT_TRUE(Session.cacheOpen(Tmp.path()).Ok);
  mao::api::CachedRunResult First;
  ASSERT_TRUE(Session.cacheRun(kernelRequest(), First).Ok);

  mao::api::CachedRunRequest Paranoid = kernelRequest();
  Paranoid.VerifyHit = true;
  mao::api::CachedRunResult Verified;
  mao::api::Status S = Session.cacheRun(Paranoid, Verified);
  ASSERT_TRUE(S.Ok) << S.Message;
  EXPECT_TRUE(Verified.CacheHit);
  EXPECT_EQ(Verified.Output, First.Output);
}

TEST(CacheRun, JobsAndNameDoNotChangeTheKey) {
  const uint64_t Base = mao::api::Session::cacheKey(kernelRequest());

  mao::api::CachedRunRequest Jobs = kernelRequest();
  Jobs.Options.Jobs = 7;
  EXPECT_EQ(mao::api::Session::cacheKey(Jobs), Base)
      << "worker count leaked into the content key";

  mao::api::CachedRunRequest Renamed = kernelRequest();
  Renamed.Name = "other.s";
  EXPECT_EQ(mao::api::Session::cacheKey(Renamed), Base)
      << "diagnostic-only name leaked into the content key";
}

TEST(CacheRun, KeysAndDigestsAreStable) {
  // Persisted caches are addressed by these values, so a refactor of the
  // hashing must reproduce them exactly. The request key last changed with
  // the "mao-artifact-v2" tag, when relaxation became gas's.
  EXPECT_EQ(mao::api::Session::cacheKey(kernelRequest()),
            0x552dd665c55f24e6ULL);
  EXPECT_EQ(mao::peepholeRuleDigest(), 0x9557b51ec49a0d27ULL);
  mao::ScoreCache Scores("core2");
  mao::SectionBytes Bytes;
  Bytes[".text"] = {0x90, 0xc3};
  Bytes[".data"] = {1, 2, 3};
  EXPECT_EQ(Scores.keyFor(Bytes), 0x2839aa2e38da8da2ULL);
}

TEST(CacheRun, OutputAffectingInputsSeparateKeys) {
  const uint64_t Base = mao::api::Session::cacheKey(kernelRequest());

  mao::api::CachedRunRequest Source = kernelRequest();
  Source.Source += "\tnop\n";
  EXPECT_NE(mao::api::Session::cacheKey(Source), Base);

  mao::api::CachedRunRequest Pipeline = kernelRequest();
  Pipeline.Pipeline.clear();
  EXPECT_TRUE(
      mao::api::Session::parsePipelineSpec("zee", Pipeline.Pipeline).Ok);
  EXPECT_NE(mao::api::Session::cacheKey(Pipeline), Base);

  mao::api::CachedRunRequest OnError = kernelRequest();
  OnError.Options.OnError = "skip";
  EXPECT_NE(mao::api::Session::cacheKey(OnError), Base);

  mao::api::CachedRunRequest Timeout = kernelRequest();
  Timeout.Options.PassTimeoutMs = 123;
  EXPECT_NE(mao::api::Session::cacheKey(Timeout), Base);

  // A --synth-rules table with no synth rules drops the built-in ones.
  ASSERT_TRUE(mao::loadSynthPeepholeRules("").ok());
  const uint64_t NoSynthRules = mao::api::Session::cacheKey(kernelRequest());
  mao::resetPeepholeRules();
  EXPECT_NE(NoSynthRules, Base);
  EXPECT_EQ(mao::api::Session::cacheKey(kernelRequest()), Base);
}

TEST(CacheRun, WithoutAnOpenCacheItIsAPlainCompute) {
  mao::api::Session Session;
  EXPECT_FALSE(Session.cacheIsOpen());
  mao::api::CachedRunResult A, B;
  ASSERT_TRUE(Session.cacheRun(kernelRequest(), A).Ok);
  ASSERT_TRUE(Session.cacheRun(kernelRequest(), B).Ok);
  EXPECT_FALSE(A.CacheHit);
  EXPECT_FALSE(B.CacheHit);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.ReportJson, B.ReportJson);
}

TEST(CacheRun, StoreFaultIsADiagnosticNotAnError) {
  FaultGuard Guard;
  TempDir Tmp;
  mao::api::Session Session;
  ASSERT_TRUE(Session.cacheOpen(Tmp.path()).Ok);

  ASSERT_FALSE(FaultInjector::instance().configure("fswrite:1000", 42));
  mao::api::CachedRunResult Injected;
  mao::api::Status S = Session.cacheRun(kernelRequest(), Injected);
  FaultInjector::instance().reset();
  ASSERT_TRUE(S.Ok) << S.Message;
  EXPECT_FALSE(Injected.CacheHit);
  EXPECT_NE(Injected.Diagnostic.find("not cached"), std::string::npos)
      << Injected.Diagnostic;

  // The failed store left nothing behind; a clean run stores and the
  // bytes match the fault-injected compute exactly.
  mao::api::CachedRunResult Clean, Warm;
  ASSERT_TRUE(Session.cacheRun(kernelRequest(), Clean).Ok);
  EXPECT_FALSE(Clean.CacheHit);
  EXPECT_EQ(Clean.Output, Injected.Output);
  ASSERT_TRUE(Session.cacheRun(kernelRequest(), Warm).Ok);
  EXPECT_TRUE(Warm.CacheHit);
  EXPECT_EQ(Warm.Output, Clean.Output);
}

TEST(CacheRun, VerifyGateMatchesThePlainRun) {
  // A rollback run whose injected encoder fault only the final full verify
  // sees: the plain driver path refuses to emit the unit, and a cached run
  // must fail the same way and store nothing.
  FaultGuard Guard;
  TempDir Tmp;
  mao::api::CachedRunRequest Request;
  Request.Name = "tune_lsd.s";
  ASSERT_TRUE(mao::readWholeFile(
      std::string(MAO_EXAMPLES_DIR) + "/" + Request.Name, Request.Source));
  ASSERT_TRUE(mao::api::Session::parseClassicSpec(
                  "ZEE:REDTEST:REDMOV:ADDADD:LOOP16:SCHED", Request.Pipeline)
                  .Ok);
  Request.Options.OnError = "rollback";
  ASSERT_TRUE(Request.Options.verifiesEachPass());
  mao::api::Session::Config Quiet;
  Quiet.StderrDiagnostics = false;

  {
    mao::api::Session Plain(Quiet);
    ASSERT_TRUE(Plain.armFaultInjection("encoder:50", 7).Ok);
    mao::api::Program P;
    ASSERT_TRUE(Plain.parseText(Request.Source, Request.Name, P).Ok);
    ASSERT_TRUE(Plain.optimize(P, Request.Pipeline, Request.Options).Ok);
    mao::api::Status Gate = Plain.verify(P);
    ASSERT_FALSE(Gate.Ok);
    EXPECT_NE(Gate.Message.find("no longer encodes"), std::string::npos)
        << Gate.Message;
  }

  mao::api::Session Cached(Quiet);
  ASSERT_TRUE(Cached.cacheOpen(Tmp.path()).Ok);
  ASSERT_TRUE(Cached.armFaultInjection("encoder:50", 7).Ok);
  mao::api::CachedRunResult Result;
  mao::api::Status S = Cached.cacheRun(Request, Result);
  EXPECT_FALSE(S.Ok);
  EXPECT_NE(S.Message.find("no longer encodes"), std::string::npos)
      << S.Message;
  EXPECT_TRUE(Result.Output.empty());
  EXPECT_EQ(Cached.cacheStats().Stores, 0u);
}

// --- Engine degradation ladder --------------------------------------------

ServeRequest engineRequest() {
  ServeRequest R;
  R.Name = "kernel.s";
  R.Source = kKernel;
  R.Pipeline = "redtest";
  return R;
}

TEST(Engine, ColdThenWarmByteIdentical) {
  TempDir Tmp;
  mao::serve::EngineOptions Options;
  Options.CacheDir = Tmp.path() + "/cache";
  mao::serve::Engine Engine(Options);

  ServeResponse Cold = Engine.handle(engineRequest());
  ASSERT_EQ(Cold.Status, ServeStatus::Ok) << Cold.Diagnostic;
  EXPECT_FALSE(Cold.CacheHit);
  EXPECT_EQ(Cold.Output.find("testl"), std::string::npos);

  ServeResponse Warm = Engine.handle(engineRequest());
  ASSERT_EQ(Warm.Status, ServeStatus::Ok) << Warm.Diagnostic;
  EXPECT_TRUE(Warm.CacheHit);
  EXPECT_EQ(Warm.Output, Cold.Output);
  EXPECT_EQ(Warm.Report, Cold.Report);
}

TEST(Engine, VerifyReachesTheKeyOfALocalRun) {
  // maod and a local --cache-dir run over the same directory must agree
  // on the key, so every request field has to reach cacheRun.
  TempDir Tmp;
  mao::serve::EngineOptions Options;
  Options.CacheDir = Tmp.path() + "/cache";
  mao::serve::Engine Engine(Options);
  ServeRequest R = engineRequest();
  R.Source = mao::alignedLoopAsm();
  R.Pipeline = "loop16";
  R.Verify = 1;
  ServeResponse Served = Engine.handle(R);
  ASSERT_EQ(Served.Status, ServeStatus::Ok) << Served.Diagnostic;
  EXPECT_FALSE(Served.CacheHit);

  mao::api::Session Local;
  Local.cacheAttach(Engine.session());
  mao::api::CachedRunRequest Run;
  Run.Source = R.Source;
  ASSERT_TRUE(mao::api::Session::parsePipelineSpec(R.Pipeline, Run.Pipeline).Ok);
  Run.Options.OnError = R.OnError;
  Run.Options.VerifyAfterEachPass = true;
  mao::api::CachedRunResult Result;
  ASSERT_TRUE(Local.cacheRun(Run, Result).Ok);
  EXPECT_TRUE(Result.CacheHit);
  EXPECT_EQ(Result.Output, Served.Output);
}

TEST(Engine, OversizedRequestIsAStructuredError) {
  mao::serve::EngineOptions Options;
  Options.MaxRequestBytes = 16;
  mao::serve::Engine Engine(Options);
  ServeResponse R = Engine.handle(engineRequest());
  EXPECT_EQ(R.Status, ServeStatus::Error);
  EXPECT_FALSE(R.Diagnostic.empty());
  EXPECT_TRUE(R.Output.empty());
}

TEST(Engine, BadPipelineSpecIsAStructuredError) {
  mao::serve::Engine Engine(mao::serve::EngineOptions{});
  ServeRequest R = engineRequest();
  R.Pipeline = "no-such-pass";
  ServeResponse Out = Engine.handle(R);
  EXPECT_EQ(Out.Status, ServeStatus::Error);
  EXPECT_FALSE(Out.Diagnostic.empty());
}

TEST(Engine, UnparseableSourceIsAStructuredError) {
  mao::serve::Engine Engine(mao::serve::EngineOptions{});
  ServeRequest R = engineRequest();
  R.Source = "\t.ascii \"unterminated string literal\n";
  ServeResponse Out = Engine.handle(R);
  EXPECT_EQ(Out.Status, ServeStatus::Error);
  EXPECT_FALSE(Out.Diagnostic.empty());
}

TEST(Engine, PassFailureDegradesToIdentityNeverWrongBytes) {
  FaultGuard Guard;
  mao::serve::Engine Engine(mao::serve::EngineOptions{});
  ServeRequest R = engineRequest();
  R.OnError = "abort"; // Defeat the rollback rung so the ladder bottoms out.
  ASSERT_FALSE(FaultInjector::instance().configure("pass:1000", 42));
  ServeResponse Out = Engine.handle(R);
  FaultInjector::instance().reset();
  EXPECT_EQ(Out.Status, ServeStatus::DegradedIdentity);
  EXPECT_EQ(Out.Output, R.Source)
      << "degraded response must be the input passed through verbatim";
  EXPECT_FALSE(Out.Diagnostic.empty());
}

TEST(Engine, RollbackAbsorbsInjectedPassFailures) {
  FaultGuard Guard;
  mao::serve::Engine Engine(mao::serve::EngineOptions{});
  ServeRequest R = engineRequest();
  R.OnError = "rollback";
  ASSERT_FALSE(FaultInjector::instance().configure("pass:1000", 42));
  ServeResponse Out = Engine.handle(R);
  FaultInjector::instance().reset();
  // The pipeline's own OnError machinery is the middle rung: the request
  // still succeeds, with the failing pass rolled back.
  EXPECT_EQ(Out.Status, ServeStatus::Ok) << Out.Diagnostic;
  EXPECT_NE(Out.Output.find("bench_main"), std::string::npos);
}

// --- Server and client over a real unix socket ----------------------------

TEST(ServerClient, RequestShutdownRoundTrip) {
  TempDir Tmp;
  mao::serve::ServerOptions Options;
  Options.SocketPath = Tmp.path() + "/maod.sock";
  Options.Engine.CacheDir = Tmp.path() + "/cache";
  mao::serve::Server Server(Options);
  std::thread ServerThread([&Server] {
    MaoStatus S = Server.run();
    EXPECT_FALSE(S) << S.message();
  });

  mao::serve::ClientOptions Client;
  Client.SocketPath = Options.SocketPath;
  Client.Attempts = 50; // The server may not have bound yet; retry.
  Client.Deterministic = true;

  ServeResponse Cold;
  MaoStatus S;
  for (int Try = 0; Try < 100; ++Try) {
    S = mao::serve::clientRun(Client, engineRequest(), Cold);
    if (!S)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(S) << S.message();
  ASSERT_EQ(Cold.Status, ServeStatus::Ok) << Cold.Diagnostic;
  EXPECT_EQ(Cold.Output.find("testl"), std::string::npos);

  ServeResponse Warm;
  ASSERT_FALSE(mao::serve::clientRun(Client, engineRequest(), Warm));
  EXPECT_TRUE(Warm.CacheHit);
  EXPECT_EQ(Warm.Output, Cold.Output);

  ASSERT_FALSE(mao::serve::clientShutdown(Client));
  ServerThread.join();
  EXPECT_EQ(Server.requestsServed(), 2u);
  EXPECT_FALSE(fileExists(Options.SocketPath))
      << "socket file left behind after a clean stop";
}

/// Starts \p Server's accept loop and waits until it answers \p Client.
std::thread startServer(mao::serve::Server &Server,
                        const mao::serve::ClientOptions &Client) {
  std::thread T([&Server] {
    MaoStatus S = Server.run();
    EXPECT_FALSE(S) << S.message();
  });
  ServeResponse Ignored;
  for (int Try = 0; Try < 100; ++Try) {
    if (!mao::serve::clientRun(Client, engineRequest(), Ignored))
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return T;
}

/// A numeric field ("Threads", "VmSize") of /proc/self/status; -1 when
/// absent.
long procStatus(const std::string &Field) {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind(Field + ":", 0) == 0)
      return std::strtol(Line.c_str() + Field.size() + 1, nullptr, 10);
  return -1;
}

TEST(ServerClient, FinishedConnectionThreadsAreJoined) {
  TempDir Tmp;
  mao::serve::ServerOptions Options;
  Options.SocketPath = Tmp.path() + "/maod.sock";
  mao::serve::Server Server(Options);
  mao::serve::ClientOptions Client;
  Client.SocketPath = Options.SocketPath;
  Client.Deterministic = true;
  std::thread ServerThread = startServer(Server, Client);
  if (procStatus("Threads") < 0)
    GTEST_SKIP() << "no /proc/self/status";

  const long Threads0 = procStatus("Threads");
  const long VmKb0 = procStatus("VmSize");
  long MaxThreads = Threads0, MaxVmKb = VmKb0;
  for (unsigned I = 0; I < 300; ++I) {
    ServeResponse Out;
    ASSERT_FALSE(mao::serve::clientRun(Client, engineRequest(), Out));
    ASSERT_EQ(Out.Status, ServeStatus::Ok) << Out.Diagnostic;
    MaxThreads = std::max(MaxThreads, procStatus("Threads"));
    MaxVmKb = std::max(MaxVmKb, procStatus("VmSize"));
  }
  // Sequential clients: the live connection plus the few that are still
  // winding down on a loaded host. An exited but unjoined thread is gone
  // from Threads but keeps its 8 MiB stack mapped, so 300 of them would
  // add over 2 GiB of VmSize; the bound leaves room for a few malloc
  // arenas (64 MiB each).
  EXPECT_LE(MaxThreads, Threads0 + 4);
  EXPECT_LT(MaxVmKb - VmKb0, 512L * 1024)
      << "VmSize grew by " << (MaxVmKb - VmKb0) << " kB";

  ASSERT_FALSE(mao::serve::clientShutdown(Client));
  ServerThread.join();
  EXPECT_EQ(Server.requestsServed(), 301u);
}

TEST(ServerClient, ConcurrentConnectionsShareOneCacheHandle) {
  TempDir Tmp;
  mao::serve::ServerOptions Options;
  Options.SocketPath = Tmp.path() + "/maod.sock";
  Options.Engine.CacheDir = Tmp.path() + "/cache";
  mao::serve::Server Server(Options);
  ASSERT_TRUE(Server.cacheEngine().session().cacheIsOpen());
  mao::serve::ClientOptions Client;
  Client.SocketPath = Options.SocketPath;
  Client.Deterministic = true;
  std::thread ServerThread = startServer(Server, Client);

  // Every request is a new source, so every one is computed and stored,
  // from four connections at a time. Per-connection cache handles would
  // rescan the directory and sweep each other's in-flight temp files.
  constexpr unsigned Clients = 4, PerClient = 12;
  std::vector<std::thread> Workers;
  std::vector<unsigned> Stored(Clients, 0);
  for (unsigned C = 0; C < Clients; ++C)
    Workers.emplace_back([&, C] {
      for (unsigned I = 0; I < PerClient; ++I) {
        ServeRequest R = engineRequest();
        R.Source += "# variant " + std::to_string(C) + "." +
                    std::to_string(I) + "\n";
        ServeResponse Out;
        if (mao::serve::clientRun(Client, R, Out) ||
            Out.Status != ServeStatus::Ok || Out.CacheHit ||
            !Out.Diagnostic.empty())
          continue;
        ++Stored[C];
      }
    });
  for (std::thread &W : Workers)
    W.join();
  for (unsigned C = 0; C < Clients; ++C)
    EXPECT_EQ(Stored[C], PerClient) << "client " << C;

  const mao::api::ArtifactCounters Stats =
      Server.cacheEngine().session().cacheStats();
  EXPECT_EQ(Stats.StoreFailures, 0u);
  EXPECT_EQ(Stats.StaleTmpRemoved, 0u);
  EXPECT_EQ(Stats.Stores, 1u + Clients * PerClient); // + startServer's.

  ASSERT_FALSE(mao::serve::clientShutdown(Client));
  ServerThread.join();
}

TEST(ServerClient, UnreachableDaemonFailsFastForFallback) {
  mao::serve::ClientOptions Client;
  Client.SocketPath = "/tmp/mao-servetest-no-such-daemon.sock";
  Client.Attempts = 3;
  Client.Deterministic = true;
  ServeResponse Out;
  MaoStatus S = mao::serve::clientRun(Client, engineRequest(), Out);
  EXPECT_TRUE(static_cast<bool>(S))
      << "connecting to a non-existent daemon succeeded";
}

TEST(ServerClient, MalformedPayloadGetsErrorFrameAndServiceContinues) {
  TempDir Tmp;
  mao::serve::ServerOptions Options;
  Options.SocketPath = Tmp.path() + "/maod.sock";
  mao::serve::Server Server(Options);
  std::thread ServerThread([&Server] { (void)Server.run(); });

  // Wait for the socket, then speak the protocol by hand.
  mao::serve::ClientOptions Probe;
  Probe.SocketPath = Options.SocketPath;
  Probe.Deterministic = true;
  ServeResponse Ignored;
  for (int Try = 0; Try < 100; ++Try) {
    if (!mao::serve::clientRun(Probe, engineRequest(), Ignored))
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // A frame whose payload is not a decodable request: the server answers
  // with an Error frame and keeps the connection alive for the next
  // (valid) request on the same stream.
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  ::sockaddr_un Addr = {};
  Addr.sun_family = AF_UNIX;
  std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s",
                Options.SocketPath.c_str());
  ASSERT_EQ(::connect(Fd, reinterpret_cast<::sockaddr *>(&Addr),
                      sizeof(Addr)),
            0);
  Frame Junk;
  Junk.Kind = FrameKind::Request;
  Junk.Payload = "this is not a serialized request";
  ASSERT_FALSE(mao::serve::writeFrame(Fd, Junk));
  Frame Reply;
  bool CleanEof = false;
  ASSERT_FALSE(mao::serve::readFrame(Fd, Reply, CleanEof));
  EXPECT_EQ(Reply.Kind, FrameKind::Error);
  EXPECT_FALSE(Reply.Payload.empty());

  // Same stream, now a valid request: the worker survived the bad one.
  Frame Good;
  Good.Kind = FrameKind::Request;
  Good.Payload = mao::serve::encodeRequest(engineRequest());
  ASSERT_FALSE(mao::serve::writeFrame(Fd, Good));
  ASSERT_FALSE(mao::serve::readFrame(Fd, Reply, CleanEof));
  EXPECT_EQ(Reply.Kind, FrameKind::Response);
  ServeResponse Out;
  ASSERT_FALSE(mao::serve::decodeResponse(Reply.Payload, Out));
  EXPECT_EQ(Out.Status, ServeStatus::Ok) << Out.Diagnostic;
  ::close(Fd);

  ASSERT_FALSE(mao::serve::clientShutdown(Probe));
  ServerThread.join();
}

} // namespace
