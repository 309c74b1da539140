//===- bench/bench_serve.cpp - Service mode & artifact cache ------------------===//
//
// Measures what the persistent artifact cache and the maod service buy
// (and cost) on a representative kernel:
//
//  - cold:     Session::cacheRun on a miss (compute + crash-safe store),
//  - warm:     the same request as a verified on-disk hit,
//  - daemon:   requests/s through a real maod server over a unix socket,
//              cold process-warm cache, at 1 and 4 concurrent clients,
//  - recovery: fsck wall-clock over a populated cache with a slice of
//              entries deliberately corrupted (the quarantine path).
//
// Emits BENCH_serve.json (path overridable as argv[1]) alongside the
// human-readable table, in the shared schema BenchJson.h defines.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "BenchUtil.h"
#include "serve/ArtifactCache.h"
#include "serve/Serve.h"
#include "support/FileIO.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace maobench;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

std::string kernel(unsigned Variant) {
  // One distinct redundant-test kernel per variant so every request is a
  // distinct cache key (the variant constant lands in the text).
  return "\t.text\n\t.globl bench_main\n\t.type bench_main, @function\n"
         "bench_main:\n"
         "\tpushq %rbp\n\tmovq %rsp, %rbp\n"
         "\tmovl $" +
         std::to_string(100 + Variant) +
         ", %ecx\n"
         "\txorl %eax, %eax\n"
         ".LLOOP:\n"
         "\taddl $2, %eax\n"
         "\ttestl %eax, %eax\n"
         "\tsubl $1, %ecx\n"
         "\tjne .LLOOP\n"
         "\tmovl $0, %eax\n\tleave\n\tret\n"
         "\t.size bench_main, .-bench_main\n";
}

std::string tempDir() {
  char Template[] = "/tmp/mao-bench-serve-XXXXXX";
  const char *Dir = mkdtemp(Template);
  if (!Dir) {
    std::fprintf(stderr, "bench: cannot create temp dir\n");
    std::exit(1);
  }
  return Dir;
}

mao::api::CachedRunRequest request(unsigned Variant) {
  mao::api::CachedRunRequest Request;
  Request.Source = kernel(Variant);
  Request.Name = "bench.s";
  if (mao::api::Status S = mao::api::Session::parsePipelineSpec(
          "zee,redtest", Request.Pipeline);
      !S.Ok) {
    std::fprintf(stderr, "bench: %s\n", S.Message.c_str());
    std::exit(1);
  }
  return Request;
}

struct CachePhase {
  double ColdMsAvg = 0;
  double WarmMsAvg = 0;
};

CachePhase benchCache(const std::string &Dir, unsigned Rounds) {
  mao::api::Session Session;
  if (mao::api::Status S = Session.cacheOpen(Dir); !S.Ok) {
    std::fprintf(stderr, "bench: cacheOpen: %s\n", S.Message.c_str());
    std::exit(1);
  }
  CachePhase Phase;
  for (unsigned I = 0; I < Rounds; ++I) {
    mao::api::CachedRunResult Result;
    Clock::time_point Start = Clock::now();
    if (mao::api::Status S = Session.cacheRun(request(I), Result); !S.Ok) {
      std::fprintf(stderr, "bench: cold cacheRun: %s\n", S.Message.c_str());
      std::exit(1);
    }
    Phase.ColdMsAvg += msSince(Start);
    if (Result.CacheHit) {
      std::fprintf(stderr, "bench: cold run unexpectedly hit\n");
      std::exit(1);
    }
  }
  for (unsigned I = 0; I < Rounds; ++I) {
    mao::api::CachedRunResult Result;
    Clock::time_point Start = Clock::now();
    if (mao::api::Status S = Session.cacheRun(request(I), Result); !S.Ok) {
      std::fprintf(stderr, "bench: warm cacheRun: %s\n", S.Message.c_str());
      std::exit(1);
    }
    Phase.WarmMsAvg += msSince(Start);
    if (!Result.CacheHit) {
      std::fprintf(stderr, "bench: warm run missed\n");
      std::exit(1);
    }
  }
  Phase.ColdMsAvg /= Rounds;
  Phase.WarmMsAvg /= Rounds;
  return Phase;
}

/// Requests/s through a live daemon at \p Clients concurrent connections,
/// all warm hits (the cache was populated by benchCache).
double benchDaemon(const std::string &CacheDir, const std::string &Sock,
                   unsigned Clients, unsigned PerClient) {
  mao::serve::ServerOptions Options;
  Options.SocketPath = Sock;
  Options.Engine.CacheDir = CacheDir;
  mao::serve::Server Server(Options);
  std::thread ServerThread([&Server] { (void)Server.run(); });

  mao::serve::ClientOptions Client;
  Client.SocketPath = Sock;
  Client.Attempts = 100;
  Client.BackoffMs = 10;

  // One probe request (retrying until the daemon binds) before timing.
  mao::serve::ServeRequest Probe;
  Probe.Name = "bench.s";
  Probe.Source = kernel(0);
  Probe.Pipeline = "zee,redtest";
  mao::serve::ServeResponse Ignored;
  if (mao::MaoStatus S = mao::serve::clientRun(Client, Probe, Ignored)) {
    std::fprintf(stderr, "bench: daemon probe: %s\n", S.message().c_str());
    std::exit(1);
  }

  Client.Attempts = 3;
  Clock::time_point Start = Clock::now();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      for (unsigned I = 0; I < PerClient; ++I) {
        mao::serve::ServeRequest R;
        R.Name = "bench.s";
        R.Source = kernel((C + I) % 8);
        R.Pipeline = "zee,redtest";
        mao::serve::ServeResponse Resp;
        if (mao::MaoStatus S = mao::serve::clientRun(Client, R, Resp)) {
          std::fprintf(stderr, "bench: daemon run: %s\n",
                       S.message().c_str());
          std::exit(1);
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  const double Seconds = msSince(Start) / 1000.0;

  (void)mao::serve::clientShutdown(Client);
  Server.requestStop();
  ServerThread.join();
  return Seconds > 0 ? (Clients * PerClient) / Seconds : 0.0;
}

struct RecoveryPhase {
  double FsckMs = 0;
  unsigned Quarantined = 0;
  uint64_t Entries = 0;
};

RecoveryPhase benchRecovery(const std::string &Dir) {
  // Corrupt every 8th entry by truncation, then time the full fsck.
  mao::serve::ArtifactCache Cache;
  if (mao::MaoStatus S = Cache.open(Dir)) {
    std::fprintf(stderr, "bench: %s\n", S.message().c_str());
    std::exit(1);
  }
  for (unsigned I = 0; I < 64; ++I) {
    mao::serve::CacheEntry Entry;
    Entry.set("output", std::string(1024 + I, 'x'));
    Entry.set("report", "{}");
    (void)Cache.store(0x9000 + I, Entry);
    if (I % 8 == 0) {
      const std::string Path = Cache.entryPath(0x9000 + I);
      std::string Bytes;
      mao::readWholeFile(Path, Bytes);
      std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
      Out.write(Bytes.data(),
                static_cast<std::streamsize>(Bytes.size() / 2));
    }
  }
  RecoveryPhase Phase;
  Clock::time_point Start = Clock::now();
  Phase.Quarantined = Cache.fsck();
  Phase.FsckMs = msSince(Start);
  Phase.Entries = Cache.stats().Entries;
  return Phase;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchReport Report("serve");
  const std::string OutPath = benchJsonPath(Argc, Argv, Report.name());
  const std::string Root = tempDir();
  const std::string CacheDir = Root + "/cache";
  constexpr unsigned Rounds = 32;
  constexpr unsigned PerClient = 64;

  printHeader("Service mode: persistent artifact cache + maod daemon");

  const CachePhase Cache = benchCache(CacheDir, Rounds);
  std::printf("cacheRun  cold %8.3f ms/req   warm %8.3f ms/req   "
              "(%.1fx, %u requests each)\n",
              Cache.ColdMsAvg, Cache.WarmMsAvg,
              Cache.WarmMsAvg > 0 ? Cache.ColdMsAvg / Cache.WarmMsAvg : 0.0,
              Rounds);

  const double Rps1 = benchDaemon(CacheDir, Root + "/b1.sock", 1, PerClient);
  const double Rps4 = benchDaemon(CacheDir, Root + "/b4.sock", 4, PerClient);
  std::printf("maod      %8.0f req/s at 1 client   %8.0f req/s at 4 "
              "clients (warm hits)\n",
              Rps1, Rps4);

  const RecoveryPhase Recovery = benchRecovery(Root + "/recovery");
  std::printf("recovery  fsck of 64 entries (8 corrupt) %8.3f ms, "
              "%u quarantined, %llu left\n",
              Recovery.FsckMs, Recovery.Quarantined,
              (unsigned long long)Recovery.Entries);

  Report.set("cold_ms_per_request", Cache.ColdMsAvg);
  Report.set("warm_ms_per_request", Cache.WarmMsAvg);
  Report.set("warm_speedup",
             Cache.WarmMsAvg > 0 ? Cache.ColdMsAvg / Cache.WarmMsAvg : 0.0);
  Report.set("daemon_rps_1_client", Rps1);
  Report.set("daemon_rps_4_clients", Rps4);
  Report.set("fsck_ms_64_entries", Recovery.FsckMs);
  Report.set("fsck_quarantined", Recovery.Quarantined);
  Report.set("fsck_entries_left", static_cast<double>(Recovery.Entries));
  const bool Wrote = Report.write(OutPath);

  std::system(("rm -rf '" + Root + "'").c_str());
  return Wrote ? 0 : 1;
}
