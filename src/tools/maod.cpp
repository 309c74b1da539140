//===- tools/maod.cpp - The MAO optimization daemon ---------------------------===//
///
/// \file
/// The long-lived service mode (DESIGN.md, "Service mode & persistent
/// cache"): keeps opcode tables, the pass registry, and the artifact
/// cache warm in one process and answers `mao --connect` requests over a
/// unix socket (or a single framed stream on stdin/stdout with --stdio).
///
///   maod --socket=/tmp/maod.sock --cache-dir=/var/cache/mao &
///   mao --connect=/tmp/maod.sock --mao-passes=zee in.s
///
/// SIGINT/SIGTERM stop the accept loop cleanly (in-flight requests
/// finish, the socket file is removed). Two maintenance modes share the
/// binary so scripts and the crash-recovery test need no other tool:
///
///   maod --fsck-cache=DIR       validate every entry, quarantine corrupt
///                               ones, sweep stale temp files, report.
///   maod --stress-cache=DIR     write cache entries in a tight loop
///                               (--stress-count, --stress-seed) — the
///                               crash-recovery test kill -9s this
///                               mid-write and then asserts fsck finds a
///                               clean cache.
///
/// Exit codes: 0 success, 1 usage error, 2 runtime error.
///
//===----------------------------------------------------------------------===//

#include "serve/ArtifactCache.h"
#include "serve/Serve.h"
#include "support/FaultInjection.h"
#include "support/OptionRegistry.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace {

constexpr int ExitOk = 0;
constexpr int ExitUsage = 1;
constexpr int ExitRuntime = 2;

mao::serve::Server *ActiveServer = nullptr;

void onSignal(int) {
  // requestStop() only calls shutdown()/close() — async-signal-safe. The
  // accept loop returns, in-flight connections drain, run() exits.
  if (ActiveServer)
    ActiveServer->requestStop();
}

/// --stress-cache worker: writes deterministic pseudo-random entries as
/// fast as possible. Meant to be kill -9'd mid-write by the
/// crash-recovery test; every entry that becomes visible must be valid.
int runStress(const std::string &Dir, uint64_t Count, uint64_t Seed) {
  mao::serve::ArtifactCache Cache;
  if (mao::MaoStatus S = Cache.open(Dir)) {
    std::fprintf(stderr, "maod: error: %s\n", S.message().c_str());
    return ExitRuntime;
  }
  uint64_t State = Seed * 0x9e3779b97f4a7c15ULL + 1;
  for (uint64_t I = 0; I < Count; ++I) {
    // SplitMix64 steps drive both the key and the payload bytes.
    auto Next = [&State] {
      State += 0x9e3779b97f4a7c15ULL;
      uint64_t Z = State;
      Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
      return Z ^ (Z >> 31);
    };
    const uint64_t Key = Next();
    std::string Output;
    const size_t Size = 64 + static_cast<size_t>(Next() % 4096);
    Output.reserve(Size);
    while (Output.size() < Size) {
      const uint64_t Word = Next();
      for (unsigned B = 0; B < 8 && Output.size() < Size; ++B)
        Output.push_back(static_cast<char>((Word >> (8 * B)) & 0xff));
    }
    mao::serve::CacheEntry Entry;
    Entry.set("output", Output);
    Entry.set("report", "{\"stress\":" + std::to_string(I) + "}\n");
    if (mao::MaoStatus S = Cache.store(Key, Entry)) {
      std::fprintf(stderr, "maod: error: %s\n", S.message().c_str());
      return ExitRuntime;
    }
  }
  return ExitOk;
}

int runFsck(const std::string &Dir) {
  mao::serve::ArtifactCache Cache;
  if (mao::MaoStatus S = Cache.open(Dir)) {
    std::fprintf(stderr, "maod: error: %s\n", S.message().c_str());
    return ExitRuntime;
  }
  const unsigned Quarantined = Cache.fsck();
  const mao::serve::ArtifactCache::Stats Stats = Cache.stats();
  std::printf("maod: fsck: %llu entries, %u quarantined, %llu stale tmp "
              "removed\n",
              static_cast<unsigned long long>(Stats.Entries), Quarantined,
              static_cast<unsigned long long>(Stats.StaleTmpRemoved));
  return ExitOk;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string SocketPath;
  std::string CacheDir;
  long CacheBudget = 0;
  bool Stdio = false;
  bool Help = false;
  std::string FsckDir;
  std::string StressDir;
  std::string FaultSpec;
  uint64_t FaultSeed = 1;
  long MaxRequests = 0;
  long DeadlineMs = 0;
  unsigned Jobs = 0;
  long MaxRequestKb = 8192;
  long StressCount = 1 << 20;
  long StressSeed = 1;

  mao::OptionRegistry R;
  R.addString("--socket", &SocketPath,
              "listen on this unix socket and serve mao --connect clients");
  R.addFlag("--stdio", &Stdio,
            "serve one framed stream on stdin/stdout instead of a socket");
  R.addString("--cache-dir", &CacheDir,
              "persistent artifact cache shared by every connection");
  R.addInt("--cache-budget", &CacheBudget, 0,
           "cap the on-disk artifact cache at BYTES of entries, evicting "
           "oldest-first (0 = unlimited)");
  R.addFlag("--help", &Help, "print this flag reference and exit");
  R.addInt("--max-requests", &MaxRequests, 0,
           "stop after serving this many requests (0 = serve forever)");
  R.addInt("--request-deadline-ms", &DeadlineMs, 0,
           "default per-request pass budget in ms (0 = unlimited)");
  R.addUint("--jobs", &Jobs, 0,
            "clamp on per-request worker counts (0 = hardware threads)");
  R.addInt("--max-request-kb", &MaxRequestKb, 1,
           "refuse request sources larger than this many KiB");
  R.addString("--fsck-cache", &FsckDir,
              "validate every cache entry under DIR, quarantine corrupt "
              "ones, sweep stale temp files, and exit");
  R.addString("--stress-cache", &StressDir,
              "write cache entries under DIR in a tight loop and exit "
              "(crash-recovery testing; see --stress-count/--stress-seed)");
  R.addInt("--stress-count", &StressCount, 1,
           "entries the --stress-cache loop writes");
  R.addInt("--stress-seed", &StressSeed, 0,
           "seed for the --stress-cache entry stream");
  R.addCustom(
      "--fault-inject",
      [&FaultSpec, &FaultSeed](const std::string &Payload) {
        std::string Spec = Payload;
        const std::string::size_type At = Spec.find('@');
        if (At != std::string::npos) {
          const std::string SeedText = Spec.substr(At + 1);
          char *End = nullptr;
          unsigned long long Seed = std::strtoull(SeedText.c_str(), &End, 10);
          if (End == SeedText.c_str() || *End != '\0')
            return mao::MaoStatus::error(
                "--fault-inject seed must be an integer; got '" + SeedText +
                "'");
          FaultSeed = Seed;
          Spec = Spec.substr(0, At);
        }
        FaultSpec = Spec;
        return mao::MaoStatus::success();
      },
      "arm the deterministic fault injector: site:permille[,...][@seed]");

  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  if (mao::MaoStatus S = R.parse(Args)) {
    std::fprintf(stderr, "maod: error: %s\n", S.message().c_str());
    return ExitUsage;
  }
  if (Help) {
    std::fputs(R.help().c_str(), stdout);
    return ExitOk;
  }
  if (!FaultSpec.empty())
    if (mao::MaoStatus S =
            mao::FaultInjector::instance().configure(FaultSpec, FaultSeed)) {
      std::fprintf(stderr, "maod: error: %s\n", S.message().c_str());
      return ExitUsage;
    }

  if (!StressDir.empty())
    return runStress(StressDir, static_cast<uint64_t>(StressCount),
                     static_cast<uint64_t>(StressSeed));
  if (!FsckDir.empty())
    return runFsck(FsckDir);

  if (SocketPath.empty() && !Stdio) {
    std::fprintf(stderr,
                 "usage: maod --socket=PATH [--cache-dir=DIR] "
                 "[--max-requests=N] [--request-deadline-ms=N] [--jobs=N]\n"
                 "       maod --stdio [--cache-dir=DIR]\n"
                 "       maod --fsck-cache=DIR\n"
                 "       maod --stress-cache=DIR [--stress-count=N] "
                 "[--stress-seed=N]\n"
                 "run `maod --help` for the full flag reference\n");
    return ExitUsage;
  }

  mao::serve::ServerOptions Options;
  Options.SocketPath = SocketPath;
  Options.Engine.CacheDir = CacheDir;
  Options.Engine.CacheBudgetBytes = static_cast<uint64_t>(CacheBudget);
  Options.MaxRequests = static_cast<uint64_t>(MaxRequests);
  Options.Engine.DefaultDeadlineMs = static_cast<uint32_t>(DeadlineMs);
  Options.Engine.MaxJobs = Jobs;
  Options.Engine.MaxRequestBytes = static_cast<size_t>(MaxRequestKb) * 1024;

  // The server opens the cache once for every connection; an unusable
  // directory degrades to uncached service, so say so at startup.
  mao::serve::Server Server(Options);
  if (!CacheDir.empty() && !Server.cacheEngine().session().cacheIsOpen())
    std::fprintf(stderr, "maod: warning: cache disabled: cannot open %s\n",
                 CacheDir.c_str());
  ActiveServer = &Server;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  std::signal(SIGPIPE, SIG_IGN); // A dying client must not kill the daemon.

  if (Stdio) {
    if (mao::MaoStatus S = Server.runOnFds(0, 1)) {
      std::fprintf(stderr, "maod: error: %s\n", S.message().c_str());
      return ExitRuntime;
    }
    return ExitOk;
  }

  std::fprintf(stderr, "maod: listening on %s\n", SocketPath.c_str());
  if (mao::MaoStatus S = Server.run()) {
    std::fprintf(stderr, "maod: error: %s\n", S.message().c_str());
    return ExitRuntime;
  }
  std::fprintf(stderr, "maod: served %llu request(s)\n",
               static_cast<unsigned long long>(Server.requestsServed()));
  return ExitOk;
}
