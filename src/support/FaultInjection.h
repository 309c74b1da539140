//===- support/FaultInjection.h - Deterministic fault injection -*- C++ -*-===//
///
/// \file
/// A deterministic, seedable fault-injection facility used to exercise the
/// robustness layer: injection points in the parser, the binary encoder,
/// and the pass runner consult a process-wide FaultInjector and fail
/// artificially with a configured per-mille probability.
///
/// Determinism contract: each site owns an independent SplitMix64 stream
/// seeded from (seed ^ site), and draws from it once per shouldFail() call.
/// Because streams are per-site, the k-th decision at a site depends only on
/// the seed and k — not on how other sites interleave — so a run with the
/// same seed and same inputs reproduces the same failures exactly (the
/// property PipelineTest and maofuzz assert).
///
/// Configuration comes from an explicit configure() call (maofuzz, tests,
/// the --mao-fault-inject driver flag) or from the MAO_FAULT_INJECT
/// environment variable; the facility is disabled by default and costs one
/// predicted branch per injection point when disabled.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_SUPPORT_FAULTINJECTION_H
#define MAO_SUPPORT_FAULTINJECTION_H

#include "support/Random.h"
#include "support/Status.h"

#include <array>
#include <mutex>
#include <string>

namespace mao {

/// Instrumented components. Keep in sync with faultSiteName(). The first
/// three are the PR 1 compute-path sites; the filesystem/protocol domain
/// (fswrite, fsrename, cacheread, frame) exercises the persistent artifact
/// cache and the maod framing layer:
///   * FsWrite   — a crash-safe cache write is cut short (short write),
///                 modelling a writer killed or a disk filling mid-write.
///   * FsRename  — the atomic publish rename fails, modelling a crash in
///                 the instant between temp write and rename.
///   * CacheRead — a read-back cache entry has one bit flipped, modelling
///                 on-disk corruption; the checksum trailer must catch it.
///   * Frame     — a protocol frame arrives truncated, modelling a peer
///                 that died mid-send or a cut connection.
enum class FaultSite : uint8_t {
  Parser = 0,
  Encoder = 1,
  PassRunner = 2,
  FsWrite = 3,
  FsRename = 4,
  CacheRead = 5,
  Frame = 6,
};
constexpr unsigned NumFaultSites = 7;

const char *faultSiteName(FaultSite Site);

/// Splits a fault spec with an optional "@seed" suffix ("encoder:50@7"):
/// \p Spec gets the part before the '@' and \p Seed the decimal seed after
/// it, or keeps its value when there is none. The one reading of the
/// suffix, for --mao-fault-inject, maod's --fault-inject and
/// MAO_FAULT_INJECT. Fails with "seed must be an integer; got 'TEXT'".
MaoStatus splitFaultSeed(const std::string &Payload, std::string &Spec,
                         uint64_t &Seed);

/// Process-wide injector. Sites draw deterministic pseudo-random decisions.
class FaultInjector {
public:
  static FaultInjector &instance() { return Instance; }

  /// Configures from a spec string: comma-separated "site:permille" pairs,
  /// e.g. "parser:10,encoder:5,pass:100" (pass = pass runner). Unlisted
  /// sites stay disabled. An empty spec disables everything.
  MaoStatus configure(const std::string &Spec, uint64_t Seed);

  /// Reads MAO_FAULT_INJECT ("spec@seed", e.g. "pass:100@42"; seed
  /// defaults to 1). Silently leaves the injector disabled when unset.
  void configureFromEnv();

  /// Disables all sites and clears counters.
  void reset();

  bool siteEnabled(FaultSite Site) const {
    return Sites[static_cast<unsigned>(Site)].Enabled;
  }

  /// Draws the next decision for \p Site. Always false when disabled
  /// (without consuming randomness). Inline, so an injection point costs
  /// one predicted branch while nothing is armed.
  bool shouldFail(FaultSite Site) { return Armed && draw(Site); }

  /// RAII suspension: while at least one ScopedSuspend is alive,
  /// shouldFail() returns false without drawing. The transactional pass
  /// runner uses this during rollback replay — the replayed passes already
  /// succeeded once under injection, and re-injecting into the recovery
  /// path would make rollback itself fallible.
  class ScopedSuspend {
  public:
    ScopedSuspend() { ++instance().SuspendDepth; }
    ~ScopedSuspend() { --instance().SuspendDepth; }
    ScopedSuspend(const ScopedSuspend &) = delete;
    ScopedSuspend &operator=(const ScopedSuspend &) = delete;
  };

  bool suspended() const { return SuspendDepth > 0; }

  unsigned drawCount(FaultSite Site) const {
    return Sites[static_cast<unsigned>(Site)].Draws;
  }
  unsigned injectedCount(FaultSite Site) const {
    return Sites[static_cast<unsigned>(Site)].Failures;
  }
  unsigned totalInjected() const;

private:
  /// shouldFail() once some site is armed.
  bool draw(FaultSite Site);

  /// The process-wide injector. Constant-initialized, so instance() is a
  /// plain address: no guard, no call.
  static FaultInjector Instance;

  struct SiteState {
    bool Enabled = false;
    uint64_t Permille = 0;
    RandomSource Rng{0};
    unsigned Draws = 0;
    unsigned Failures = 0;
  };

  bool Armed = false;
  unsigned SuspendDepth = 0;
  std::array<SiteState, NumFaultSites> Sites;
  /// Guards the per-site RNG/counter state in shouldFail(): sites may be
  /// consulted from pool workers when the sharded pipeline runs with
  /// several jobs. The disabled fast path stays lock-free. (Note: draw
  /// *order* at a site is only deterministic when that site is consulted
  /// from one thread — which holds today: all draws happen on the
  /// orchestrating thread, shards never draw.)
  std::mutex DrawM;
};

} // namespace mao

#endif // MAO_SUPPORT_FAULTINJECTION_H
