//===- support/FaultInjection.cpp - Deterministic fault injection ------------==//

#include "support/FaultInjection.h"

#include <cstdio>
#include <cstdlib>

using namespace mao;

const char *mao::faultSiteName(FaultSite Site) {
  switch (Site) {
  case FaultSite::Parser:
    return "parser";
  case FaultSite::Encoder:
    return "encoder";
  case FaultSite::PassRunner:
    return "pass";
  case FaultSite::FsWrite:
    return "fswrite";
  case FaultSite::FsRename:
    return "fsrename";
  case FaultSite::CacheRead:
    return "cacheread";
  case FaultSite::Frame:
    return "frame";
  }
  return "unknown";
}

constinit FaultInjector FaultInjector::Instance;

void FaultInjector::reset() {
  Armed = false;
  for (SiteState &S : Sites)
    S = SiteState();
}

static bool parseSiteName(const std::string &Name, FaultSite &Out) {
  for (unsigned I = 0; I < NumFaultSites; ++I) {
    FaultSite Site = static_cast<FaultSite>(I);
    if (Name == faultSiteName(Site)) {
      Out = Site;
      return true;
    }
  }
  return false;
}

MaoStatus FaultInjector::configure(const std::string &Spec, uint64_t Seed) {
  reset();
  if (Spec.empty())
    return MaoStatus::success();

  std::string::size_type Pos = 0;
  while (Pos < Spec.size()) {
    std::string::size_type End = Spec.find(',', Pos);
    if (End == std::string::npos)
      End = Spec.size();
    std::string Pair = Spec.substr(Pos, End - Pos);
    Pos = End + 1;

    std::string::size_type Colon = Pair.find(':');
    if (Colon == std::string::npos || Colon == 0 || Colon + 1 >= Pair.size())
      return MaoStatus::error("malformed fault-injection pair '" + Pair +
                              "' (want site:permille)");
    FaultSite Site;
    if (!parseSiteName(Pair.substr(0, Colon), Site))
      return MaoStatus::error("unknown fault-injection site '" +
                              Pair.substr(0, Colon) +
                              "' (want parser, encoder, pass, fswrite, "
                              "fsrename, cacheread, or frame)");
    char *EndPtr = nullptr;
    const std::string RateText = Pair.substr(Colon + 1);
    long Rate = std::strtol(RateText.c_str(), &EndPtr, 10);
    if (EndPtr == RateText.c_str() || *EndPtr != '\0' || Rate < 0 ||
        Rate > 1000)
      return MaoStatus::error("fault-injection rate must be 0..1000 "
                              "per-mille, got '" +
                              RateText + "'");

    SiteState &S = Sites[static_cast<unsigned>(Site)];
    S.Enabled = Rate > 0;
    S.Permille = static_cast<uint64_t>(Rate);
    // Independent per-site stream: decisions at one site do not depend on
    // how often other sites draw.
    S.Rng = RandomSource(Seed ^ (0x9e3779b97f4a7c15ULL *
                                 (static_cast<uint64_t>(Site) + 1)));
    Armed = Armed || S.Enabled;
  }
  return MaoStatus::success();
}

MaoStatus mao::splitFaultSeed(const std::string &Payload, std::string &Spec,
                              uint64_t &Seed) {
  const std::string::size_type At = Payload.find('@');
  Spec = Payload.substr(0, At);
  if (At == std::string::npos)
    return MaoStatus::success();
  const std::string SeedText = Payload.substr(At + 1);
  char *End = nullptr;
  const unsigned long long Value = std::strtoull(SeedText.c_str(), &End, 10);
  if (End == SeedText.c_str() || *End != '\0')
    return MaoStatus::error("seed must be an integer; got '" + SeedText +
                            "'");
  Seed = Value;
  return MaoStatus::success();
}

void FaultInjector::configureFromEnv() {
  const char *Env = std::getenv("MAO_FAULT_INJECT");
  if (!Env || !*Env)
    return;
  std::string Spec;
  uint64_t Seed = 1;
  MaoStatus S = splitFaultSeed(Env, Spec, Seed);
  if (S.ok())
    S = configure(Spec, Seed);
  if (S)
    std::fprintf(stderr, "mao: ignoring MAO_FAULT_INJECT: %s\n",
                 S.message().c_str());
}

bool FaultInjector::draw(FaultSite Site) {
  if (SuspendDepth > 0)
    return false;
  SiteState &S = Sites[static_cast<unsigned>(Site)];
  if (!S.Enabled)
    return false;
  std::lock_guard<std::mutex> Lock(DrawM);
  ++S.Draws;
  return S.Rng.nextChance(S.Permille, 1000);
}
