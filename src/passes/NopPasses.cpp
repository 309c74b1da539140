//===- passes/NopPasses.cpp - NOP experiments ---------------------------------===//
///
/// \file
/// The experimental NOP passes of paper Sec. III-E:
///
///   NOPIN      - the "Nopinizer": inserts random sequences of NOP
///                instructions; the seed makes experiments repeatable, and
///                the insertion density / sequence length are options. The
///                idea: shifting code around exposes micro-architectural
///                cliffs (unknown alias constraints, branch-predictor
///                limitations).
///   NOPKILL    - the "Nop Killer": removes alignment directives and the
///                NOPs they imply, to measure how effective compiler
///                alignment directives actually are (~1% code-size win,
///                perf mostly in the noise).
///   INSTRUMENT - dynamic-instrumentation support: guarantees a single
///                5-byte NOP at function entry and exit points that does
///                not cross a cache line, so an instrumenter can atomically
///                replace it with a 5-byte branch to trampoline code.
///
//===----------------------------------------------------------------------===//

#include "analysis/Relaxer.h"
#include "pass/MaoPass.h"
#include "passes/PassUtil.h"
#include "support/Hash.h"
#include "support/Random.h"

#include <algorithm>
#include <utility>

using namespace mao;

namespace {

//===----------------------------------------------------------------------===//
// NOPIN: the Nopinizer.
//===----------------------------------------------------------------------===//

class NopinizerPass : public MaoFunctionPass {
public:
  NopinizerPass(MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : MaoFunctionPass("NOPIN", Options, Unit, Fn) {}

  bool go() override {
    const uint64_t Seed =
        static_cast<uint64_t>(options().getInt("seed", 42));
    const long Density = options().getInt("density", 10); // percent
    const long MaxLen = options().getInt("maxlen", 1);    // NOPs per site
    // func=NAME restricts the pass to one function; the tuner uses this to
    // give every function its own insertion decision.
    const std::string Only = options().getString("func", "");
    if (!Only.empty() && Only != function().name())
      return true;

    std::vector<EntryIter> Sites;
    for (auto It = function().begin(), E = function().end(); It != E; ++It)
      if (It->isInstruction())
        Sites.push_back(It.underlying());

    // Directed mode: at=N, pad=BYTES places one deterministic NOP pad of
    // BYTES bytes before candidate site N (instruction index in layout
    // order) instead of sampling sites randomly. This is the tuner's
    // search axis — the Fig. 1 experiment done on purpose: a specific pad
    // at a specific site to shift a branch out of a predictor conflict.
    if (options().has("at")) {
      const long At = options().getInt("at", 0);
      long Pad = options().getInt("pad", 1);
      if (Pad < 1)
        Pad = 1;
      if (At < 0 || static_cast<size_t>(At) >= Sites.size())
        return true; // Site index out of range: structurally a no-op.
      EntryIter Site = Sites[static_cast<size_t>(At)];
      long Remaining = Pad;
      while (Remaining > 0) {
        const long Chunk = Remaining > 15 ? 15 : Remaining;
        unit().insertBefore(
            Site, MaoEntry::makeInstruction(makeNop(static_cast<unsigned>(Chunk))));
        Remaining -= Chunk;
      }
      countTransformation(static_cast<unsigned>((Pad + 14) / 15));
      trace(1, "func %s: directed pad of %ld bytes before site %ld",
            function().name().c_str(), Pad, At);
      return true;
    }

    // Derive a per-function stream so results do not depend on function
    // processing order.
    RandomSource Rng(Seed ^ fnv1a64(function().name()));

    for (EntryIter Site : Sites) {
      if (!Rng.nextChance(static_cast<uint64_t>(Density), 100))
        continue;
      const long SeqLen = MaxLen <= 1 ? 1 : Rng.nextInRange(1, MaxLen);
      for (long I = 0; I < SeqLen; ++I)
        unit().insertBefore(Site, MaoEntry::makeInstruction(makeNop(1)));
      countTransformation(static_cast<unsigned>(SeqLen));
    }
    trace(1, "func %s: inserted %u nops", function().name().c_str(),
          transformationCount());
    return true;
  }
};

REGISTER_SHARDED_FUNC_PASS("NOPIN", NopinizerPass)

//===----------------------------------------------------------------------===//
// NOPKILL: the Nop Killer.
//===----------------------------------------------------------------------===//

class NopKillerPass : public MaoFunctionPass {
public:
  NopKillerPass(MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : MaoFunctionPass("NOPKILL", Options, Unit, Fn) {}

  bool go() override {
    std::vector<EntryIter> Doomed;
    for (auto It = function().begin(), E = function().end(); It != E; ++It) {
      if (It->isDirective(DirKind::P2Align) ||
          It->isDirective(DirKind::Balign))
        Doomed.push_back(It.underlying());
      else if (It->isInstruction() && std::as_const(*It).instruction().isNop())
        Doomed.push_back(It.underlying());
    }
    for (EntryIter It : Doomed) {
      trace(2, "removing %s", It->toString().c_str());
      unit().erase(It);
      countTransformation();
    }
    trace(1, "func %s: removed %u alignment entries",
          function().name().c_str(), transformationCount());
    return true;
  }
};

REGISTER_SHARDED_FUNC_PASS("NOPKILL", NopKillerPass)

//===----------------------------------------------------------------------===//
// INSTRUMENT: dynamic instrumentation support.
//===----------------------------------------------------------------------===//

class InstrumentationNopPass : public MaoFunctionPass {
public:
  InstrumentationNopPass(MaoOptionMap *Options, MaoUnit *Unit,
                         MaoFunction *Fn)
      : MaoFunctionPass("INSTRUMENT", Options, Unit, Fn) {}

  bool go() override {
    const long CacheLine = options().getInt("cacheline", 64);

    // Insert a 5-byte NOP after the entry label and before every return.
    std::vector<EntryIter> Inserted;
    bool EntryDone = false;
    std::vector<EntryIter> Rets;
    for (auto It = function().begin(), E = function().end(); It != E; ++It) {
      if (!It->isInstruction())
        continue;
      if (!EntryDone) {
        Inserted.push_back(layout().insertBefore(
            It.underlying(), MaoEntry::makeInstruction(makeNop(5))));
        EntryDone = true;
        countTransformation();
      }
      if (std::as_const(*It).instruction().isReturn())
        Rets.push_back(It.underlying());
    }
    for (EntryIter Ret : Rets) {
      Inserted.push_back(
          layout().insertBefore(Ret, MaoEntry::makeInstruction(makeNop(5))));
      countTransformation();
    }
    if (Inserted.empty())
      return true;

    // Iterate with relaxation until no instrumentation NOP crosses a cache
    // line. Padding in front of a site can move other sites, hence the
    // loop (a small instance of the paper's phase-ordering observation).
    constexpr unsigned RoundCap = 16;
    auto Crosses = [&](EntryIter Site) {
      const int64_t Start = Site->Address;
      return Start / CacheLine != (Start + 4) / CacheLine; // 5-byte NOP.
    };
    for (unsigned Round = 0;; ++Round) {
      layout().relax();
      if (std::none_of(Inserted.begin(), Inserted.end(), Crosses))
        return true;
      if (Round == RoundCap) {
        reportRoundCap(RoundCap);
        return true;
      }
      for (EntryIter Site : Inserted) {
        if (!Crosses(Site))
          continue;
        const int64_t Start = Site->Address;
        const unsigned Pad = static_cast<unsigned>(
            CacheLine - (Start % CacheLine));
        trace(1, "site at %lld crosses a cache line; padding %u bytes",
              static_cast<long long>(Start), Pad);
        unsigned Remaining = Pad;
        while (Remaining > 0) {
          unsigned Chunk = Remaining > 15 ? 15 : Remaining;
          layout().insertBefore(Site,
                                MaoEntry::makeInstruction(makeNop(Chunk)));
          Remaining -= Chunk;
        }
      }
    }
  }
};

REGISTER_FUNC_PASS("INSTRUMENT", InstrumentationNopPass)

} // namespace

namespace mao {
void linkNopPasses() {}
} // namespace mao
