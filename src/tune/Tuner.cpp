//===- tune/Tuner.cpp - Simulator-guided autotuning search --------------------==//

#include "tune/Tuner.h"

#include "asm/Assembler.h"
#include "pass/MaoPass.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "support/Timeline.h"
#include "tune/ScoreCache.h"
#include "uarch/Runner.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <set>

using namespace mao;

unsigned mao::tuneBudgetFromString(const std::string &Text) {
  if (Text == "small")
    return 24;
  if (Text == "medium")
    return 64;
  if (Text == "large")
    return 192;
  char *End = nullptr;
  long N = std::strtol(Text.c_str(), &End, 10);
  if (End == Text.c_str() || *End != '\0' || N < 1)
    return 64;
  return static_cast<unsigned>(N);
}

namespace {

constexpr uint64_t WorstScore = std::numeric_limits<uint64_t>::max();

/// Outcome of evaluating one parameterization.
struct CandidateScore {
  bool Ok = false;
  uint64_t Cycles = WorstScore;
  std::string Error;
};

/// Scores every parameterization in \p Batch against \p Base. Candidates
/// fan out over a ThreadPool for the pipeline+assemble stage and through
/// scoreBatch for the simulations; every result lands in a per-index slot
/// and all reductions walk in index order, so the outcome is independent
/// of \p Jobs.
class BatchEvaluator {
public:
  BatchEvaluator(const MaoUnit &Base, std::string Entry, MeasureOptions MOpts,
                 ScoreCache &Cache, unsigned Jobs)
      : Base(Base), Entry(std::move(Entry)), MOpts(std::move(MOpts)),
        Cache(Cache), Jobs(std::max(1u, Jobs)) {}

  /// Simulations actually run so far (the memoization-miss count).
  unsigned simulations() const { return Sims; }
  unsigned deferredDuplicates() const { return Deferred; }

  std::vector<CandidateScore> evaluate(const std::vector<TuneParams> &Batch) {
    struct Slot {
      MaoUnit Unit;
      bool PipelineOk = false;
      uint64_t Key = 0;
      std::string Error;
    };
    std::vector<Slot> Slots(Batch.size());

    // Stage 1: run each candidate's pipeline on its own clone and hash the
    // assembled bytes. Per-candidate pipelines run with Jobs=1 — the
    // parallelism budget is spent across candidates, and ThreadPool is not
    // reentrant. A failing pass rolls back per shard (OnErrorPolicy::
    // Rollback), so one broken parameter degrades a candidate instead of
    // killing it.
    auto RunOne = [&](size_t I) {
      TimelineSpan Span("tune", "candidate#" + std::to_string(I));
      Slot &S = Slots[I];
      S.Unit = Base.clone();
      PipelineOptions POpts;
      POpts.OnError = OnErrorPolicy::Rollback;
      POpts.Jobs = 1;
      PipelineResult PR = runPasses(S.Unit, Batch[I].toRequests(), POpts);
      if (!PR.Ok) {
        S.Error = "pipeline failed: " + PR.Error;
        return;
      }
      ErrorOr<SectionBytes> Bytes = assembleUnit(S.Unit);
      if (!Bytes.ok()) {
        S.Error = "assembly failed: " + Bytes.message();
        return;
      }
      S.Key = Cache.keyFor(*Bytes);
      S.PipelineOk = true;
    };
    if (Jobs == 1 || Slots.size() <= 1) {
      for (size_t I = 0; I < Slots.size(); ++I)
        RunOne(I);
    } else {
      ThreadPool Pool(Jobs);
      Pool.parallelFor(Slots.size(), RunOne);
    }

    // Stage 2 (index order): consult the memo; the first candidate with a
    // given byte hash simulates, later ones wait for its result.
    std::vector<CandidateScore> Scores(Batch.size());
    std::vector<size_t> ToSim;
    std::set<uint64_t> PendingKeys;
    std::vector<size_t> DeferredSlots;
    for (size_t I = 0; I < Slots.size(); ++I) {
      if (!Slots[I].PipelineOk) {
        Scores[I].Error = Slots[I].Error;
        continue;
      }
      if (std::optional<uint64_t> Hit = Cache.lookup(Slots[I].Key)) {
        Scores[I].Ok = true;
        Scores[I].Cycles = *Hit;
        continue;
      }
      if (PendingKeys.insert(Slots[I].Key).second)
        ToSim.push_back(I);
      else
        DeferredSlots.push_back(I);
    }

    // Stage 3: simulate the unique misses through the batch scoring API.
    std::vector<MaoUnit *> SimUnits;
    SimUnits.reserve(ToSim.size());
    for (size_t I : ToSim)
      SimUnits.push_back(&Slots[I].Unit);
    std::vector<BatchScore> SimScores =
        scoreBatch(SimUnits, Entry, MOpts, Jobs);
    for (size_t J = 0; J < ToSim.size(); ++J) {
      const size_t I = ToSim[J];
      ++Sims;
      if (!SimScores[J].Ok) {
        Scores[I].Error = "simulation failed: " + SimScores[J].Error;
        continue;
      }
      Scores[I].Ok = true;
      Scores[I].Cycles = SimScores[J].Cycles;
      Cache.insert(Slots[I].Key, SimScores[J].Cycles);
    }

    // Stage 4: resolve within-batch duplicates from the fresh entries.
    for (size_t I : DeferredSlots) {
      ++Deferred;
      if (std::optional<uint64_t> Hit = Cache.lookup(Slots[I].Key)) {
        Scores[I].Ok = true;
        Scores[I].Cycles = *Hit;
      } else {
        Scores[I].Error = "simulation failed for identical bytes";
      }
    }
    return Scores;
  }

private:
  const MaoUnit &Base;
  std::string Entry;
  MeasureOptions MOpts;
  ScoreCache &Cache;
  unsigned Jobs;
  unsigned Sims = 0;
  unsigned Deferred = 0;
};

std::string resolveEntry(MaoUnit &Unit, const std::string &Requested) {
  if (!Requested.empty())
    return Unit.findFunction(Requested) ? Requested : std::string();
  if (Unit.findFunction("bench_main"))
    return "bench_main";
  if (!Unit.functions().empty())
    return Unit.functions().front().name();
  return std::string();
}

} // namespace

ErrorOr<TuneResult> mao::tuneUnit(MaoUnit &Unit, const TuneOptions &Options) {
  linkAllPasses();

  const std::string Entry = resolveEntry(Unit, Options.Entry);
  if (Entry.empty())
    return MaoStatus::error(
        Options.Entry.empty()
            ? std::string("--tune: the unit defines no functions to score")
            : "--tune-entry: no function named '" + Options.Entry + "'");

  const std::optional<ProcessorConfig> Model =
      ProcessorConfig::byName(Options.Config);
  if (!Model)
    return MaoStatus::error("--tune-config: unknown processor model '" +
                            Options.Config + "'");
  MeasureOptions MOpts;
  MOpts.Config = *Model;
  MOpts.MaxSteps = Options.MaxSteps;

  TuneResult R;
  R.Entry = Entry;
  R.Config = Options.Config;
  R.Seed = Options.Seed;
  R.Budget = std::max(2u, Options.Budget);

  SearchSpace Space(Unit, /*MaxSites=*/32, /*MaxFunctions=*/8,
                    Options.SynthAxis, Options.LayoutAxis);
  RandomSource Rng(Options.Seed);
  ScoreCache Cache(Options.Config);
  BatchEvaluator Eval(Unit, Entry, MOpts, Cache, std::max(1u, Options.Jobs));

  std::set<std::string> Seen;
  TuneParams Best = Space.baselineParams();
  uint64_t BestCycles = WorstScore;
  TuneParams Current = Best;
  uint64_t CurrentCycles = WorstScore;
  unsigned StallRounds = 0;
  bool CurrentUnscored = false;

  auto Consume = [&](const std::vector<TuneParams> &Batch,
                     const std::vector<CandidateScore> &Scores) {
    // Index-ordered reduction; ties keep the earlier candidate.
    bool MovedCurrent = false;
    for (size_t I = 0; I < Batch.size(); ++I) {
      ++R.Evaluations;
      if (!Scores[I].Ok) {
        ++R.FailedCandidates;
        continue;
      }
      if (Scores[I].Cycles < BestCycles) {
        Best = Batch[I];
        BestCycles = Scores[I].Cycles;
        R.History.push_back(
            {R.Evaluations, Scores[I].Cycles, Batch[I].toString()});
      }
      if (Scores[I].Cycles < CurrentCycles) {
        Current = Batch[I];
        CurrentCycles = Scores[I].Cycles;
        MovedCurrent = true;
      }
    }
    return MovedCurrent;
  };

  // Round 0: the two reference points. The baseline (all passes off) must
  // be measurable — if the entry function cannot be emulated at all,
  // tuning is meaningless.
  {
    std::vector<TuneParams> Batch = {Space.baselineParams(),
                                     Space.defaultParams()};
    for (const TuneParams &P : Batch)
      Seen.insert(P.toString());
    std::vector<CandidateScore> Scores = Eval.evaluate(Batch);
    if (!Scores[0].Ok)
      return MaoStatus::error("--tune: cannot measure '" + Entry +
                              "': " + Scores[0].Error);
    R.BaselineCycles = Scores[0].Cycles;
    R.DefaultCycles = Scores[1].Ok ? Scores[1].Cycles : Scores[0].Cycles;
    Consume(Batch, Scores);
    Current = Best;
    CurrentCycles = BestCycles;
  }

  // Batch width is a fixed constant, NOT derived from Options.Jobs: the
  // candidate stream, restart points, and cache hit/miss counters must be
  // identical for every --mao-jobs value (the determinism contract — jobs
  // change wall-clock, nothing else). Jobs only fan the work out WITHIN a
  // batch.
  constexpr unsigned BatchWidth = 8;
  while (R.Evaluations < R.Budget) {
    const unsigned K = std::min(R.Budget - R.Evaluations, BatchWidth);
    std::vector<TuneParams> Batch;
    if (CurrentUnscored) {
      // A fresh restart point is evaluated alongside its first neighbours.
      if (Seen.insert(Current.toString()).second)
        Batch.push_back(Current);
      CurrentUnscored = false;
    }
    unsigned Attempts = 0;
    const unsigned MaxAttempts = K * 16;
    while (Batch.size() < K && Attempts++ < MaxAttempts) {
      TuneParams Cand = Space.mutate(Current, Rng);
      if (Seen.insert(Cand.toString()).second)
        Batch.push_back(std::move(Cand));
    }
    if (Batch.empty()) {
      // Neighbourhood exhausted: restart from a random point.
      Current = Space.randomParams(Rng);
      CurrentCycles = WorstScore;
      CurrentUnscored = true;
      ++R.Restarts;
      ++StallRounds;
      if (StallRounds > 8)
        break; // The space around every restart is fully explored.
      continue;
    }
    const bool Improved = Consume(Batch, Eval.evaluate(Batch));
    if (Improved) {
      StallRounds = 0;
    } else if (++StallRounds >= 2 && R.Evaluations < R.Budget) {
      Current = Space.randomParams(Rng);
      CurrentCycles = WorstScore;
      CurrentUnscored = true;
      ++R.Restarts;
      StallRounds = 0;
    }
  }

  R.TunedCycles = BestCycles;
  R.TunedPipeline = Best.toString();
  R.TunedRequests = Best.toRequests();
  R.ScoreCacheMisses = Eval.simulations();
  R.ScoreCacheHits =
      static_cast<uint64_t>(R.Evaluations - R.FailedCandidates) -
      Eval.simulations();

  // Publish the search totals. Everything here is derived from the
  // jobs-independent search trajectory (fixed batch width, index-ordered
  // cache consults), so the counters match the --tune-report determinism
  // guarantee.
  StatsRegistry &Stats = StatsRegistry::instance();
  Stats.counter("tune.candidates").add(R.Evaluations);
  Stats.counter("tune.failed_candidates").add(R.FailedCandidates);
  Stats.counter("tune.cache_served").add(R.ScoreCacheHits);
  Stats.counter("tune.simulations").add(R.ScoreCacheMisses);
  Stats.counter("tune.restarts").add(R.Restarts);
  Stats.counter("tune.improvements").add(R.History.size());
  if (R.TunedCycles < R.BaselineCycles)
    Stats.counter("tune.accepted").add();

  // Apply the winner to the caller's unit.
  PipelineOptions POpts;
  POpts.OnError = OnErrorPolicy::Rollback;
  POpts.Jobs = std::max(1u, Options.Jobs);
  PipelineResult PR = runPasses(Unit, R.TunedRequests, POpts);
  if (!PR.Ok)
    return MaoStatus::error("--tune: winning pipeline failed on the input: " +
                            PR.Error);
  return R;
}

std::string mao::tuneReportJson(const TuneResult &R) {
  std::string Out = "{\n";
  auto Str = [&](const char *Key, const std::string &V, bool Comma = true) {
    Out += std::string("  \"") + Key + "\": \"" + jsonEscape(V) + "\"";
    Out += Comma ? ",\n" : "\n";
  };
  auto Num = [&](const char *Key, uint64_t V, bool Comma = true) {
    Out += std::string("  \"") + Key + "\": " + std::to_string(V);
    Out += Comma ? ",\n" : "\n";
  };
  Str("entry", R.Entry);
  Str("config", R.Config);
  Num("seed", R.Seed);
  Num("budget", R.Budget);
  Num("baseline_cycles", R.BaselineCycles);
  Num("default_cycles", R.DefaultCycles);
  Num("tuned_cycles", R.TunedCycles);
  {
    double Pct = 0.0;
    if (R.DefaultCycles > 0)
      Pct = 100.0 *
            (static_cast<double>(R.DefaultCycles) -
             static_cast<double>(R.TunedCycles)) /
            static_cast<double>(R.DefaultCycles);
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.2f", Pct);
    Out += std::string("  \"improvement_vs_default_pct\": ") + Buf + ",\n";
  }
  Str("tuned_pipeline", R.TunedPipeline);
  Num("evaluations", R.Evaluations);
  Num("restarts", R.Restarts);
  Num("failed_candidates", R.FailedCandidates);
  Num("score_cache_hits", R.ScoreCacheHits);
  Num("score_cache_misses", R.ScoreCacheMisses);
  Out += "  \"history\": [\n";
  for (size_t I = 0; I < R.History.size(); ++I) {
    const TuneImprovement &H = R.History[I];
    Out += "    {\"evaluation\": " + std::to_string(H.Evaluation) +
           ", \"cycles\": " + std::to_string(H.Cycles) + ", \"pipeline\": \"" +
           jsonEscape(H.Pipeline) + "\"}";
    Out += I + 1 < R.History.size() ? ",\n" : "\n";
  }
  Out += "  ]\n}\n";
  return Out;
}
