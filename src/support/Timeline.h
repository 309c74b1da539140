//===- support/Timeline.h - Chrome trace-event timeline --------*- C++ -*-===//
//
// Part of the MAO reproduction project, under GPL v3 like the original MAO.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lightweight collector for Chrome trace-event JSON ("catapult" format,
/// loadable in chrome://tracing and Perfetto). Code brackets work in
/// TimelineSpan RAII scopes; each completed span becomes one `ph:"X"`
/// (complete) event on the lane of the thread that ran it, so parallel
/// shards and tune candidates render as one lane per worker thread.
///
/// Collection is opt-in: spans are no-ops unless a Timeline has been
/// installed with Timeline::setActive (done by the api::Session when
/// `--mao-trace-out=FILE` is given). Recording takes one short mutex hold
/// per span — timelines are a diagnostic tool, not a hot path.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_SUPPORT_TIMELINE_H
#define MAO_SUPPORT_TIMELINE_H

#include "support/Stats.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace mao {

class Timeline {
public:
  struct Event {
    std::string Name;
    const char *Category; ///< Static string: "pass", "shard", "tune", "sim".
    uint64_t BeginUs;
    uint64_t DurationUs;
    unsigned Lane;
  };

  Timeline() : Start(std::chrono::steady_clock::now()) {}

  /// The process-wide collector, or nullptr when tracing is off.
  static Timeline *active();
  /// Installs \p T as the process-wide collector (nullptr to disable).
  static void setActive(Timeline *T);

  /// Microseconds since this timeline was constructed.
  uint64_t nowUs() const;

  /// Records one complete event on the calling thread's lane. Lanes are
  /// numbered in first-recording order: lane 0 is the orchestrator.
  void record(const char *Category, std::string Name, uint64_t BeginUs,
              uint64_t EndUs);

  size_t eventCount() const;

  /// Renders the whole timeline as a trace-event JSON document with
  /// thread_name metadata per lane.
  std::string renderJson() const;

private:
  std::chrono::steady_clock::time_point Start;
  mutable std::mutex M;
  std::vector<Event> Events;
  std::map<std::thread::id, unsigned> Lanes;
};

/// Brackets a region of work: records a complete event on destruction.
/// Cheap no-op when no timeline is active.
class TimelineSpan {
public:
  TimelineSpan(const char *Category, std::string Name)
      : T(Timeline::active()), Category(Category) {
    if (T) {
      this->Name = std::move(Name);
      Begin = T->nowUs();
    }
  }
  ~TimelineSpan() {
    if (T)
      T->record(Category, std::move(Name), Begin, T->nowUs());
  }
  TimelineSpan(const TimelineSpan &) = delete;
  TimelineSpan &operator=(const TimelineSpan &) = delete;

private:
  Timeline *T;
  const char *Category;
  std::string Name;
  uint64_t Begin = 0;
};

/// Times one phase of a run: a "phase" span on the timeline and the
/// microseconds in the phase's time.phase.<name>_us counter, which --stats
/// and --mao-report show.
class PhaseTimer {
public:
  PhaseTimer(const char *Name, const char *Counter)
      : Span("phase", Name), Micros(StatsRegistry::instance().counter(Counter)),
        Start(std::chrono::steady_clock::now()) {}
  ~PhaseTimer() {
    Micros.add(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - Start)
            .count()));
  }
  PhaseTimer(const PhaseTimer &) = delete;
  PhaseTimer &operator=(const PhaseTimer &) = delete;

private:
  TimelineSpan Span;
  StatCounter &Micros;
  std::chrono::steady_clock::time_point Start;
};

} // namespace mao

#endif // MAO_SUPPORT_TIMELINE_H
