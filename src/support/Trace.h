//===- support/Trace.h - Tracing facility for MAO passes -------*- C++ -*-===//
//
// Part of the MAO reproduction project, under GPL v3 like the original MAO.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The standard tracing facility available to every MAO pass (paper Sec.
/// III-A). Trace output is filtered by a per-pass trace level: a message is
/// emitted iff its level is <= the currently configured level. Level 0 means
/// "always interesting", higher levels are increasingly verbose.
///
/// Every trace line is formatted into a single buffer and emitted through
/// one locked write (lockedLogWrite) shared with the stderr diagnostics
/// sink, so lines from parallel shards never tear or interleave.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_SUPPORT_TRACE_H
#define MAO_SUPPORT_TRACE_H

#include <atomic>
#include <cstdarg>
#include <functional>
#include <string>

namespace mao {

/// Writes \p Text to the process log sink (stderr unless overridden) as one
/// operation under the global log lock. Tracing and the stderr diagnostics
/// sink both funnel through here, so concurrent writers produce whole
/// lines, never torn fragments.
void lockedLogWrite(const std::string &Text);

/// Test seam: replaces the log sink behind lockedLogWrite and returns the
/// previous writer. Pass an empty function to restore the stderr default.
using LogWriter = std::function<void(const std::string &)>;
LogWriter setLogWriter(LogWriter Writer);

/// Sink plus level filter for diagnostic output.
///
/// Each pass owns a TraceContext named after the pass; the global context is
/// used by infrastructure code and seeds the default level of passes with no
/// explicit trace[N] option (set it with --mao-trace-level=N). Output goes
/// to stderr so it never mixes with assembly written to stdout. The level is
/// atomic: the driver thread configures it while shard workers read it.
class TraceContext {
public:
  explicit TraceContext(std::string Name, int Level = 0)
      : Name(std::move(Name)), Level(Level) {}

  /// Emits a printf-formatted message when \p MsgLevel <= the context level.
  void trace(int MsgLevel, const char *Fmt, ...) const
      __attribute__((format(printf, 3, 4)));

  /// va_list flavour of trace() for forwarding wrappers (MaoPass::trace).
  /// With \p Buffer the line is appended there instead of written.
  void vtrace(int MsgLevel, const char *Fmt, va_list Args,
              std::string *Buffer = nullptr) const;

  void setLevel(int NewLevel) {
    Level.store(NewLevel, std::memory_order_relaxed);
  }
  int level() const { return Level.load(std::memory_order_relaxed); }
  const std::string &name() const { return Name; }

  /// Returns the process-wide context used by non-pass infrastructure.
  static TraceContext &global();

private:
  std::string Name;
  std::atomic<int> Level;
};

} // namespace mao

#endif // MAO_SUPPORT_TRACE_H
