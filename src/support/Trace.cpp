//===- support/Trace.cpp - Tracing facility -------------------------------==//

#include "support/Trace.h"

#include <cstdio>
#include <mutex>

using namespace mao;

namespace {
std::mutex &logMutex() {
  static std::mutex M;
  return M;
}

LogWriter &logWriter() {
  static LogWriter W;
  return W;
}
} // namespace

void mao::lockedLogWrite(const std::string &Text) {
  std::lock_guard<std::mutex> Lock(logMutex());
  LogWriter &W = logWriter();
  if (W) {
    W(Text);
    return;
  }
  std::fwrite(Text.data(), 1, Text.size(), stderr);
}

LogWriter mao::setLogWriter(LogWriter Writer) {
  std::lock_guard<std::mutex> Lock(logMutex());
  LogWriter Previous = std::move(logWriter());
  logWriter() = std::move(Writer);
  return Previous;
}

void TraceContext::trace(int MsgLevel, const char *Fmt, ...) const {
  va_list Args;
  va_start(Args, Fmt);
  vtrace(MsgLevel, Fmt, Args);
  va_end(Args);
}

void TraceContext::vtrace(int MsgLevel, const char *Fmt, va_list Args,
                          std::string *Buffer) const {
  if (MsgLevel > level())
    return;
  // Format "[name] body\n" into one buffer so the emission below is a
  // single write: three separate stdio calls here used to tear lines when
  // shards traced concurrently under --mao-jobs.
  va_list Sizing;
  va_copy(Sizing, Args);
  const int BodyLen = std::vsnprintf(nullptr, 0, Fmt, Sizing);
  va_end(Sizing);
  if (BodyLen < 0)
    return;
  std::string Line;
  Line.reserve(Name.size() + BodyLen + 4);
  Line += '[';
  Line += Name;
  Line += "] ";
  const size_t Prefix = Line.size();
  Line.resize(Prefix + BodyLen + 1);
  std::vsnprintf(&Line[Prefix], BodyLen + 1, Fmt, Args);
  Line[Prefix + BodyLen] = '\n';
  if (Buffer)
    *Buffer += Line;
  else
    lockedLogWrite(Line);
}

TraceContext &TraceContext::global() {
  static TraceContext Ctx("mao", 0);
  return Ctx;
}
