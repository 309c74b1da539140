//===- serve/Serve.cpp - maod engine, server and client ----------------------==//

#include "serve/Serve.h"

#include "support/Stats.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <list>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace mao;
using namespace mao::api;
using namespace mao::serve;

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

namespace {

std::unique_ptr<api::Session> makeEngineSession() {
  api::Session::Config C;
  // Diagnostics belong in the response, not on the daemon's stderr.
  C.StderrDiagnostics = false;
  return std::make_unique<api::Session>(C);
}

} // namespace

Engine::Engine(const EngineOptions &EO)
    : Options(EO), S(makeEngineSession()) {
  if (!Options.CacheDir.empty())
    // A cache that fails to open degrades to uncached service; the maod
    // main warns once at startup (cacheIsOpen() is false).
    (void)S->cacheOpen(Options.CacheDir, Options.CacheBudgetBytes);
}

Engine::Engine(const EngineOptions &EO, const Engine &CacheOwner)
    : Options(EO), S(makeEngineSession()) {
  S->cacheAttach(CacheOwner.session());
}

Engine::~Engine() = default;

api::Session &Engine::session() { return *S; }

const api::Session &Engine::session() const { return *S; }

ServeResponse Engine::handle(const ServeRequest &Request) {
  StatsRegistry::instance().counter("serve.requests").add(1);
  ServeResponse Resp;

  // Rung 0: request budget. Refuse before anything allocates
  // proportionally to the payload.
  if (Request.Source.size() > Options.MaxRequestBytes) {
    Resp.Status = ServeStatus::Error;
    Resp.Diagnostic = "request too large: " +
                      std::to_string(Request.Source.size()) + " bytes (cap " +
                      std::to_string(Options.MaxRequestBytes) + ")";
    StatsRegistry::instance().counter("serve.errors").add(1);
    return Resp;
  }

  // Rung 1: a bad pipeline spelling is a structured client error.
  CachedRunRequest Run;
  if (!Request.Pipeline.empty()) {
    if (Status St = api::Session::parsePipelineSpec(Request.Pipeline, Run.Pipeline);
        !St.Ok) {
      Resp.Status = ServeStatus::Error;
      Resp.Diagnostic = St.Message;
      StatsRegistry::instance().counter("serve.errors").add(1);
      return Resp;
    }
  }
  Run.Source = Request.Source;
  if (!Request.Name.empty())
    Run.Name = Request.Name;
  Run.Options.OnError =
      Request.OnError.empty() ? std::string("rollback") : Request.OnError;
  Run.Options.Validate =
      Request.Validate.empty() ? std::string("off") : Request.Validate;
  Run.Options.CollectStats = true;
  unsigned Jobs = Request.Jobs == 0 ? 1u : Request.Jobs;
  if (Options.MaxJobs != 0 && Jobs > Options.MaxJobs)
    Jobs = Options.MaxJobs;
  Run.Options.Jobs = Jobs;
  const uint32_t Deadline =
      Request.DeadlineMs != 0 ? Request.DeadlineMs : Options.DefaultDeadlineMs;
  Run.Options.PassTimeoutMs = static_cast<long>(Deadline);

  // Rung 2: the pipeline's own OnError machinery (rollback/skip) absorbs
  // individual pass failures inside cacheRun.
  CachedRunResult Result;
  Status St = Status::success();
  try {
    St = S->cacheRun(Run, Result);
  } catch (const std::exception &E) {
    St = Status::error(std::string("internal error: ") + E.what());
  } catch (...) {
    St = Status::error("internal error");
  }
  if (St.Ok) {
    Resp.Status = ServeStatus::Ok;
    Resp.CacheHit = Result.CacheHit;
    Resp.Output = std::move(Result.Output);
    Resp.Report = std::move(Result.ReportJson);
    Resp.Diagnostic = std::move(Result.Diagnostic);
    if (Resp.CacheHit)
      StatsRegistry::instance().counter("serve.cache_hits").add(1);
    return Resp;
  }

  // Rung 3: input that does not even parse gets a structured error (no
  // bytes of ours could be "correct" for it) ...
  Program Probe;
  if (Status ParseSt = S->parseText(Request.Source, Run.Name, Probe);
      !ParseSt.Ok) {
    Resp.Status = ServeStatus::Error;
    Resp.Diagnostic = St.Message;
    StatsRegistry::instance().counter("serve.errors").add(1);
    return Resp;
  }

  // ... while a failed optimization of valid input bottoms out at identity
  // passthrough: the input is a correct (if unoptimized) answer, and the
  // worker lives on.
  Resp.Status = ServeStatus::DegradedIdentity;
  Resp.Output = Request.Source;
  Resp.Diagnostic = St.Message;
  StatsRegistry::instance().counter("serve.degraded").add(1);
  return Resp;
}

//===----------------------------------------------------------------------===//
// Server
//===----------------------------------------------------------------------===//

Server::Server(const ServerOptions &SO)
    : Options(SO), CacheOwner(Options.Engine) {}

bool Server::serveStream(Engine &E, int InFd, int OutFd) {
  while (true) {
    Frame F;
    bool CleanEof = false;
    if (MaoStatus S = readFrame(InFd, F, CleanEof)) {
      // Torn frame, bad magic, checksum mismatch: the stream boundary is
      // lost, so answer (best-effort) and drop the connection. The client
      // retries on a fresh one.
      (void)writeFrame(OutFd, Frame{FrameKind::Error, S.message()});
      return true;
    }
    if (CleanEof)
      return true;
    if (F.Kind == FrameKind::Shutdown)
      return false;
    if (F.Kind != FrameKind::Request) {
      (void)writeFrame(OutFd,
                       Frame{FrameKind::Error, "unexpected frame kind"});
      return true;
    }
    ServeRequest Req;
    if (MaoStatus S = decodeRequest(F.Payload, Req)) {
      // Frame boundaries are intact, so a malformed payload only costs
      // this one request; keep serving the connection.
      (void)writeFrame(OutFd, Frame{FrameKind::Error, S.message()});
      continue;
    }
    ServeResponse Resp = E.handle(Req);
    const uint64_t Served = Requests.fetch_add(1) + 1;
    if (writeFrame(OutFd, Frame{FrameKind::Response, encodeResponse(Resp)}))
      return true;
    if (Options.MaxRequests != 0 && Served >= Options.MaxRequests)
      return false;
  }
}

MaoStatus Server::runOnFds(int InFd, int OutFd) {
  Engine E(Options.Engine, CacheOwner);
  (void)serveStream(E, InFd, OutFd);
  return MaoStatus::success();
}

MaoStatus Server::run() {
  const std::string &Path = Options.SocketPath;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path))
    return MaoStatus::error("bad socket path '" + Path + "'");
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return MaoStatus::error(std::string("socket: ") + std::strerror(errno));
  // A previous daemon's stale socket file would make bind fail; it is
  // dead (nothing accepts on it), so replace it.
  ::unlink(Path.c_str());
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    const int E = errno;
    ::close(Fd);
    return MaoStatus::error("bind " + Path + ": " + std::strerror(E));
  }
  if (::listen(Fd, 64) < 0) {
    const int E = errno;
    ::close(Fd);
    ::unlink(Path.c_str());
    return MaoStatus::error("listen " + Path + ": " + std::strerror(E));
  }
  ListenFd.store(Fd, std::memory_order_release);

  // Connection threads, owned by this (the accept) thread alone. A worker
  // flags Done as its last action; finished ones are joined before the
  // next accept, so a long-lived daemon does not keep one dead thread
  // (and its stack) per connection it ever served.
  struct Worker {
    std::thread Thread;
    std::atomic<bool> Done{false};
  };
  std::list<Worker> Workers; // Node-stable: threads hold a Worker&.
  auto Reap = [&Workers](bool All) {
    for (auto It = Workers.begin(); It != Workers.end();) {
      if (!All && !It->Done.load(std::memory_order_acquire)) {
        ++It;
        continue;
      }
      It->Thread.join();
      It = Workers.erase(It);
    }
  };
  while (!Stop.load(std::memory_order_acquire)) {
    Reap(/*All=*/false);
    int Conn = ::accept(Fd, nullptr, nullptr);
    if (Conn < 0) {
      if (errno == EINTR)
        continue;
      break; // requestStop() shut the listener down.
    }
    Worker &W = Workers.emplace_back();
    W.Thread = std::thread([this, Conn, &W] {
      // Each connection gets its own Engine (its own Session) attached to
      // the server's one cache handle.
      Engine E(Options.Engine, CacheOwner);
      const bool KeepGoing = serveStream(E, Conn, Conn);
      ::close(Conn);
      if (!KeepGoing)
        requestStop();
      W.Done.store(true, std::memory_order_release);
    });
  }

  requestStop();
  Reap(/*All=*/true); // No new workers can start once the listener is down.
  ::unlink(Path.c_str());
  return MaoStatus::success();
}

void Server::requestStop() {
  Stop.store(true, std::memory_order_release);
  const int Fd = ListenFd.exchange(-1, std::memory_order_acq_rel);
  if (Fd >= 0) {
    // shutdown() wakes a thread blocked in accept(); close() alone is not
    // guaranteed to. Both calls are async-signal-safe, so this doubles as
    // the SIGINT/SIGTERM path in maod.
    ::shutdown(Fd, SHUT_RDWR);
    ::close(Fd);
  }
}

//===----------------------------------------------------------------------===//
// Client
//===----------------------------------------------------------------------===//

namespace {

MaoStatus connectTo(const std::string &Path, int &OutFd) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path))
    return MaoStatus::error("bad socket path '" + Path + "'");
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return MaoStatus::error(std::string("socket: ") + std::strerror(errno));
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    const int E = errno;
    ::close(Fd);
    return MaoStatus::error("connect " + Path + ": " + std::strerror(E));
  }
  OutFd = Fd;
  return MaoStatus::success();
}

/// One connect → request → response round trip.
MaoStatus tryOnce(const std::string &Path, const ServeRequest &Request,
                  ServeResponse &Out) {
  int Fd = -1;
  if (MaoStatus S = connectTo(Path, Fd))
    return S;
  struct Closer {
    int Fd;
    ~Closer() { ::close(Fd); }
  } C{Fd};
  if (MaoStatus S =
          writeFrame(Fd, Frame{FrameKind::Request, encodeRequest(Request)}))
    return S;
  Frame F;
  bool CleanEof = false;
  if (MaoStatus S = readFrame(Fd, F, CleanEof))
    return S;
  if (CleanEof)
    return MaoStatus::error("daemon closed the connection before replying");
  if (F.Kind == FrameKind::Error)
    return MaoStatus::error("daemon error: " + F.Payload);
  if (F.Kind != FrameKind::Response)
    return MaoStatus::error("unexpected frame kind from daemon");
  return decodeResponse(F.Payload, Out);
}

} // namespace

MaoStatus mao::serve::clientRun(const ClientOptions &Options,
                                const ServeRequest &Request,
                                ServeResponse &Out) {
  const unsigned Attempts = Options.Attempts == 0 ? 1 : Options.Attempts;
  MaoStatus Last = MaoStatus::error("no attempts made");
  for (unsigned Try = 0; Try < Attempts; ++Try) {
    if (Try != 0 && !Options.Deterministic) {
      const unsigned DelayMs = Options.BackoffMs << (Try - 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(DelayMs));
    }
    Last = tryOnce(Options.SocketPath, Request, Out);
    if (Last.ok())
      return Last;
  }
  return MaoStatus::error("daemon unreachable after " +
                          std::to_string(Attempts) +
                          " attempts: " + Last.message());
}

MaoStatus mao::serve::clientShutdown(const ClientOptions &Options) {
  int Fd = -1;
  if (MaoStatus S = connectTo(Options.SocketPath, Fd))
    return S;
  MaoStatus S = writeFrame(Fd, Frame{FrameKind::Shutdown, ""});
  ::close(Fd);
  return S;
}
