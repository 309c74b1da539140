//===- serve/Serve.h - maod engine, server and client -----------*- C++ -*-===//
///
/// \file
/// The long-lived service mode: `maod` keeps a warm process (opcode
/// tables, pass registry, thread pool, artifact cache) and answers
/// optimization requests over the framed protocol; `mao --connect` is the
/// thin client.
///
/// The layer is split so each piece is testable without sockets:
///
///   * Engine — one request in, one response out, no I/O. Owns a Session
///     (and through it the artifact cache) and implements the request
///     budget and the degradation ladder: an oversized or malformed
///     request gets a structured error; a pass failure is rolled back or
///     skipped by the pipeline's own OnError machinery; and if the
///     optimization still fails, the response is the input passed through
///     unchanged (DegradedIdentity) with a diagnostic — a worker never
///     dies and never returns wrong bytes.
///   * Server — the accept/dispatch loop over a unix socket (or a plain
///     fd pair for --stdio and tests), one Engine per connection thread.
///     The artifact cache is opened once, when the server is built, and
///     every connection's Engine shares that handle.
///   * Client — connect, send, receive, with bounded retry and
///     exponential backoff; the caller (the mao driver) falls back to a
///     local run when the daemon stays unreachable.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_SERVE_SERVE_H
#define MAO_SERVE_SERVE_H

#include "mao/Mao.h"
#include "serve/Protocol.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

namespace mao {
namespace serve {

/// Per-engine limits and defaults, all overridable per request where a
/// request field exists.
struct EngineOptions {
  std::string CacheDir;      ///< Empty: no persistent cache.
  /// Byte budget for the persistent cache; stores beyond it evict oldest
  /// entries first (0 = unbounded).
  uint64_t CacheBudgetBytes = 0;
  uint32_t DefaultDeadlineMs = 0; ///< Per-request pass budget (0 = none).
  uint32_t MaxJobs = 0;      ///< Clamp on request Jobs (0 = hardware).
  /// Memory budget per request: source text larger than this is refused
  /// with a structured error before any parsing allocates.
  size_t MaxRequestBytes = 8ULL << 20;
};

/// One request in, one response out. Thread-compatible (not thread-safe):
/// the server gives each connection its own Engine.
class Engine {
public:
  /// Opens Options.CacheDir (when set) for this engine alone.
  explicit Engine(const EngineOptions &Options);
  /// Shares \p CacheOwner's open artifact cache instead of opening
  /// Options.CacheDir again (see api::Session::cacheAttach).
  Engine(const EngineOptions &Options, const Engine &CacheOwner);
  ~Engine();
  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// Never throws and never returns wrong bytes: every failure shape maps
  /// to a ServeStatus (see the degradation ladder in the file comment).
  ServeResponse handle(const ServeRequest &Request);

  /// The engine's session (tests inspect cache stats through it).
  api::Session &session();
  const api::Session &session() const;

private:
  EngineOptions Options;
  std::unique_ptr<api::Session> S;
};

struct ServerOptions {
  std::string SocketPath; ///< Unix socket to listen on (socket mode).
  EngineOptions Engine;
  uint64_t MaxRequests = 0; ///< Stop after this many requests (0 = never).
};

/// The maod accept loop. Socket mode (run()) listens on SocketPath and
/// serves each connection on its own thread with its own Engine; stdio
/// mode (runOnFds) serves one framed stream on an fd pair, which is also
/// how tests drive a full server over a socketpair. Finished connection
/// threads are joined before each accept, so the daemon's thread count
/// follows its concurrent connections, not the ones it has served.
class Server {
public:
  /// Opens the artifact cache (Options.Engine.CacheDir) once for every
  /// connection; cacheEngine().session().cacheIsOpen() reports whether it
  /// could.
  explicit Server(const ServerOptions &Options);

  /// The engine that owns the shared artifact cache. It serves no
  /// requests itself; maod and tests read cache state through it.
  const Engine &cacheEngine() const { return CacheOwner; }

  /// Binds, listens and serves until requestStop(), a Shutdown frame, or
  /// MaxRequests. Returns an error only for setup failures (bind/listen);
  /// per-connection errors are answered on the wire and contained.
  MaoStatus run();

  /// Serves one connection's frames on \p InFd / \p OutFd until EOF,
  /// Shutdown, or a stream error. Used for --stdio and by tests.
  MaoStatus runOnFds(int InFd, int OutFd);

  /// Async-signal-safe stop: closes the listening socket so run() returns
  /// after in-flight connections finish. Safe from a signal handler.
  void requestStop();

  uint64_t requestsServed() const {
    return Requests.load(std::memory_order_relaxed);
  }

private:
  /// Serves frames on a connected stream with \p E. Returns true when the
  /// server should keep accepting (false after Shutdown/MaxRequests).
  bool serveStream(Engine &E, int InFd, int OutFd);

  ServerOptions Options;
  Engine CacheOwner;
  std::atomic<int> ListenFd{-1};
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Requests{0};
};

struct ClientOptions {
  std::string SocketPath;
  unsigned Attempts = 3;       ///< Total connect+send tries.
  unsigned BackoffMs = 50;     ///< First retry delay; doubles per retry.
  bool Deterministic = false;  ///< Tests: skip real sleeps between tries.
};

/// Sends \p Request to the daemon at Options.SocketPath with bounded
/// retry and exponential backoff. An error return means the daemon was
/// unreachable or the stream failed on every attempt — the caller decides
/// whether to fall back to a local run (the mao driver does).
MaoStatus clientRun(const ClientOptions &Options, const ServeRequest &Request,
                    ServeResponse &Out);

/// Asks the daemon to finish its accept loop (scripts and tests use this
/// for a deterministic, clean stop).
MaoStatus clientShutdown(const ClientOptions &Options);

} // namespace serve
} // namespace mao

#endif // MAO_SERVE_SERVE_H
