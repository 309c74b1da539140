//===- serve/Protocol.h - maod wire protocol --------------------*- C++ -*-===//
///
/// \file
/// The length-prefixed framing protocol between `mao --connect` and the
/// `maod` daemon, over a stream fd (unix socket or a stdin/stdout pair).
///
/// Wire format of one frame (all integers little-endian):
///
///   "MF"  u8 kind  u8 zero  u32 payload-len  u64 fnv1a(payload)  payload
///
/// The explicit length makes truncation detectable (a peer that dies
/// mid-send leaves a short read, never a half-interpreted message) and the
/// per-frame checksum catches corruption in transit; both failure shapes
/// are deterministically injectable via FaultSite::Frame so ServeTest and
/// `maofuzz --serve` exercise the recovery paths without a flaky peer.
///
/// Payloads are schema-versioned structs serialized with the same
/// bounds-checked length-prefixed primitives as the artifact cache. A
/// malformed payload is a structured decode error, never UB: every read
/// is bounds-checked and every variable length is capped.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_SERVE_PROTOCOL_H
#define MAO_SERVE_PROTOCOL_H

#include "support/Status.h"

#include <cstdint>
#include <string>

namespace mao {
namespace serve {

/// Frame kinds. Error carries a human-readable message payload; Shutdown
/// asks the server to finish its accept loop (used by scripts and tests
/// for a deterministic, clean stop).
enum class FrameKind : uint8_t {
  Request = 1,
  Response = 2,
  Error = 3,
  Shutdown = 4,
};

struct Frame {
  FrameKind Kind = FrameKind::Error;
  std::string Payload;
};

/// Hard cap on payload size (default 64 MiB): a malformed or malicious
/// length prefix must not drive the server into allocating unbounded
/// memory. Servers may configure a tighter cap per request.
constexpr size_t MaxFramePayload = 64ULL << 20;

/// Writes one frame to \p Fd, handling partial writes. Returns an error on
/// any I/O failure (the peer sees a truncated frame and recovers on its
/// side; this side's stream is unusable afterwards).
MaoStatus writeFrame(int Fd, const Frame &F);

/// Reads one frame from \p Fd. Outcomes:
///   * ok, CleanEof=false — a verified frame in \p Out,
///   * ok, CleanEof=true  — orderly EOF before any byte (peer closed),
///   * error              — truncated frame, bad magic, oversized length,
///                          or checksum mismatch (including an injected
///                          FaultSite::Frame truncation).
MaoStatus readFrame(int Fd, Frame &Out, bool &CleanEof,
                    size_t MaxPayload = MaxFramePayload);

/// One optimization request. Pipeline carries the canonical registry
/// spelling ("zee,sched(window=8)"); the key-relevant execution options
/// ride along so the server reproduces exactly what a local run would do.
struct ServeRequest {
  std::string Name;     ///< Input name for diagnostics ("a.s").
  std::string Source;   ///< Verbatim assembly text.
  std::string Pipeline; ///< Canonical pipeline spec (may be empty).
  std::string OnError = "rollback";
  std::string Validate = "off";
  uint32_t Jobs = 1;       ///< Worker count; never affects output bytes.
  uint32_t DeadlineMs = 0; ///< Per-request budget (0 = server default).
  uint32_t Verify = 0;     ///< Nonzero: --mao-verify.
};

/// Request disposition, the top rung first. DegradedIdentity means the
/// degradation ladder bottomed out: the payload is the input passed
/// through unchanged, plus a structured diagnostic — a correct (if
/// unoptimized) result, never a dead worker or wrong bytes.
enum class ServeStatus : uint8_t {
  Ok = 0,
  DegradedIdentity = 1,
  Error = 2,
};

struct ServeResponse {
  ServeStatus Status = ServeStatus::Error;
  bool CacheHit = false;
  std::string Output;     ///< Optimized (or passed-through) assembly.
  std::string Report;     ///< Per-run report JSON (non-timing sections).
  std::string Diagnostic; ///< Human-readable detail for non-Ok statuses.
};

std::string encodeRequest(const ServeRequest &R);
MaoStatus decodeRequest(const std::string &Payload, ServeRequest &Out);
std::string encodeResponse(const ServeResponse &R);
MaoStatus decodeResponse(const std::string &Payload, ServeResponse &Out);

} // namespace serve
} // namespace mao

#endif // MAO_SERVE_PROTOCOL_H
