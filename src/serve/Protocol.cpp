//===- serve/Protocol.cpp - maod wire protocol -------------------------------==//

#include "serve/Protocol.h"

#include "serve/LittleEndian.h"
#include "support/FaultInjection.h"
#include "support/FileIO.h"
#include "support/Hash.h"

#include <cerrno>
#include <cstring>
#include <unistd.h>

using namespace mao;
using namespace mao::serve;

namespace {

constexpr char FrameMagic0 = 'M';
constexpr char FrameMagic1 = 'F';
constexpr size_t FrameHeaderSize = 2 + 1 + 1 + 4 + 8;
constexpr uint32_t RequestSchema = 3;
constexpr uint32_t ResponseSchema = 1;

void appendString(std::string &Out, const std::string &S) {
  appendU32(Out, static_cast<uint32_t>(S.size()));
  Out.append(S);
}

bool readString(const std::string &Bytes, size_t &Pos, std::string &Out) {
  uint32_t Len = 0;
  if (!readU32(Bytes, Pos, Len) || Pos + Len > Bytes.size())
    return false;
  Out.assign(Bytes, Pos, Len);
  Pos += Len;
  return true;
}

/// Reads exactly \p Size bytes. \p SawAny reports whether any byte arrived
/// before EOF, which distinguishes an orderly close from a torn frame.
MaoStatus readAll(int Fd, char *Data, size_t Size, bool &SawAny) {
  size_t Done = 0;
  while (Done < Size) {
    ssize_t N = ::read(Fd, Data + Done, Size - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return MaoStatus::error(std::string("frame read failed: ") +
                              std::strerror(errno));
    }
    if (N == 0)
      return MaoStatus::error("truncated frame (peer closed mid-frame)");
    Done += static_cast<size_t>(N);
    SawAny = true;
  }
  return MaoStatus::success();
}

} // namespace

MaoStatus mao::serve::writeFrame(int Fd, const Frame &F) {
  std::string Wire;
  Wire.reserve(FrameHeaderSize + F.Payload.size());
  Wire.push_back(FrameMagic0);
  Wire.push_back(FrameMagic1);
  Wire.push_back(static_cast<char>(F.Kind));
  Wire.push_back(0);
  appendU32(Wire, static_cast<uint32_t>(F.Payload.size()));
  appendU64(Wire, fnv1a64(F.Payload));
  Wire.append(F.Payload);
  if (!writeFully(Fd, Wire.data(), Wire.size()))
    return MaoStatus::error(std::string("frame write failed: ") +
                            std::strerror(errno));
  return MaoStatus::success();
}

MaoStatus mao::serve::readFrame(int Fd, Frame &Out, bool &CleanEof,
                                size_t MaxPayload) {
  CleanEof = false;
  char Header[FrameHeaderSize];
  bool SawAny = false;
  if (MaoStatus S = readAll(Fd, Header, sizeof(Header), SawAny)) {
    if (!SawAny) {
      CleanEof = true;
      return MaoStatus::success();
    }
    return S;
  }
  if (Header[0] != FrameMagic0 || Header[1] != FrameMagic1)
    return MaoStatus::error("bad frame magic");
  const uint8_t Kind = static_cast<uint8_t>(Header[2]);
  if (Kind < static_cast<uint8_t>(FrameKind::Request) ||
      Kind > static_cast<uint8_t>(FrameKind::Shutdown))
    return MaoStatus::error("unknown frame kind " + std::to_string(Kind));
  uint32_t Len = 0;
  uint64_t Checksum = 0;
  size_t Pos = 4;
  (void)readU32({Header, sizeof(Header)}, Pos, Len);
  (void)readU64({Header, sizeof(Header)}, Pos, Checksum);
  if (Len > MaxPayload)
    return MaoStatus::error("frame payload too large (" +
                            std::to_string(Len) + " bytes)");
  std::string Payload(Len, '\0');
  // Injected truncation: fail exactly as if the peer died mid-send. The
  // stream is unusable afterwards, matching the real failure — callers
  // must close the connection, not retry the read.
  if (Len > 0 && FaultInjector::instance().shouldFail(FaultSite::Frame))
    return MaoStatus::error("truncated frame (injected)");
  if (Len > 0)
    if (MaoStatus S = readAll(Fd, Payload.data(), Len, SawAny))
      return S;
  if (fnv1a64(Payload) != Checksum)
    return MaoStatus::error("frame checksum mismatch");
  Out.Kind = static_cast<FrameKind>(Kind);
  Out.Payload = std::move(Payload);
  return MaoStatus::success();
}

std::string mao::serve::encodeRequest(const ServeRequest &R) {
  std::string Out;
  appendU32(Out, RequestSchema);
  appendString(Out, R.Name);
  appendString(Out, R.Source);
  appendString(Out, R.Pipeline);
  appendString(Out, R.OnError);
  appendString(Out, R.Validate);
  appendU32(Out, R.Jobs);
  appendU32(Out, R.DeadlineMs);
  appendU32(Out, R.Verify);
  return Out;
}

MaoStatus mao::serve::decodeRequest(const std::string &Payload,
                                    ServeRequest &Out) {
  size_t Pos = 0;
  uint32_t Schema = 0;
  if (!readU32(Payload, Pos, Schema))
    return MaoStatus::error("request payload too short");
  if (Schema != RequestSchema)
    return MaoStatus::error("unsupported request schema " +
                            std::to_string(Schema));
  if (!readString(Payload, Pos, Out.Name) ||
      !readString(Payload, Pos, Out.Source) ||
      !readString(Payload, Pos, Out.Pipeline) ||
      !readString(Payload, Pos, Out.OnError) ||
      !readString(Payload, Pos, Out.Validate) ||
      !readU32(Payload, Pos, Out.Jobs) ||
      !readU32(Payload, Pos, Out.DeadlineMs) ||
      !readU32(Payload, Pos, Out.Verify))
    return MaoStatus::error("malformed request payload");
  if (Pos != Payload.size())
    return MaoStatus::error("trailing bytes in request payload");
  return MaoStatus::success();
}

std::string mao::serve::encodeResponse(const ServeResponse &R) {
  std::string Out;
  appendU32(Out, ResponseSchema);
  Out.push_back(static_cast<char>(R.Status));
  Out.push_back(R.CacheHit ? 1 : 0);
  appendString(Out, R.Output);
  appendString(Out, R.Report);
  appendString(Out, R.Diagnostic);
  return Out;
}

MaoStatus mao::serve::decodeResponse(const std::string &Payload,
                                     ServeResponse &Out) {
  size_t Pos = 0;
  uint32_t Schema = 0;
  if (!readU32(Payload, Pos, Schema))
    return MaoStatus::error("response payload too short");
  if (Schema != ResponseSchema)
    return MaoStatus::error("unsupported response schema " +
                            std::to_string(Schema));
  if (Pos + 2 > Payload.size())
    return MaoStatus::error("response payload too short");
  const uint8_t Status = static_cast<uint8_t>(Payload[Pos++]);
  if (Status > static_cast<uint8_t>(ServeStatus::Error))
    return MaoStatus::error("bad response status " + std::to_string(Status));
  Out.Status = static_cast<ServeStatus>(Status);
  Out.CacheHit = Payload[Pos++] != 0;
  if (!readString(Payload, Pos, Out.Output) ||
      !readString(Payload, Pos, Out.Report) ||
      !readString(Payload, Pos, Out.Diagnostic))
    return MaoStatus::error("malformed response payload");
  if (Pos != Payload.size())
    return MaoStatus::error("trailing bytes in response payload");
  return MaoStatus::success();
}
