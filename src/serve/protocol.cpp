#include "serve/protocol.hpp"

#include <cstring>

#include "util/failpoint.hpp"

namespace nfacount {
namespace serve {

namespace {

/// Highest StatusCode value the reply codec round-trips (append-only enum).
constexpr uint16_t kMaxStatusCode =
    static_cast<uint16_t>(StatusCode::kDeadlineExceeded);

/// Decode epilogue: a request payload must be consumed exactly.
Status RejectTrailing(const ByteReader& r) {
  if (r.remaining() != 0) {
    return Status::DataLoss("request payload has trailing bytes");
  }
  return Status::Ok();
}

}  // namespace

Result<std::string> EncodeFrame(MsgType type, const std::string& payload) {
  if (payload.size() > kMaxPayloadBytes) {
    return Status::Invalid("frame payload exceeds the protocol limit");
  }
  ByteWriter w;
  w.Bytes(kFrameMagic, sizeof(kFrameMagic));
  // u16 fields little-endian via the u32-free path: two bytes each.
  w.U8(static_cast<uint8_t>(kProtocolVersion & 0xff));
  w.U8(static_cast<uint8_t>(kProtocolVersion >> 8));
  const uint16_t type_bits = static_cast<uint16_t>(type);
  w.U8(static_cast<uint8_t>(type_bits & 0xff));
  w.U8(static_cast<uint8_t>(type_bits >> 8));
  w.U32(static_cast<uint32_t>(payload.size()));
  w.Bytes(payload.data(), payload.size());
  return std::move(w.buffer());
}

Status DecodeFrameHeader(const char* data, size_t size, MsgType* type,
                         uint32_t* payload_len) {
  if (size < kFrameHeaderBytes) {
    return Status::Invalid("frame: header shorter than kFrameHeaderBytes");
  }
  if (std::memcmp(data, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return Status::Invalid("frame: bad magic");
  }
  ByteReader r(data + sizeof(kFrameMagic),
               kFrameHeaderBytes - sizeof(kFrameMagic));
  uint8_t lo = 0;
  uint8_t hi = 0;
  NFA_RETURN_NOT_OK(r.U8(&lo));
  NFA_RETURN_NOT_OK(r.U8(&hi));
  const uint16_t version = static_cast<uint16_t>(lo | (hi << 8));
  if (version != kProtocolVersion) {
    return Status::Invalid("frame: unsupported protocol version " +
                           std::to_string(version));
  }
  NFA_RETURN_NOT_OK(r.U8(&lo));
  NFA_RETURN_NOT_OK(r.U8(&hi));
  const uint16_t type_bits = static_cast<uint16_t>(lo | (hi << 8));
  if (type_bits >= kNumMsgTypes) {
    return Status::Invalid("frame: unknown message type " +
                           std::to_string(type_bits));
  }
  uint32_t declared = 0;
  NFA_RETURN_NOT_OK(r.U32(&declared));
  if (declared > kMaxPayloadBytes) {
    return Status::Invalid("frame: declared payload length exceeds limit");
  }
  *type = static_cast<MsgType>(type_bits);
  *payload_len = declared;
  return Status::Ok();
}

Status WriteFrame(const SocketFd& sock, MsgType type,
                  const std::string& payload) {
  Result<std::string> encoded = EncodeFrame(type, payload);
  NFA_RETURN_NOT_OK(encoded.status());
  const std::string& bytes = encoded.value();
  const failpoint::Eval fault = failpoint::Check("net.write");
  if (fault.action == failpoint::Action::kError) {
    return Status::Unavailable("failpoint net.write: injected failure");
  }
  if (fault.action == failpoint::Action::kShortWrite &&
      static_cast<size_t>(fault.arg) < bytes.size()) {
    // Injected mid-frame death: send the truncated prefix so the peer
    // exercises its DataLoss path, then report the failure to the caller.
    NFA_RETURN_NOT_OK(
        WriteFull(sock, bytes.data(), static_cast<size_t>(fault.arg)));
    return Status::Unavailable("frame write truncated (injected fault)");
  }
  return WriteFull(sock, bytes.data(), bytes.size());
}

Result<Frame> ReadFrame(const SocketFd& sock) {
  char header[kFrameHeaderBytes];
  NFA_RETURN_NOT_OK(ReadFull(sock, header, sizeof(header)));
  Frame frame;
  uint32_t payload_len = 0;
  NFA_RETURN_NOT_OK(
      DecodeFrameHeader(header, sizeof(header), &frame.type, &payload_len));
  frame.payload.resize(payload_len);
  if (payload_len > 0) {
    Status read = ReadFull(sock, frame.payload.data(), payload_len);
    if (!read.ok()) {
      // A clean close after the header still truncates THIS frame.
      if (read.code() == StatusCode::kNotFound) {
        return Status::DataLoss("frame: connection closed mid-frame");
      }
      return read;
    }
  }
  return frame;
}

std::string EncodeRegister(const RegisterRequest& req) {
  ByteWriter w;
  w.String(req.name);
  w.String(req.nfa_text);
  w.I32(req.horizon);
  w.U64(req.seed);
  w.F64(req.eps);
  w.F64(req.delta);
  return std::move(w.buffer());
}

Result<RegisterRequest> DecodeRegister(const std::string& payload) {
  ByteReader r(payload.data(), payload.size());
  RegisterRequest req;
  NFA_RETURN_NOT_OK(r.String(&req.name, payload.size()));
  NFA_RETURN_NOT_OK(r.String(&req.nfa_text, payload.size()));
  NFA_RETURN_NOT_OK(r.I32(&req.horizon));
  NFA_RETURN_NOT_OK(r.U64(&req.seed));
  NFA_RETURN_NOT_OK(r.F64(&req.eps));
  NFA_RETURN_NOT_OK(r.F64(&req.delta));
  NFA_RETURN_NOT_OK(RejectTrailing(r));
  return req;
}

std::string EncodeCount(const CountRequest& req) {
  ByteWriter w;
  w.String(req.name);
  w.I32(req.length);
  return std::move(w.buffer());
}

Result<CountRequest> DecodeCount(const std::string& payload) {
  ByteReader r(payload.data(), payload.size());
  CountRequest req;
  NFA_RETURN_NOT_OK(r.String(&req.name, payload.size()));
  NFA_RETURN_NOT_OK(r.I32(&req.length));
  NFA_RETURN_NOT_OK(RejectTrailing(r));
  return req;
}

std::string EncodeCountState(const CountStateRequest& req) {
  ByteWriter w;
  w.String(req.name);
  w.I32(req.state);
  w.I32(req.length);
  return std::move(w.buffer());
}

Result<CountStateRequest> DecodeCountState(const std::string& payload) {
  ByteReader r(payload.data(), payload.size());
  CountStateRequest req;
  NFA_RETURN_NOT_OK(r.String(&req.name, payload.size()));
  NFA_RETURN_NOT_OK(r.I32(&req.state));
  NFA_RETURN_NOT_OK(r.I32(&req.length));
  NFA_RETURN_NOT_OK(RejectTrailing(r));
  return req;
}

std::string EncodeSample(const SampleRequest& req) {
  ByteWriter w;
  w.String(req.name);
  w.I32(req.length);
  w.I64(req.count);
  return std::move(w.buffer());
}

Result<SampleRequest> DecodeSample(const std::string& payload) {
  ByteReader r(payload.data(), payload.size());
  SampleRequest req;
  NFA_RETURN_NOT_OK(r.String(&req.name, payload.size()));
  NFA_RETURN_NOT_OK(r.I32(&req.length));
  NFA_RETURN_NOT_OK(r.I64(&req.count));
  NFA_RETURN_NOT_OK(RejectTrailing(r));
  return req;
}

std::string EncodeExtend(const ExtendRequest& req) {
  ByteWriter w;
  w.String(req.name);
  w.I32(req.level);
  return std::move(w.buffer());
}

Result<ExtendRequest> DecodeExtend(const std::string& payload) {
  ByteReader r(payload.data(), payload.size());
  ExtendRequest req;
  NFA_RETURN_NOT_OK(r.String(&req.name, payload.size()));
  NFA_RETURN_NOT_OK(r.I32(&req.level));
  NFA_RETURN_NOT_OK(RejectTrailing(r));
  return req;
}

std::string EncodeEvict(const EvictRequest& req) {
  ByteWriter w;
  w.String(req.name);
  return std::move(w.buffer());
}

Result<EvictRequest> DecodeEvict(const std::string& payload) {
  ByteReader r(payload.data(), payload.size());
  EvictRequest req;
  NFA_RETURN_NOT_OK(r.String(&req.name, payload.size()));
  NFA_RETURN_NOT_OK(RejectTrailing(r));
  return req;
}

std::string EncodeUnregister(const UnregisterRequest& req) {
  ByteWriter w;
  w.String(req.name);
  return std::move(w.buffer());
}

Result<UnregisterRequest> DecodeUnregister(const std::string& payload) {
  ByteReader r(payload.data(), payload.size());
  UnregisterRequest req;
  NFA_RETURN_NOT_OK(r.String(&req.name, payload.size()));
  NFA_RETURN_NOT_OK(RejectTrailing(r));
  return req;
}

void WriteReplyStatus(const Status& status, ByteWriter* w) {
  const uint16_t code = static_cast<uint16_t>(status.code());
  w->U8(static_cast<uint8_t>(code & 0xff));
  w->U8(static_cast<uint8_t>(code >> 8));
  w->String(status.message());
}

Status ReadReplyStatus(ByteReader* r, Status* out) {
  uint8_t lo = 0;
  uint8_t hi = 0;
  NFA_RETURN_NOT_OK(r->U8(&lo));
  NFA_RETURN_NOT_OK(r->U8(&hi));
  const uint16_t code = static_cast<uint16_t>(lo | (hi << 8));
  if (code > kMaxStatusCode) {
    return Status::DataLoss("reply: unknown status code " +
                            std::to_string(code));
  }
  std::string message;
  NFA_RETURN_NOT_OK(r->String(&message, kMaxPayloadBytes));
  *out = code == 0 ? Status::Ok()
                   : Status(static_cast<StatusCode>(code), std::move(message));
  return Status::Ok();
}

void WriteWord(const Word& word, ByteWriter* w) {
  w->U32(static_cast<uint32_t>(word.size()));
  w->U16s(word.data(), word.size());
}

Status ReadWord(ByteReader* r, Word* out) {
  uint32_t len = 0;
  NFA_RETURN_NOT_OK(r->U32(&len));
  if (len > kMaxPayloadBytes / sizeof(uint16_t)) {
    return Status::DataLoss("reply: word length corrupt");
  }
  out->resize(len);
  return r->U16s(out->data(), len);
}

}  // namespace serve
}  // namespace nfacount
