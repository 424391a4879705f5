#include "serving/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "serving/wire.h"

namespace preqr::serving {
namespace {

void AppendRequestHeader(std::string* out, const WireRequestOptions& options) {
  wire::PutString(out, options.tenant_id);
  wire::PutString(out, options.client_id);
  wire::PutU32(out, static_cast<uint32_t>(options.priority));
  wire::PutI64(out, options.timeout_us);
}

// Reads one reply slot (u8 code, then ok body or message) — the shape
// shared by kEncode replies and kEncodeBatch slots.
StatusOr<WireEncodeResult> ParseResultSlot(wire::Reader* r) {
  uint8_t code = 0;
  if (!r->GetU8(&code)) {
    return Status::Unavailable("torn reply from server");
  }
  if (code != 0) {
    std::string message;
    if (!r->GetString(&message)) {
      return Status::Unavailable("torn error reply from server");
    }
    return Status(StatusCodeFromByte(code), std::move(message));
  }
  WireEncodeResult result;
  uint8_t flags = 0;
  uint32_t dim = 0;
  if (!r->GetU8(&flags) || !r->GetF64(&result.queue_us) ||
      !r->GetF64(&result.encode_us) || !r->GetU32(&dim) ||
      r->remaining() / 4 < dim) {
    return Status::Unavailable("torn encode reply from server");
  }
  result.cache_hit = (flags & wire::kFlagCacheHit) != 0;
  result.embedding.resize(dim);
  r->GetF32s(result.embedding.data(), dim);
  return result;
}

}  // namespace

Status EncodeClient::Connect(int port, const std::string& host) {
  if (fd_ >= 0) return Status::InvalidArgument("client already connected");
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::Unavailable(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad host address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    Close();
    return Status::Unavailable("connect: " + err);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::Ok();
}

void EncodeClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_.Reset();
}

StatusOr<wire::Reader> EncodeClient::RoundTrip(const std::string& payload) {
  if (fd_ < 0) return Status::Unavailable("client not connected");
  if (!wire::SendFrame(fd_, payload)) {
    Close();
    return Status::Unavailable("connection lost while sending request");
  }
  using Result = wire::FrameReader::Result;
  std::string_view reply;
  const Result got = reader_.Next(fd_, &reply);
  if (got == Result::kFrame) return wire::Reader(reply.data(), reply.size());
  Close();
  if (got == Result::kClosed) {
    return Status::Unavailable("connection closed by server");
  }
  if (got == Result::kTruncated) {
    return Status::Unavailable("connection lost mid-reply");
  }
  return Status::Unavailable("bad reply frame length");
}

StatusOr<WireEncodeResult> EncodeClient::Encode(
    const std::string& sql, const WireRequestOptions& options) {
  std::string payload;
  wire::PutU8(&payload, wire::kProtocolVersion);
  wire::PutU8(&payload, wire::kEncode);
  AppendRequestHeader(&payload, options);
  wire::PutString(&payload, sql);
  auto reply = RoundTrip(payload);
  if (!reply.ok()) return reply.status();
  return ParseResultSlot(&reply.value());
}

std::vector<StatusOr<WireEncodeResult>> EncodeClient::EncodeBatch(
    const std::vector<std::string>& sqls, const WireRequestOptions& options) {
  std::string payload;
  wire::PutU8(&payload, wire::kProtocolVersion);
  wire::PutU8(&payload, wire::kEncodeBatch);
  AppendRequestHeader(&payload, options);
  wire::PutU32(&payload, static_cast<uint32_t>(sqls.size()));
  for (const auto& sql : sqls) wire::PutString(&payload, sql);
  auto reply = RoundTrip(payload);
  std::vector<StatusOr<WireEncodeResult>> out;
  if (!reply.ok()) {
    out.assign(sqls.size(), reply.status());
    return out;
  }
  wire::Reader& r = reply.value();
  uint8_t code = 0;
  uint32_t count = 0;
  if (!r.GetU8(&code)) {
    out.assign(sqls.size(), Status::Unavailable("torn batch reply"));
    return out;
  }
  if (code != 0) {
    // Frame-level failure (e.g. hostile batch rejected): every slot fails
    // with the server's status.
    std::string message;
    r.GetString(&message);
    out.assign(sqls.size(),
               Status(StatusCodeFromByte(code), std::move(message)));
    return out;
  }
  if (!r.GetU32(&count) || count != sqls.size()) {
    out.assign(sqls.size(),
               Status::Unavailable("batch reply slot count mismatch"));
    return out;
  }
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) out.push_back(ParseResultSlot(&r));
  return out;
}

StatusOr<std::string> EncodeClient::Metrics() {
  std::string payload;
  wire::PutU8(&payload, wire::kProtocolVersion);
  wire::PutU8(&payload, wire::kMetrics);
  auto reply = RoundTrip(payload);
  if (!reply.ok()) return reply.status();
  wire::Reader& r = reply.value();
  uint8_t code = 0;
  if (!r.GetU8(&code)) return Status::Unavailable("torn metrics reply");
  std::string text;
  if (!r.GetString(&text)) return Status::Unavailable("torn metrics reply");
  if (code != 0) return Status(StatusCodeFromByte(code), std::move(text));
  return text;
}

Status EncodeClient::ReloadModel(const std::string& tenant_id,
                                 const std::string& path) {
  std::string payload;
  wire::PutU8(&payload, wire::kProtocolVersion);
  wire::PutU8(&payload, wire::kReload);
  wire::PutString(&payload, tenant_id);
  wire::PutString(&payload, path);
  auto reply = RoundTrip(payload);
  if (!reply.ok()) return reply.status();
  wire::Reader& r = reply.value();
  uint8_t code = 0;
  if (!r.GetU8(&code)) return Status::Unavailable("torn reload reply");
  if (code == 0) return Status::Ok();
  std::string message;
  r.GetString(&message);
  return Status(StatusCodeFromByte(code), std::move(message));
}

}  // namespace preqr::serving
