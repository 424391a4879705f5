#include "serving/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "serving/wire.h"

namespace preqr::serving {
namespace {

void AppendError(std::string* reply, const Status& status) {
  wire::PutU8(reply, static_cast<uint8_t>(status.code()));
  wire::PutString(reply, status.message());
}

// Ok slot body shared by kEncode and kEncodeBatch replies.
void AppendResponse(std::string* reply, const EncodeResponse& response) {
  const auto& vec = response.embedding.vec();
  reply->reserve(reply->size() + 1 + 1 + 8 + 8 + 4 + 4 * vec.size());
  wire::PutU8(reply, 0);
  wire::PutU8(reply, response.cache_hit ? wire::kFlagCacheHit : 0);
  wire::PutF64(reply, response.queue_us);
  wire::PutF64(reply, response.encode_us);
  wire::PutU32(reply, static_cast<uint32_t>(vec.size()));
  wire::PutF32s(reply, vec.data(), vec.size());
}

// The request header shared by kEncode and kEncodeBatch: tenant routing,
// client identity, priority, and the relative timeout, converted here — at
// parse time — to the absolute steady-clock deadline the service works
// with.
bool ParseRequestHeader(wire::Reader* r, EncodeRequest* request) {
  uint32_t priority;
  int64_t timeout_us;
  if (!r->GetString(&request->tenant_id)) return false;
  if (!r->GetString(&request->client_id)) return false;
  if (!r->GetU32(&priority)) return false;
  if (!r->GetI64(&timeout_us)) return false;
  request->priority = static_cast<int32_t>(priority);
  request->deadline =
      timeout_us < 0 ? kNoDeadline
                     : DeadlineAfter(std::chrono::microseconds(timeout_us));
  return true;
}

}  // namespace

EncodeServer::EncodeServer(EncoderService* service, ServerOptions options)
    : service_(service), options_(options) {}

EncodeServer::~EncodeServer() { Stop(); }

Status EncodeServer::Start() {
  if (running_.load()) return Status::InvalidArgument("server already running");
  stopping_.store(false);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Unavailable(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(listen_fd_, options_.listen_backlog) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  running_.store(true);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void EncodeServer::Stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  // Unblock accept(): shutdown is enough on Linux, close makes it certain.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& c : conns) ::shutdown(c->fd, SHUT_RDWR);
  for (auto& c : conns) {
    if (c->thread.joinable()) c->thread.join();
    ::close(c->fd);
  }
}

void EncodeServer::ReapConnections() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      ::close((*it)->fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void EncodeServer::AcceptLoop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down by Stop()
    }
    ReapConnections();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (static_cast<int>(conns_.size()) >= options_.max_connections) {
        // Connection-level shed: close before reading anything. The client
        // observes kUnavailable on its next read.
        service_->metrics().net_connections_rejected.Increment();
        ::close(fd);
        continue;
      }
      service_->metrics().net_connections.Increment();
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_unique<Connection>();
      conn->fd = fd;
      Connection* raw = conn.get();
      conn->thread = std::thread([this, raw] { ServeConnection(raw); });
      conns_.push_back(std::move(conn));
    }
  }
}

void EncodeServer::ServeConnection(Connection* conn) {
  const int fd = conn->fd;
  wire::FrameReader reader(wire::kRecvBufferBytes);
  std::string_view payload;
  while (!stopping_.load()) {
    const auto got = reader.Next(fd, &payload);
    if (got == wire::FrameReader::Result::kBadLength) {
      // Cannot resync a corrupt stream: answer and hang up.
      service_->metrics().net_bad_frames.Increment();
      std::string reply;
      AppendError(&reply,
                  Status::InvalidArgument("frame length out of bounds"));
      wire::SendFrame(fd, reply);
      break;
    }
    // Clean close, peer error, EOF mid-frame, or Stop()'s shutdown.
    if (got != wire::FrameReader::Result::kFrame) break;
    service_->metrics().net_requests.Increment();
    if (!wire::SendFrame(fd, HandleFrame(payload))) break;
  }
  // Actually hang up: the fd itself is closed later (by the reaper or
  // Stop), but the peer must see EOF now, not at the next accept.
  ::shutdown(fd, SHUT_RDWR);
  conn->done.store(true);
}

std::string EncodeServer::HandleFrame(std::string_view payload) {
  std::string reply;
  wire::Reader r(payload.data(), payload.size());
  uint8_t version = 0;
  if (!r.GetU8(&version)) {
    service_->metrics().net_bad_frames.Increment();
    AppendError(&reply, Status::InvalidArgument("empty request frame"));
    return reply;
  }
  // The version gate runs before the opcode is even read: a stale peer must
  // get an explicit rejection, never a silent misparse of shifted fields.
  if (version != wire::kProtocolVersion) {
    service_->metrics().net_bad_frames.Increment();
    AppendError(&reply,
                Status::InvalidArgument(
                    "protocol version mismatch: got " +
                    std::to_string(version) + ", server speaks " +
                    std::to_string(wire::kProtocolVersion)));
    return reply;
  }
  uint8_t opcode = 0;
  if (!r.GetU8(&opcode)) {
    service_->metrics().net_bad_frames.Increment();
    AppendError(&reply, Status::InvalidArgument("missing opcode"));
    return reply;
  }
  switch (opcode) {
    case wire::kEncode: {
      EncodeRequest request;
      if (!ParseRequestHeader(&r, &request) || !r.GetString(&request.sql)) {
        break;
      }
      auto response = service_->Encode(request);
      if (response.ok()) {
        AppendResponse(&reply, response.value());
      } else {
        AppendError(&reply, response.status());
      }
      return reply;
    }
    case wire::kEncodeBatch: {
      EncodeRequest header;
      uint32_t count = 0;
      if (!ParseRequestHeader(&r, &header) || !r.GetU32(&count)) break;
      // Each slot needs at least its 4-byte length prefix; a count that
      // cannot fit in the remaining payload is a hostile frame, not a
      // reason to allocate.
      if (static_cast<uint64_t>(count) * 4 > r.remaining()) break;
      std::vector<EncodeRequest> requests(count, header);
      bool ok = true;
      for (uint32_t i = 0; i < count; ++i) {
        if (!r.GetString(&requests[i].sql)) {
          ok = false;
          break;
        }
      }
      if (!ok) break;
      auto responses = service_->EncodeBatch(requests);
      wire::PutU8(&reply, 0);
      wire::PutU32(&reply, count);
      for (auto& slot : responses) {
        if (slot.ok()) {
          AppendResponse(&reply, slot.value());
        } else {
          AppendError(&reply, slot.status());
        }
      }
      return reply;
    }
    case wire::kMetrics: {
      wire::PutU8(&reply, 0);
      wire::PutString(&reply, service_->metrics().DumpText());
      return reply;
    }
    case wire::kReload: {
      std::string tenant_id;
      std::string path;
      if (!r.GetString(&tenant_id) || !r.GetString(&path)) break;
      const Status s = service_->ReloadModel(tenant_id, path);
      if (s.ok()) {
        wire::PutU8(&reply, 0);
      } else {
        AppendError(&reply, s);
      }
      return reply;
    }
    default: {
      service_->metrics().net_bad_frames.Increment();
      AppendError(&reply, Status::InvalidArgument(
                              "unknown opcode " + std::to_string(opcode)));
      return reply;
    }
  }
  // Shared fall-through for truncated bodies of known opcodes.
  service_->metrics().net_bad_frames.Increment();
  reply.clear();
  AppendError(&reply, Status::InvalidArgument("truncated request body"));
  return reply;
}

}  // namespace preqr::serving
