#ifndef PREQR_SERVING_SERVER_H_
#define PREQR_SERVING_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"
#include "serving/encoder_service.h"

namespace preqr::serving {

struct ServerOptions {
  // 0 binds an ephemeral port; read the real one back via port().
  uint16_t port = 0;
  // Live connections beyond this are closed at accept (counted in
  // serving_net_connections_rejected_total) — connection-level admission
  // control in front of the request ring's per-request control.
  int max_connections = 64;
  int listen_backlog = 128;
};

// Loopback TCP front-end over an EncoderService speaking the
// length-prefixed binary protocol in serving/wire.h: encode /
// encode-batch / metrics / reload. One thread per connection (bounded by
// max_connections); all request-level policy — micro-batching, deadlines,
// per-client admission control, load shedding — lives in the service, so
// every transport (or none) shares one behavior.
//
// Error contract on the wire: every reply carries the canonical StatusCode
// byte, so remote callers distinguish malformed SQL (kParseError /
// kInvalidArgument) from shed load (kResourceExhausted) from expired
// deadlines (kDeadlineExceeded) exactly like in-process callers do.
class EncodeServer {
 public:
  explicit EncodeServer(EncoderService* service, ServerOptions options = {});
  ~EncodeServer();  // calls Stop()

  EncodeServer(const EncodeServer&) = delete;
  EncodeServer& operator=(const EncodeServer&) = delete;

  // Binds 127.0.0.1:<port>, starts the accept loop. Fails with
  // kUnavailable if the socket cannot be bound.
  Status Start();
  // Stops accepting, shuts every live connection down, joins all threads.
  // Idempotent; in-flight requests get their reply iff the write wins the
  // race with the socket shutdown.
  void Stop();

  bool running() const { return running_.load(); }
  // The bound port (after Start); 0 before.
  int port() const { return port_; }

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ServeConnection(Connection* conn);
  // Parses one request payload and renders the reply payload.
  std::string HandleFrame(std::string_view payload);
  // Joins finished connection threads (called from the accept loop).
  void ReapConnections();

  EncoderService* service_;
  ServerOptions options_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread acceptor_;
  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Connection>> conns_;
};

}  // namespace preqr::serving

#endif  // PREQR_SERVING_SERVER_H_
