#ifndef PREQR_SERVING_CLIENT_H_
#define PREQR_SERVING_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "serving/wire.h"

namespace preqr::serving {

// Per-request knobs mirrored onto the wire (serving/wire.h): tenant
// routing, the relative deadline, the admission-control identity, and the
// priority class.
struct WireRequestOptions {
  // Which hosted database serves this query; "" = the default tenant.
  // Unknown ids come back as kNotFound.
  std::string tenant_id;
  int64_t timeout_us = -1;  // < 0 = no deadline
  std::string client_id;
  int priority = 0;
};

// What a remote encode returns: the embedding plus the same per-request
// observability the in-process EncodeResponse carries.
struct WireEncodeResult {
  std::vector<float> embedding;
  bool cache_hit = false;
  double queue_us = 0.0;
  double encode_us = 0.0;
};

// Blocking client for EncodeServer. One outstanding request per client —
// the protocol is strict request/reply on one stream — so each load-
// generator thread owns its own EncodeClient. Not thread-safe.
//
// Transport failures (connection refused, server shut the socket, torn
// reply) surface as kUnavailable; application errors arrive with their
// canonical code preserved from the server side (kParseError for
// malformed SQL, kResourceExhausted for shed load, kDeadlineExceeded for
// expired deadlines, ...).
class EncodeClient {
 public:
  EncodeClient() = default;
  ~EncodeClient() { Close(); }

  EncodeClient(const EncodeClient&) = delete;
  EncodeClient& operator=(const EncodeClient&) = delete;

  Status Connect(int port, const std::string& host = "127.0.0.1");
  void Close();
  bool connected() const { return fd_ >= 0; }

  StatusOr<WireEncodeResult> Encode(const std::string& sql,
                                    const WireRequestOptions& options = {});
  // Slot i corresponds to sqls[i]; slots fail independently.
  std::vector<StatusOr<WireEncodeResult>> EncodeBatch(
      const std::vector<std::string>& sqls,
      const WireRequestOptions& options = {});
  // The server's Prometheus-style metrics snapshot.
  StatusOr<std::string> Metrics();
  // Hot-reloads one tenant's model from a checkpoint path *on the server's
  // filesystem*. The default overload reloads the default tenant.
  Status ReloadModel(const std::string& path) {
    return ReloadModel("", path);
  }
  Status ReloadModel(const std::string& tenant_id, const std::string& path);

 private:
  // Sends one framed request payload and reads one framed reply. The
  // reader views reader_'s buffer, valid until the next round trip.
  StatusOr<wire::Reader> RoundTrip(const std::string& payload);

  int fd_ = -1;
  wire::FrameReader reader_{wire::kRecvBufferBytes};
};

}  // namespace preqr::serving

#endif  // PREQR_SERVING_CLIENT_H_
