// EncodeServer + EncodeClient over a live loopback socket: remote encodes
// bitwise-identical to in-process ones, canonical status codes preserved
// across the wire (parse errors, expired deadlines), encode-batch slot
// independence, the metrics and reload endpoints, hostile frames, the
// connection cap, and concurrent clients hammering one server.
#include "serving/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "automaton/template_extractor.h"
#include "core/pretrain.h"
#include "db/stats.h"
#include "nn/serialize.h"
#include "schema/schema_graph.h"
#include "serving/client.h"
#include "serving/wire.h"
#include "tasks/preqr_encoder.h"
#include "workload/imdb.h"
#include "workload/query_gen.h"
#include "test_temp_dir.h"

namespace preqr::serving {
namespace {

struct Env {
  db::Database imdb = workload::MakeImdbDatabase(7, 0.02);
  std::vector<db::TableStats> stats;
  std::unique_ptr<text::SqlTokenizer> tokenizer;
  automaton::Automaton fa;
  schema::SchemaGraph graph;
  std::vector<std::string> corpus;

  Env() {
    db::StatsCollector collector;
    stats = collector.AnalyzeAll(imdb);
    tokenizer = std::make_unique<text::SqlTokenizer>(imdb.catalog(), stats, 8);
    workload::ImdbQueryGenerator gen(imdb, 3);
    std::unordered_set<std::string> seen;
    for (const auto& q : gen.Synthetic(16, 2)) {
      if (seen.insert(q.sql).second) corpus.push_back(q.sql);
    }
    automaton::TemplateExtractor extractor(0.2);
    fa = extractor.BuildAutomaton(corpus).value();
    graph = schema::SchemaGraph::Build(imdb.catalog());
  }
  core::PreqrModel MakeModel() {
    core::PreqrConfig config;
    config.d_model = 32;
    config.ffn_hidden = 64;
    return core::PreqrModel(config, tokenizer.get(), &fa, &graph, 17);
  }
};

Env& E() {
  static Env* env = new Env();
  return *env;
}

void ExpectBitwiseEqual(const std::vector<float>& a,
                        const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (a.empty()) return;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what << ": bitwise mismatch";
}

// One model + service + running server + connected client per fixture use.
struct Loopback {
  core::PreqrModel model;
  tasks::PreqrEncoder encoder;
  EncoderService service;
  EncodeServer server;
  EncodeClient client;

  explicit Loopback(ServerOptions server_options = {},
                    EncoderServiceOptions service_options = {})
      : model(E().MakeModel()),
        encoder(&model),
        service(&encoder, service_options),
        server(&service, server_options) {
    auto started = server.Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    auto connected = client.Connect(server.port());
    EXPECT_TRUE(connected.ok()) << connected.ToString();
  }
};

TEST(EncodeServerTest, WireEncodeMatchesDirectEncoderBitwise) {
  Loopback lb;
  tasks::PreqrEncoder reference(&lb.model);
  for (const auto& sql : E().corpus) {
    auto remote = lb.client.Encode(sql);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    EXPECT_FALSE(remote.value().cache_hit);
    nn::Tensor direct = reference.EncodeVector(sql, /*train=*/false);
    ExpectBitwiseEqual(direct.vec(), remote.value().embedding, "wire serve");
  }
  // Second pass: every query is a cache hit, still the same bits, and the
  // per-request observability says so.
  for (const auto& sql : E().corpus) {
    auto remote = lb.client.Encode(sql);
    ASSERT_TRUE(remote.ok());
    EXPECT_TRUE(remote.value().cache_hit);
    nn::Tensor direct = reference.EncodeVector(sql, /*train=*/false);
    ExpectBitwiseEqual(direct.vec(), remote.value().embedding, "wire hit");
  }
  EXPECT_EQ(lb.service.metrics().net_requests.value(),
            2 * E().corpus.size());
}

TEST(EncodeServerTest, CanonicalCodesSurviveTheWire) {
  Loopback lb;
  // Malformed SQL: the lexer/parser rejection code crosses intact.
  auto bad = lb.client.Encode("SELECT FROM WHERE ;;;");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
  EXPECT_FALSE(bad.status().message().empty());
  // A zero timeout is expired by the time admission runs: the deadline
  // code crosses intact too, distinguishable from shed load.
  WireRequestOptions expired;
  expired.timeout_us = 0;
  auto late = lb.client.Encode(E().corpus[0], expired);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(lb.service.metrics().deadline_rejected.value(), 1u);
  // The connection survived both errors.
  auto ok = lb.client.Encode(E().corpus[0]);
  EXPECT_TRUE(ok.ok());
}

// Hostile-timeout drill: timeouts near INT64_MAX used to overflow the
// steady_clock addition in DeadlineAfter into a deadline in the past, so a
// request that asked for "effectively forever" died instantly with
// kDeadlineExceeded. Saturation must map them to no-deadline instead.
TEST(EncodeServerTest, HostileTimeoutsSaturateInsteadOfExpiring) {
  Loopback lb;
  const int64_t hostile[] = {
      std::numeric_limits<int64_t>::max(),
      std::numeric_limits<int64_t>::max() - 1,
      std::numeric_limits<int64_t>::max() / 1000,  // still ~292k years
      int64_t{1} << 60,
  };
  for (const int64_t timeout_us : hostile) {
    WireRequestOptions opts;
    opts.timeout_us = timeout_us;
    auto r = lb.client.Encode(E().corpus[0], opts);
    ASSERT_TRUE(r.ok()) << "timeout_us=" << timeout_us << ": "
                        << r.status().ToString();
  }
  EXPECT_EQ(lb.service.metrics().deadline_rejected.value(), 0u);
  EXPECT_EQ(lb.service.metrics().deadline_dropped.value(), 0u);
  // An ordinary generous timeout still works and a zero timeout still
  // expires — saturation didn't blunt real deadlines.
  WireRequestOptions generous;
  generous.timeout_us = 5'000'000;
  EXPECT_TRUE(lb.client.Encode(E().corpus[1], generous).ok());
  WireRequestOptions expired;
  expired.timeout_us = 0;
  auto late = lb.client.Encode(E().corpus[1], expired);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(EncodeServerTest, WireBatchSlotsFailIndependently) {
  Loopback lb;
  std::vector<std::string> sqls = {E().corpus[0], "not a query !!",
                                   E().corpus[1], E().corpus[0]};
  auto results = lb.client.EncodeBatch(sqls);
  ASSERT_EQ(results.size(), 4u);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kParseError);
  ASSERT_TRUE(results[2].ok());
  ASSERT_TRUE(results[3].ok());
  ExpectBitwiseEqual(results[0].value().embedding,
                     results[3].value().embedding, "duplicate slots");
  tasks::PreqrEncoder reference(&lb.model);
  nn::Tensor direct = reference.EncodeVector(sqls[0], /*train=*/false);
  ExpectBitwiseEqual(direct.vec(), results[0].value().embedding,
                     "wire batch slot");
}

TEST(EncodeServerTest, MetricsEndpointServesTextDump) {
  Loopback lb;
  ASSERT_TRUE(lb.client.Encode(E().corpus[0]).ok());
  auto metrics = lb.client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const std::string& text = metrics.value();
  for (const char* key :
       {"serving_requests_total", "serving_cache_misses_total",
        "serving_queue_depth", "serving_shed_total",
        "serving_drained_requests_total", "serving_net_requests_total",
        "serving_net_connections_total"}) {
    EXPECT_NE(text.find(key), std::string::npos) << key;
  }
}

TEST(EncodeServerTest, ReloadEndpointSwapsWeightsAndClearsCache) {
  Loopback lb;
  lb.service.AttachModel(&lb.model);
  const std::string path = test::TempPath("server_test_reload.prc1");
  ASSERT_TRUE(nn::SaveModule(lb.model, path).ok());
  ASSERT_TRUE(lb.client.Encode(E().corpus[0]).ok());
  EXPECT_GE(lb.service.cached_embeddings(), 1u);
  ASSERT_TRUE(lb.client.ReloadModel(path).ok());
  EXPECT_EQ(lb.service.cached_embeddings(), 0u);
  EXPECT_EQ(lb.service.metrics().reloads.value(), 1u);
  // Same weights were reloaded: the post-reload encode is bitwise stable.
  auto again = lb.client.Encode(E().corpus[0]);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value().cache_hit);
  // A failing reload reports the same canonical code remotely as locally,
  // and serving continues on the old weights.
  auto remote = lb.client.ReloadModel("/nonexistent/ckpt.prc1");
  auto local = lb.service.ReloadModel("/nonexistent/ckpt.prc1");
  ASSERT_FALSE(remote.ok());
  ASSERT_FALSE(local.ok());
  EXPECT_EQ(remote.code(), local.code());
  EXPECT_TRUE(lb.client.Encode(E().corpus[1]).ok());
}

// Raw-socket probe for frames EncodeClient refuses to produce.
class RawConn {
 public:
  explicit RawConn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    // Every send leaves as its own segment.
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  void Send(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }
  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }
  // Reads one framed reply payload; false on EOF or a bad length.
  bool ReadReply(std::string* body) {
    std::string header(4, '\0');
    if (!ReadFull(header.data(), 4)) return false;
    wire::Reader hr(header.data(), 4);
    uint32_t len = 0;
    hr.GetU32(&len);
    if (len == 0 || len > wire::kMaxFrameBytes) return false;
    body->assign(len, '\0');
    return ReadFull(body->data(), len);
  }
  // Reads one framed reply; returns the leading status byte or -1 on EOF.
  int ReadReplyCode() {
    std::string body;
    if (!ReadReply(&body)) return -1;
    return static_cast<unsigned char>(body[0]);
  }
  bool PeerClosed() {
    char c;
    return ::recv(fd_, &c, 1, 0) == 0;
  }

 private:
  bool ReadFull(char* buf, size_t n) {
    size_t got = 0;
    while (got < n) {
      const ssize_t r = ::recv(fd_, buf + got, n - got, 0);
      if (r <= 0) return false;
      got += static_cast<size_t>(r);
    }
    return true;
  }
  int fd_ = -1;
};

// A v2 kEncode request frame for `sql` (default tenant, no deadline).
std::string EncodeFrame(const std::string& sql) {
  std::string payload;
  wire::PutU8(&payload, wire::kProtocolVersion);
  wire::PutU8(&payload, wire::kEncode);
  wire::PutString(&payload, "");  // tenant id
  wire::PutString(&payload, "");  // client id
  wire::PutU32(&payload, 0);      // priority
  wire::PutI64(&payload, -1);     // no deadline
  wire::PutString(&payload, sql);
  std::string frame;
  wire::PutU32(&frame, static_cast<uint32_t>(payload.size()));
  frame.append(payload);
  return frame;
}

// The embedding of an ok kEncode reply payload.
std::vector<float> ReplyEmbedding(const std::string& body) {
  wire::Reader r(body);
  uint8_t code = 1, flags = 0;
  double queue_us = 0, encode_us = 0;
  uint32_t dim = 0;
  EXPECT_TRUE(r.GetU8(&code) && r.GetU8(&flags) && r.GetF64(&queue_us) &&
              r.GetF64(&encode_us) && r.GetU32(&dim));
  EXPECT_EQ(code, 0);
  std::vector<float> out(dim);
  EXPECT_TRUE(r.GetF32s(out.data(), dim));
  EXPECT_EQ(r.remaining(), 0u);
  return out;
}

TEST(EncodeServerTest, FrameSentOneBytePerSendIsAnswered) {
  Loopback lb;
  tasks::PreqrEncoder reference(&lb.model);
  RawConn raw(lb.server.port());
  const std::string frame = EncodeFrame(E().corpus[0]);
  for (char c : frame) raw.Send(std::string(1, c));
  std::string body;
  ASSERT_TRUE(raw.ReadReply(&body));
  ExpectBitwiseEqual(
      reference.EncodeVector(E().corpus[0], /*train=*/false).vec(),
      ReplyEmbedding(body), "byte-per-send frame");
}

TEST(EncodeServerTest, TwoRequestsInOneSendAnsweredInOrder) {
  Loopback lb;
  // References first: the server may still be encoding the second frame
  // while the first reply is read, and both share the model.
  tasks::PreqrEncoder reference(&lb.model);
  const std::vector<float> want[] = {
      reference.EncodeVector(E().corpus[1], /*train=*/false).vec(),
      reference.EncodeVector(E().corpus[2], /*train=*/false).vec()};
  RawConn raw(lb.server.port());
  raw.Send(EncodeFrame(E().corpus[1]) + EncodeFrame(E().corpus[2]));
  for (const auto& expected : want) {
    std::string body;
    ASSERT_TRUE(raw.ReadReply(&body));
    ExpectBitwiseEqual(expected, ReplyEmbedding(body), "pipelined frame");
  }
  EXPECT_EQ(lb.service.metrics().net_requests.value(), 2u);
}

TEST(EncodeServerTest, BatchFrameLargerThanReceiveBufferIsAnswered) {
  Loopback lb;
  tasks::PreqrEncoder reference(&lb.model);
  // Distinct SQL padded with trailing blanks until the request frame
  // outgrows the connection's initial receive buffer.
  std::vector<std::string> sqls;
  size_t bytes = 0;
  for (size_t i = 0; bytes <= wire::kRecvBufferBytes; ++i) {
    sqls.push_back(E().corpus[i % E().corpus.size()] +
                   std::string(4096 + i, ' '));
    bytes += sqls.back().size();
  }
  const auto slots = lb.client.EncodeBatch(sqls);
  ASSERT_EQ(slots.size(), sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    ASSERT_TRUE(slots[i].ok()) << slots[i].status().ToString();
    ExpectBitwiseEqual(reference.EncodeVector(sqls[i], /*train=*/false).vec(),
                       slots[i].value().embedding, "large batch slot");
  }
  // The same connection keeps serving ordinary frames.
  EXPECT_TRUE(lb.client.Encode(E().corpus[0]).ok());
}

TEST(EncodeServerTest, EofInTheMiddleOfAFrameClosesTheConnection) {
  Loopback lb;
  RawConn raw(lb.server.port());
  const std::string frame = EncodeFrame(E().corpus[0]);
  raw.Send(frame.substr(0, frame.size() / 2));
  raw.ShutdownWrite();
  // No reply: the server hangs up without serving the torn frame.
  EXPECT_TRUE(raw.PeerClosed());
  EXPECT_EQ(lb.service.metrics().net_requests.value(), 0u);
  EXPECT_TRUE(lb.client.Encode(E().corpus[0]).ok());
}

TEST(EncodeServerTest, HostileFramesGetInvalidArgumentNotACrash) {
  Loopback lb;
  {
    // Unknown opcode: answered with kInvalidArgument, connection stays up.
    RawConn raw(lb.server.port());
    std::string payload;
    wire::PutU8(&payload, wire::kProtocolVersion);
    wire::PutU8(&payload, 99);
    std::string frame;
    wire::PutU32(&frame, static_cast<uint32_t>(payload.size()));
    frame.append(payload);
    raw.Send(frame);
    EXPECT_EQ(raw.ReadReplyCode(),
              static_cast<int>(StatusCode::kInvalidArgument));
  }
  {
    // Truncated body: a kEncode frame that ends mid-header.
    RawConn raw(lb.server.port());
    std::string payload;
    wire::PutU8(&payload, wire::kProtocolVersion);
    wire::PutU8(&payload, wire::kEncode);
    wire::PutU32(&payload, 1000);  // claims a 1000-byte tenant id, has none
    std::string frame;
    wire::PutU32(&frame, static_cast<uint32_t>(payload.size()));
    frame.append(payload);
    raw.Send(frame);
    EXPECT_EQ(raw.ReadReplyCode(),
              static_cast<int>(StatusCode::kInvalidArgument));
  }
  {
    // Hostile batch count: huge count in a tiny frame must be rejected
    // before any allocation happens.
    RawConn raw(lb.server.port());
    std::string payload;
    wire::PutU8(&payload, wire::kProtocolVersion);
    wire::PutU8(&payload, wire::kEncodeBatch);
    wire::PutString(&payload, "");          // tenant id (default)
    wire::PutString(&payload, "");          // client id
    wire::PutU32(&payload, 0);              // priority
    wire::PutI64(&payload, -1);             // no deadline
    wire::PutU32(&payload, 0xFFFFFFFFu);    // 4 billion slots, zero bytes
    std::string frame;
    wire::PutU32(&frame, static_cast<uint32_t>(payload.size()));
    frame.append(payload);
    raw.Send(frame);
    EXPECT_EQ(raw.ReadReplyCode(),
              static_cast<int>(StatusCode::kInvalidArgument));
  }
  {
    // Oversized frame length: answered, then the server hangs up.
    RawConn raw(lb.server.port());
    std::string frame;
    wire::PutU32(&frame, wire::kMaxFrameBytes + 1);
    raw.Send(frame);
    EXPECT_EQ(raw.ReadReplyCode(),
              static_cast<int>(StatusCode::kInvalidArgument));
    EXPECT_TRUE(raw.PeerClosed());
  }
  EXPECT_GE(lb.service.metrics().net_bad_frames.value(), 4u);
  // The server is still perfectly healthy for well-formed clients.
  EXPECT_TRUE(lb.client.Encode(E().corpus[0]).ok());
}

TEST(EncodeServerTest, ProtocolVersionMismatchRejectedBeforeOpcode) {
  Loopback lb;
  // A v1 peer (no version byte) would lead with its opcode byte; any value
  // other than kProtocolVersion must be rejected up front, before field
  // layouts can silently diverge.
  for (uint8_t stale : {uint8_t{1}, uint8_t{0},
                        static_cast<uint8_t>(wire::kProtocolVersion + 1)}) {
    RawConn raw(lb.server.port());
    std::string payload;
    wire::PutU8(&payload, stale);
    wire::PutU8(&payload, wire::kEncode);
    std::string frame;
    wire::PutU32(&frame, static_cast<uint32_t>(payload.size()));
    frame.append(payload);
    raw.Send(frame);
    EXPECT_EQ(raw.ReadReplyCode(),
              static_cast<int>(StatusCode::kInvalidArgument))
        << "version byte " << static_cast<int>(stale);
  }
  EXPECT_GE(lb.service.metrics().net_bad_frames.value(), 3u);
  // A current-version client on the same server is untouched.
  EXPECT_TRUE(lb.client.Encode(E().corpus[0]).ok());
}

TEST(EncodeServerTest, UnknownTenantIsNotFoundAcrossTheWire) {
  Loopback lb;
  WireRequestOptions options;
  options.tenant_id = "no-such-db";
  auto result = lb.client.Encode(E().corpus[0], options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  // Rejected before the cache probe: the miss counter never moved.
  EXPECT_EQ(lb.service.metrics().cache_misses.value(), 0u);
  EXPECT_EQ(lb.service.metrics().tenant_not_found.value(), 1u);
  // Batch slots carry the same code independently.
  auto slots = lb.client.EncodeBatch({E().corpus[0], E().corpus[1]}, options);
  ASSERT_EQ(slots.size(), 2u);
  for (const auto& slot : slots) {
    ASSERT_FALSE(slot.ok());
    EXPECT_EQ(slot.status().code(), StatusCode::kNotFound);
  }
  // The connection survives, and the default tenant still serves.
  EXPECT_TRUE(lb.client.Encode(E().corpus[0]).ok());
}

TEST(EncodeServerTest, PerTenantReloadOverTheWire) {
  Loopback lb;
  core::PreqrModel model_b = E().MakeModel();
  tasks::PreqrEncoder encoder_b(&model_b);
  ASSERT_TRUE(lb.service.RegisterTenant("b", &encoder_b, &model_b).ok());
  const std::string path = test::TempPath("server_test_tenant_b.prc1");
  ASSERT_TRUE(nn::SaveModule(model_b, path).ok());
  WireRequestOptions options_b;
  options_b.tenant_id = "b";
  ASSERT_TRUE(lb.client.Encode(E().corpus[0], options_b).ok());
  ASSERT_TRUE(lb.client.Encode(E().corpus[0]).ok());  // default tenant
  EXPECT_EQ(lb.service.cached_embeddings("b"), 1u);
  // Reloading tenant b clears exactly b's partition; the default tenant's
  // cache (and its next hit) are untouched.
  ASSERT_TRUE(lb.client.ReloadModel("b", path).ok());
  EXPECT_EQ(lb.service.cached_embeddings("b"), 0u);
  EXPECT_EQ(lb.service.cached_embeddings(kDefaultTenantId), 1u);
  auto hit = lb.client.Encode(E().corpus[0]);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().cache_hit);
  // Unknown tenant reloads come back kNotFound over the wire.
  EXPECT_EQ(lb.client.ReloadModel("ghost", path).code(),
            StatusCode::kNotFound);
}

TEST(EncodeServerTest, ConnectionCapRejectsExtraClients) {
  ServerOptions options;
  options.max_connections = 1;
  Loopback lb(options);
  ASSERT_TRUE(lb.client.Encode(E().corpus[0]).ok());  // holds the one slot
  EncodeClient second;
  ASSERT_TRUE(second.Connect(lb.server.port()).ok());  // backlog accepts...
  auto result = second.Encode(E().corpus[1]);          // ...server hangs up
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(lb.service.metrics().net_connections_rejected.value(), 1u);
  // The admitted client is unaffected.
  EXPECT_TRUE(lb.client.Encode(E().corpus[1]).ok());
  // Dropping the admitted client frees the slot for the next arrival.
  lb.client.Close();
  EncodeClient third;
  ASSERT_TRUE(third.Connect(lb.server.port()).ok());
  StatusOr<WireEncodeResult> retried = third.Encode(E().corpus[0]);
  for (int i = 0; i < 50 && !retried.ok(); ++i) {
    // The reap of the closed connection races our reconnect; retry briefly.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    third.Close();
    ASSERT_TRUE(third.Connect(lb.server.port()).ok());
    retried = third.Encode(E().corpus[0]);
  }
  EXPECT_TRUE(retried.ok()) << retried.status().ToString();
}

TEST(EncodeServerTest, ConcurrentClientsAllGetCorrectBits) {
  Loopback lb;
  tasks::PreqrEncoder reference(&lb.model);
  std::vector<std::vector<float>> expected;
  for (const auto& sql : E().corpus) {
    expected.push_back(reference.EncodeVector(sql, /*train=*/false).vec());
  }
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::thread> workers;
  std::vector<std::string> failures(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      EncodeClient client;
      auto connected = client.Connect(lb.server.port());
      if (!connected.ok()) {
        failures[t] = connected.ToString();
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < E().corpus.size(); ++i) {
          auto r = client.Encode(E().corpus[(i + t) % E().corpus.size()]);
          if (!r.ok()) {
            failures[t] = r.status().ToString();
            return;
          }
          const auto& want = expected[(i + t) % expected.size()];
          if (r.value().embedding != want) {
            failures[t] = "bitwise mismatch on thread " + std::to_string(t);
            return;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const auto& f : failures) EXPECT_TRUE(f.empty()) << f;
  EXPECT_EQ(lb.service.metrics().errors.value(), 0u);
  EXPECT_EQ(lb.service.metrics().ShedTotal(), 0u);
}

TEST(EncodeServerTest, StopUnblocksClientsAndRestarts) {
  ServerOptions options;
  Loopback lb(options);
  ASSERT_TRUE(lb.client.Encode(E().corpus[0]).ok());
  lb.server.Stop();
  EXPECT_FALSE(lb.server.running());
  auto dead = lb.client.Encode(E().corpus[1]);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kUnavailable);
  // Same server object restarts on a fresh ephemeral port.
  ASSERT_TRUE(lb.server.Start().ok());
  EncodeClient again;
  ASSERT_TRUE(again.Connect(lb.server.port()).ok());
  EXPECT_TRUE(again.Encode(E().corpus[1]).ok());
}

}  // namespace
}  // namespace preqr::serving
