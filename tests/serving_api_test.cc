// The redesigned request/response serving API: deadlines (rejected on
// arrival, dropped while queued), bounded-ring load shedding, per-client
// admission fairness, priority reservation, async Submit, graceful drain
// during ReloadModel, and shutdown semantics — all with canonical status
// codes so callers can tell bad input from shed load. Uses a gateable
// stub encoder so every race in here is sequenced deterministically.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/encoder.h"
#include "nn/module.h"
#include "nn/serialize.h"
#include "serving/encoder_service.h"
#include "serving/request_ring.h"
#include "test_temp_dir.h"

namespace preqr::serving {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

// Deterministic 4-float embedding per query; queries starting with "BAD"
// fail with kParseError like a real malformed-SQL rejection. The gate
// lets tests hold the dispatcher inside an encode while they arrange the
// ring into the exact state under test.
class StubEncoder : public baselines::QueryEncoder {
 public:
  nn::Tensor EncodeVector(const std::string& sql, bool /*train*/) override {
    float h = 0.0f;
    for (char c : sql) h = h * 31.0f + static_cast<float>(c);
    return nn::Tensor::FromData({1, 4}, {h, h + 1, h + 2, h + 3});
  }

  StatusOr<nn::Tensor> TryEncodeVector(const std::string& sql,
                                       bool train) override {
    if (sql.rfind("BAD", 0) == 0) {
      return Status::ParseError("stub rejects: " + sql);
    }
    return EncodeVector(sql, train);
  }

  std::vector<StatusOr<nn::Tensor>> TryEncodeVectorBatch(
      const std::vector<std::string>& sqls, bool train) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++calls_started_;
      for (const auto& sql : sqls) seen_.push_back(sql);
      cv_.notify_all();
      cv_.wait(lock, [&] { return gate_open_; });
    }
    std::vector<StatusOr<nn::Tensor>> out;
    out.reserve(sqls.size());
    for (const auto& sql : sqls) out.push_back(TryEncodeVector(sql, train));
    return out;
  }

  std::vector<nn::Tensor> TrainableParameters() override { return {}; }
  int dim() const override { return 4; }
  std::string name() const override { return "stub"; }

  void CloseGate() {
    std::lock_guard<std::mutex> lock(mu_);
    gate_open_ = false;
  }
  void OpenGate() {
    std::lock_guard<std::mutex> lock(mu_);
    gate_open_ = true;
    cv_.notify_all();
  }
  // Blocks until the dispatcher has entered its n-th encoder call — the
  // handshake that makes "request X is mid-encode" a fact, not a sleep.
  void WaitForCallsStarted(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return calls_started_ >= n; });
  }
  std::vector<std::string> seen() {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool gate_open_ = true;
  int calls_started_ = 0;
  std::vector<std::string> seen_;
};

EncodeRequest Req(std::string sql) {
  EncodeRequest r;
  r.sql = std::move(sql);
  return r;
}

TEST(RequestRingTest, FifoOrderBoundedCapacityAndPeek) {
  RequestRing<int> ring(3);  // rounds up to 4
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.TryPush(i));
  EXPECT_TRUE(ring.full());
  EXPECT_FALSE(ring.TryPush(99));
  EXPECT_EQ(ring.Peek(0), 0);
  EXPECT_EQ(ring.Peek(3), 3);
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.TryPop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ring.TryPop(&v));
  // Wrap-around: indices keep running past the array size.
  for (int round = 0; round < 5; ++round) {
    EXPECT_TRUE(ring.TryPush(round * 10));
    EXPECT_TRUE(ring.TryPop(&v));
    EXPECT_EQ(v, round * 10);
  }
}

TEST(ServingApiTest, ExpiredDeadlineRejectedBeforeAdmission) {
  StubEncoder stub;
  EncoderService service(&stub);
  EncodeRequest request = Req("SELECT 1");
  request.deadline = DeadlineClock::now() - milliseconds(1);
  auto result = service.Encode(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.metrics().deadline_rejected.value(), 1u);
  // Never reached the encoder, never counted as a cache probe.
  EXPECT_TRUE(stub.seen().empty());
  EXPECT_EQ(service.metrics().cache_misses.value(), 0u);
  EXPECT_EQ(service.metrics().requests.value(), 1u);
}

TEST(ServingApiTest, DeadlineExpiringInQueueDropsBeforeEncoding) {
  StubEncoder stub;
  EncoderService service(&stub);
  stub.CloseGate();
  // q1 occupies the encoder...
  auto f1 = service.Submit(Req("q1"));
  stub.WaitForCallsStarted(1);
  // ...so q2 queues behind it with a deadline that will lapse first.
  EncodeRequest q2 = Req("q2");
  q2.deadline = DeadlineAfter(milliseconds(30));
  auto f2 = service.Submit(std::move(q2));
  std::this_thread::sleep_for(milliseconds(60));
  stub.OpenGate();
  auto r1 = f1.get();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_FALSE(r1.value().cache_hit);
  EXPECT_GE(r1.value().encode_us, 0.0);
  auto r2 = f2.get();
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.metrics().deadline_dropped.value(), 1u);
  // The dispatcher dropped q2 *before* encoding: the stub never saw it.
  for (const auto& sql : stub.seen()) EXPECT_NE(sql, "q2");
  EXPECT_EQ(service.queue_depth(), 0u);
}

TEST(ServingApiTest, FullRingShedsWithResourceExhausted) {
  StubEncoder stub;
  EncoderServiceOptions options;
  options.ring_capacity = 2;
  options.per_client_quota = 100;   // isolate the ring-full policy
  options.priority_reserve = 1;     // watermark = 1: only priority > 0
                                    // may take the last slot
  EncoderService service(&stub, options);
  stub.CloseGate();
  auto f1 = service.Submit(Req("a"));
  stub.WaitForCallsStarted(1);  // ring empty again, encoder busy with "a"
  EncodeRequest hi1 = Req("b");
  hi1.priority = 1;
  EncodeRequest hi2 = Req("c");
  hi2.priority = 1;
  auto f2 = service.Submit(std::move(hi1));
  auto f3 = service.Submit(std::move(hi2));
  EXPECT_EQ(service.queue_depth(), 2u);
  // Ring full: even priority sheds now, with the canonical code.
  EncodeRequest hi3 = Req("d");
  hi3.priority = 1;
  auto shed = service.Encode(hi3);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.metrics().shed_queue_full.value(), 1u);
  stub.OpenGate();
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
  EXPECT_TRUE(f3.get().ok());
  // Shed request never reached the encoder.
  for (const auto& sql : stub.seen()) EXPECT_NE(sql, "d");
}

TEST(ServingApiTest, HighWaterReservesRingTailForPriority) {
  StubEncoder stub;
  EncoderServiceOptions options;
  options.ring_capacity = 4;
  options.priority_reserve = 2;  // watermark = 2
  options.per_client_quota = 100;
  EncoderService service(&stub, options);
  stub.CloseGate();
  auto f1 = service.Submit(Req("a"));
  stub.WaitForCallsStarted(1);
  auto f2 = service.Submit(Req("b"));
  auto f3 = service.Submit(Req("c"));
  EXPECT_EQ(service.queue_depth(), 2u);  // at the watermark
  // Normal-priority arrival sheds; priority > 0 takes a reserved slot.
  auto shed = service.Encode(Req("d"));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.metrics().shed_low_priority.value(), 1u);
  EncodeRequest urgent = Req("e");
  urgent.priority = 2;
  auto f4 = service.Submit(std::move(urgent));
  EXPECT_EQ(service.queue_depth(), 3u);
  stub.OpenGate();
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
  EXPECT_TRUE(f3.get().ok());
  EXPECT_TRUE(f4.get().ok());
}

TEST(ServingApiTest, PerClientQuotaShedsNoisyClientAdmitsOthers) {
  StubEncoder stub;
  EncoderServiceOptions options;
  options.ring_capacity = 16;
  options.per_client_quota = 2;
  EncoderService service(&stub, options);
  stub.CloseGate();
  auto warm = service.Submit(Req("w"));
  stub.WaitForCallsStarted(1);
  auto mk = [](const char* sql, const char* client) {
    EncodeRequest r;
    r.sql = sql;
    r.client_id = client;
    return r;
  };
  auto n1 = service.Submit(mk("n1", "noisy"));
  auto n2 = service.Submit(mk("n2", "noisy"));
  // Noisy is at quota: its third queued request is shed...
  auto n3 = service.Encode(mk("n3", "noisy"));
  ASSERT_FALSE(n3.ok());
  EXPECT_EQ(n3.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.metrics().shed_client_quota.value(), 1u);
  // ...while a polite client is still admitted into the same ring.
  auto p1 = service.Submit(mk("p1", "polite"));
  EXPECT_EQ(service.queue_depth(), 3u);
  stub.OpenGate();
  EXPECT_TRUE(warm.get().ok());
  EXPECT_TRUE(n1.get().ok());
  EXPECT_TRUE(n2.get().ok());
  EXPECT_TRUE(p1.get().ok());
  // Quota frees as requests dispatch: noisy can queue again afterwards.
  auto n4 = service.Encode(mk("n4", "noisy"));
  EXPECT_TRUE(n4.ok());
}

TEST(ServingApiTest, ResponseMetadataDistinguishesHitFromMiss) {
  StubEncoder stub;
  EncoderService service(&stub);
  auto cold = service.Encode(Req("SELECT 7"));
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.value().cache_hit);
  EXPECT_GE(cold.value().encode_us, 0.0);
  EXPECT_GE(cold.value().queue_us, 0.0);
  auto warm = service.Encode(Req("SELECT 7"));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().cache_hit);
  EXPECT_EQ(warm.value().queue_us, 0.0);
  EXPECT_EQ(warm.value().encode_us, 0.0);
  // Same bits either way.
  EXPECT_EQ(cold.value().embedding.vec(), warm.value().embedding.vec());
  // Malformed SQL keeps its parse code — distinguishable from shed load.
  auto bad = service.Encode(Req("BAD query"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
}

TEST(ServingApiTest, BatchSlotsFailIndependentlyWithCanonicalCodes) {
  StubEncoder stub;
  EncoderService service(&stub);
  std::vector<EncodeRequest> requests;
  requests.push_back(Req("ok-1"));
  EncodeRequest expired = Req("ok-2");
  expired.deadline = DeadlineClock::now() - milliseconds(1);
  requests.push_back(std::move(expired));
  requests.push_back(Req("BAD slot"));
  requests.push_back(Req("ok-1"));  // duplicate collapses onto one miss
  auto results = service.EncodeBatch(requests);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].ok());
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_FALSE(results[2].ok());
  EXPECT_EQ(results[2].status().code(), StatusCode::kParseError);
  ASSERT_TRUE(results[3].ok());
  EXPECT_EQ(results[0].value().embedding.vec(),
            results[3].value().embedding.vec());
  EXPECT_EQ(service.metrics().deadline_rejected.value(), 1u);
}

TEST(ServingApiTest, SubmitDeliversAsynchronously) {
  StubEncoder stub;
  EncoderService service(&stub);
  stub.CloseGate();
  auto f1 = service.Submit(Req("x"));
  auto f2 = service.Submit(Req("y"));
  EXPECT_EQ(f1.wait_for(milliseconds(20)), std::future_status::timeout);
  stub.OpenGate();
  auto r1 = f1.get();
  auto r2 = f2.get();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  // A cache hit resolves the future immediately, encoder untouched.
  stub.CloseGate();
  auto f3 = service.Submit(Req("x"));
  EXPECT_EQ(f3.wait_for(milliseconds(0)), std::future_status::ready);
  EXPECT_TRUE(f3.get().value().cache_hit);
  stub.OpenGate();
}

// A minimal module so ReloadModel has real weights to swap under the
// stub-encoder drain drills.
struct TinyModule : nn::Module {
  nn::Tensor w;
  TinyModule() {
    w = RegisterParameter("w", nn::Tensor::FromData({1, 4}, {1, 2, 3, 4}));
  }
};

TEST(ServingApiTest, ReloadDrainsQueueParksArrivalsDropsNothing) {
  StubEncoder stub;
  EncoderServiceOptions options;
  options.per_client_quota = 100;
  EncoderService service(&stub, options);
  TinyModule model;
  service.AttachModel(&model);
  const std::string path = test::TempPath("serving_api_reload.prm1");
  ASSERT_TRUE(nn::SaveModule(model, path).ok());

  stub.CloseGate();
  auto f1 = service.Submit(Req("r1"));
  stub.WaitForCallsStarted(1);
  auto f2 = service.Submit(Req("r2"));
  auto f3 = service.Submit(Req("r3"));
  ASSERT_EQ(service.queue_depth(), 2u);

  // The reload must wait out r2/r3 (already admitted) before swapping.
  std::thread reloader([&] { ASSERT_TRUE(service.ReloadModel(path).ok()); });
  while (service.metrics().drained_requests.value() < 2u) {
    std::this_thread::sleep_for(microseconds(200));
  }
  // An arrival during the drain parks — it is never shed or dropped.
  std::thread late([&] {
    auto r4 = service.Encode(Req("r4"));
    ASSERT_TRUE(r4.ok()) << r4.status().ToString();
  });
  while (service.metrics().drain_waiters.value() < 1u) {
    std::this_thread::sleep_for(microseconds(200));
  }
  stub.OpenGate();
  reloader.join();
  late.join();
  ASSERT_TRUE(f1.get().ok());
  ASSERT_TRUE(f2.get().ok());
  ASSERT_TRUE(f3.get().ok());
  const auto& m = service.metrics();
  EXPECT_EQ(m.reloads.value(), 1u);
  EXPECT_EQ(m.drained_requests.value(), 2u);
  EXPECT_EQ(m.drain_waiters.value(), 1u);
  // r4 ran after the swap: the reload cleared the cache r1-r3 populated,
  // and its own embedding landed afterwards.
  EXPECT_GE(m.invalidated_embeddings.value(), 3u);
  // Nothing was ever mis-coded: no sheds, no deadline errors, no
  // unavailable during the whole drill.
  EXPECT_EQ(m.ShedTotal(), 0u);
  EXPECT_EQ(m.deadline_rejected.value(), 0u);
  EXPECT_EQ(m.deadline_dropped.value(), 0u);
  EXPECT_EQ(m.rejected_on_shutdown.value(), 0u);
}

TEST(ServingApiTest, ParkedArrivalHonorsDeadlineDuringDrain) {
  StubEncoder stub;
  EncoderService service(&stub);
  TinyModule model;
  service.AttachModel(&model);
  const std::string path = test::TempPath("serving_api_reload2.prm1");
  ASSERT_TRUE(nn::SaveModule(model, path).ok());

  stub.CloseGate();
  // d1 occupies the encoder, d2 sits in the ring so the drain has
  // something to count — drained_requests >= 1 signals the drain began.
  auto f1 = service.Submit(Req("d1"));
  stub.WaitForCallsStarted(1);
  auto f2 = service.Submit(Req("d2"));
  std::thread reloader([&] { ASSERT_TRUE(service.ReloadModel(path).ok()); });
  while (service.metrics().drained_requests.value() < 1u) {
    std::this_thread::sleep_for(microseconds(200));
  }
  // An arrival that parks during the drain must time out with the
  // canonical deadline code, not hang and not be mis-coded as shed load.
  EncodeRequest doomed = Req("d3");
  doomed.deadline = DeadlineAfter(milliseconds(20));
  auto r = service.Encode(doomed);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.metrics().drain_waiters.value(), 1u);
  stub.OpenGate();
  reloader.join();
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
  EXPECT_EQ(service.metrics().ShedTotal(), 0u);
}

TEST(ServingApiTest, PerTenantReloadParksOnlyThatTenant) {
  StubEncoder stub_a, stub_b;
  EncoderServiceOptions options;
  options.per_client_quota = 100;
  EncoderService service(&stub_a, options);  // "a" work rides the default
  TinyModule model_a;
  service.AttachModel(&model_a);
  ASSERT_TRUE(service.RegisterTenant("b", &stub_b).ok());
  const std::string path = test::TempPath("serving_api_tenant.prm1");
  ASSERT_TRUE(nn::SaveModule(model_a, path).ok());

  stub_a.CloseGate();
  auto a1 = service.Submit(Req("a1"));
  stub_a.WaitForCallsStarted(1);
  auto a2 = service.Submit(Req("a2"));  // queued, so the drain counts it
  std::thread reloader(
      [&] { ASSERT_TRUE(service.ReloadModel(kDefaultTenantId, path).ok()); });
  while (service.metrics().drained_requests.value() < 1u) {
    std::this_thread::sleep_for(microseconds(200));
  }
  // The default tenant is draining (its encoder still gated shut) — but
  // tenant b keeps encoding throughout via the synchronous batch path,
  // which runs under b's own encode mutex and never touches a's.
  for (int i = 0; i < 3; ++i) {
    EncodeRequest rb;
    rb.sql = "b" + std::to_string(i);
    rb.tenant_id = "b";
    auto slots = service.EncodeBatch(std::vector<EncodeRequest>{rb});
    ASSERT_EQ(slots.size(), 1u);
    ASSERT_TRUE(slots[0].ok()) << slots[0].status().ToString();
    EXPECT_EQ(slots[0].value().tenant_id, "b");
  }
  // An arrival for the draining tenant parks instead.
  std::thread late([&] {
    auto r = service.Encode(Req("a3"));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  });
  while (service.metrics().drain_waiters.value() < 1u) {
    std::this_thread::sleep_for(microseconds(200));
  }
  stub_a.OpenGate();
  reloader.join();
  late.join();
  ASSERT_TRUE(a1.get().ok());
  ASSERT_TRUE(a2.get().ok());
  // Only the default tenant's partition was cleared by the reload; b kept
  // its three embeddings.
  EXPECT_EQ(service.cached_embeddings("b"), 3u);
  EXPECT_EQ(service.metrics().reloads.value(), 1u);
  EXPECT_EQ(service.metrics().ShedTotal(), 0u);
  EXPECT_EQ(service.metrics().errors.value(), 0u);
}

TEST(ServingApiTest, DeregisterRefusesNewWorkAndDeliversEverythingAdmitted) {
  StubEncoder stub_default, stub_t;
  EncoderServiceOptions options;
  options.ring_capacity = 1024;  // the probe loop must never shed
  options.per_client_quota = 1024;
  EncoderService service(&stub_default, options);
  ASSERT_TRUE(service.RegisterTenant("t", &stub_t).ok());
  stub_t.CloseGate();
  EncodeRequest first;
  first.sql = "t-0";
  first.tenant_id = "t";
  auto f0 = service.Submit(std::move(first));
  stub_t.WaitForCallsStarted(1);  // t-0 is mid-encode behind the gate
  std::thread closer([&] { ASSERT_TRUE(service.DeregisterTenant("t").ok()); });
  // Race admissions against the deregistration: every one either gets in
  // (and must be delivered ok) or is refused kNotFound — never dropped,
  // never mis-coded, never kResourceExhausted.
  std::vector<std::future<StatusOr<EncodeResponse>>> admitted;
  admitted.push_back(std::move(f0));
  bool saw_not_found = false;
  for (int i = 1; i < 200 && !saw_not_found; ++i) {
    EncodeRequest r;
    r.sql = "t-" + std::to_string(i);
    r.tenant_id = "t";
    auto f = service.Submit(std::move(r));
    if (f.wait_for(milliseconds(0)) == std::future_status::ready) {
      auto resolved = f.get();
      ASSERT_FALSE(resolved.ok());
      ASSERT_EQ(resolved.status().code(), StatusCode::kNotFound);
      saw_not_found = true;
    } else {
      admitted.push_back(std::move(f));
    }
    std::this_thread::sleep_for(microseconds(100));
  }
  EXPECT_TRUE(saw_not_found);
  // The default tenant keeps serving mid-deregistration (sync batch path:
  // the dispatcher is busy behind tenant t's gate, the default tenant's
  // encoder is not).
  auto untouched =
      service.EncodeBatch(std::vector<EncodeRequest>{Req("untouched")});
  ASSERT_EQ(untouched.size(), 1u);
  EXPECT_TRUE(untouched[0].ok()) << untouched[0].status().ToString();
  stub_t.OpenGate();
  closer.join();
  for (auto& f : admitted) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().tenant_id, "t");
  }
  EXPECT_FALSE(service.HasTenant("t"));
  EXPECT_EQ(service.cached_embeddings("t"), 0u);
  // Lifecycle guard rails: the default tenant is not deregisterable, and
  // unknown ids are kNotFound.
  EXPECT_EQ(service.DeregisterTenant(kDefaultTenantId).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.DeregisterTenant("ghost").code(), StatusCode::kNotFound);
}

TEST(ServingApiTest, DestructionFailsQueuedRequestsWithUnavailable) {
  StubEncoder stub;
  std::future<StatusOr<EncodeResponse>> f1, f2;
  {
    EncoderService service(&stub);
    stub.CloseGate();
    f1 = service.Submit(Req("alive"));
    stub.WaitForCallsStarted(1);
    f2 = service.Submit(Req("doomed"));
    std::thread opener([&] {
      std::this_thread::sleep_for(milliseconds(30));
      stub.OpenGate();
    });
    opener.detach();
    // Destructor: joins the dispatcher, which finishes "alive" and fails
    // the still-queued "doomed".
  }
  auto r1 = f1.get();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  auto r2 = f2.get();
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace preqr::serving
