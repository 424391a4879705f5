// EncoderService: cache hits bitwise-identical to direct encodes, Status
// (not a crash) on malformed SQL end-to-end, stale-cache invalidation
// after model updates, micro-batch coalescing under concurrency, and the
// metrics text dump. The concurrency tests are re-run under
// SANITIZE=thread by scripts/check.sh.
#include "serving/encoder_service.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "automaton/template_extractor.h"
#include "serving/metrics.h"
#include "core/pretrain.h"
#include "db/stats.h"
#include "schema/schema_graph.h"
#include "tasks/preqr_encoder.h"
#include "workload/imdb.h"
#include "workload/query_gen.h"

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

TEST(EncoderServiceTest, EncodeMatchesUnderlyingEncoderBitwise) {
  auto model = E().MakeModel();
  tasks::PreqrEncoder reference(&model);
  tasks::PreqrEncoder wrapped(&model);
  EncoderService service(&wrapped);
  for (const auto& sql : E().corpus) {
    auto served = service.Encode(sql);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    nn::Tensor direct = reference.EncodeVector(sql, /*train=*/false);
    ExpectBitwiseEqual(direct.vec(), served.value().vec(), "cold serve");
  }
  // Second pass: every request is a cache hit and still identical.
  const uint64_t misses = service.metrics().cache_misses.value();
  for (const auto& sql : E().corpus) {
    auto served = service.Encode(sql);
    ASSERT_TRUE(served.ok());
    nn::Tensor direct = reference.EncodeVector(sql, /*train=*/false);
    ExpectBitwiseEqual(direct.vec(), served.value().vec(), "cache hit");
  }
  EXPECT_EQ(service.metrics().cache_misses.value(), misses);
  EXPECT_EQ(service.metrics().cache_hits.value(), E().corpus.size());
  EXPECT_GT(service.metrics().CacheHitRate(), 0.0);
}

// Regression: garbage SQL must propagate a Status end-to-end (tokenizer →
// PreqrEncoder::Lookup → EncoderService) — no CHECK crash, no zero
// vector masquerading as an embedding.
TEST(EncoderServiceTest, MalformedSqlReturnsStatusEndToEnd) {
  auto model = E().MakeModel();
  tasks::PreqrEncoder encoder(&model);
  EncoderService service(&encoder);
  const std::vector<std::string> garbage = {
      "not a query !!",
      "SELECT FROM WHERE ;;;",
      ")(*&^%$#@",
      "DROP TABLE title",
      "",
  };
  for (const auto& sql : garbage) {
    auto direct = encoder.TryEncodeVector(sql, /*train=*/false);
    EXPECT_FALSE(direct.ok()) << sql;
    auto served = service.Encode(sql);
    ASSERT_FALSE(served.ok()) << sql;
    EXPECT_FALSE(served.status().message().empty());
    // The exact canonical code crosses the serving layer untouched: input
    // rejections stay kParseError/kInvalidArgument, never mistakable for
    // shed load (kResourceExhausted) or an expired deadline.
    EXPECT_EQ(served.status().code(), direct.status().code()) << sql;
    EXPECT_TRUE(served.status().code() == StatusCode::kParseError ||
                served.status().code() == StatusCode::kInvalidArgument)
        << sql << ": " << served.status().ToString();
  }
  EXPECT_EQ(service.metrics().errors.value(), garbage.size());
  // Mixed batch: bad slots fail, good slots still encode.
  std::vector<std::string> mixed = {E().corpus[0], garbage[0], E().corpus[1]};
  auto results = service.EncodeBatch(mixed);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
}

TEST(EncoderServiceTest, EncodeBatchCollapsesDuplicatesAndHitsCache) {
  auto model = E().MakeModel();
  tasks::PreqrEncoder reference(&model);
  tasks::PreqrEncoder wrapped(&model);
  EncoderService service(&wrapped);
  std::vector<std::string> sqls = {E().corpus[0], E().corpus[1],
                                   E().corpus[0], E().corpus[2],
                                   E().corpus[1]};
  auto results = service.EncodeBatch(sqls);
  ASSERT_EQ(results.size(), sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    nn::Tensor direct = reference.EncodeVector(sqls[i], /*train=*/false);
    ExpectBitwiseEqual(direct.vec(), results[i].value().vec(), "batch slot");
  }
  // Only the 3 distinct queries reached the encoder, as one micro-batch.
  EXPECT_EQ(service.metrics().batched_queries.value(), 3u);
  EXPECT_EQ(service.metrics().batches.value(), 1u);
  // The probe precedes the encode, so every first-pass slot was a miss.
  EXPECT_EQ(service.metrics().cache_misses.value(), sqls.size());
  // Re-encoding the same workload is all hits, no further batches.
  (void)service.EncodeBatch(sqls);
  EXPECT_EQ(service.metrics().batches.value(), 1u);
  EXPECT_EQ(service.metrics().cache_hits.value(), sqls.size());
}

// Degenerate EncodeBatch inputs (found worth pinning by the fuzz harness):
// the empty batch is a clean no-op that leaves every counter untouched.
TEST(EncoderServiceTest, EncodeBatchEmptyInputIsANoOp) {
  auto model = E().MakeModel();
  tasks::PreqrEncoder encoder(&model);
  EncoderService service(&encoder);
  auto results = service.EncodeBatch(std::vector<std::string>{});
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(service.metrics().requests.value(), 0u);
  EXPECT_EQ(service.metrics().batches.value(), 0u);
  EXPECT_EQ(service.metrics().cache_hits.value(), 0u);
  EXPECT_EQ(service.metrics().cache_misses.value(), 0u);
  EXPECT_EQ(service.metrics().errors.value(), 0u);
}

// An all-malformed batch (with duplicates) fails slot by slot: every slot
// carries its own parse Status, duplicates collapse onto one encoder miss,
// errors are counted per *slot*, nothing lands in the cache, and the
// Status-propagating path records no legacy zero-vector fallbacks.
TEST(EncoderServiceTest, EncodeBatchAllMalformedFailsPerSlot) {
  auto model = E().MakeModel();
  tasks::PreqrEncoder encoder(&model);
  EncoderService service(&encoder);
  const std::string bad_a = "SELECT FROM WHERE ;;;";
  const std::string bad_b = ")(*&^%$#@";
  const std::vector<std::string> sqls = {bad_a, bad_b, bad_a, bad_a};
  const uint64_t fallbacks_before = GlobalEncodePathStats().fallback_total;
  auto results = service.EncodeBatch(sqls);
  ASSERT_EQ(results.size(), sqls.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_FALSE(results[i].ok()) << "slot " << i;
    EXPECT_FALSE(results[i].status().message().empty()) << "slot " << i;
  }
  // Identical inputs carry identical statuses (the collapsed miss fans its
  // Status back out to every duplicate slot).
  EXPECT_EQ(results[0].status().ToString(), results[2].status().ToString());
  EXPECT_EQ(results[0].status().ToString(), results[3].status().ToString());
  EXPECT_EQ(service.metrics().errors.value(), sqls.size());
  EXPECT_EQ(service.metrics().requests.value(), sqls.size());
  // 2 distinct queries reached the encoder; none produced a cache entry.
  EXPECT_EQ(service.metrics().batched_queries.value(), 2u);
  EXPECT_EQ(service.cached_embeddings(), 0u);
  EXPECT_EQ(GlobalEncodePathStats().fallback_total, fallbacks_before);
  // A retry re-encodes (errors are never cached) and fails the same way.
  auto again = service.EncodeBatch({bad_a});
  ASSERT_EQ(again.size(), 1u);
  EXPECT_FALSE(again[0].ok());
  EXPECT_EQ(service.metrics().cache_hits.value(), 0u);
}

// A batch wider than the encoder's internal chunk size (kMaxEncodeBatch =
// 32 queries per padded forward) still returns per-slot results bitwise
// identical to solo encodes — chunking is invisible to callers.
TEST(EncoderServiceTest, EncodeBatchLargerThanChunkMatchesSoloBitwise) {
  auto model = E().MakeModel();
  tasks::PreqrEncoder reference(&model);
  tasks::PreqrEncoder wrapped(&model);
  EncoderService service(&wrapped);
  std::vector<std::string> sqls;
  for (int i = 0; i < 40; ++i) {
    sqls.push_back("SELECT id FROM title WHERE id < " + std::to_string(i) +
                   " ORDER BY id LIMIT " + std::to_string(1 + i));
  }
  auto results = service.EncodeBatch(sqls);
  ASSERT_EQ(results.size(), sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    nn::Tensor direct = reference.EncodeVector(sqls[i], /*train=*/false);
    ExpectBitwiseEqual(direct.vec(), results[i].value().vec(), "wide batch");
  }
  EXPECT_EQ(service.metrics().requests.value(), sqls.size());
  EXPECT_EQ(service.metrics().batched_queries.value(), sqls.size());
  EXPECT_EQ(service.metrics().errors.value(), 0u);
}

// The satellite bugfix: a cache populated before further pre-training is
// stale — InvalidateCache must actually drop it.
TEST(EncoderServiceTest, StaleCacheDroppedOnInvalidate) {
  auto model = E().MakeModel();
  tasks::PreqrEncoder encoder(&model);
  EncoderService service(&encoder);
  const std::string& probe = E().corpus[0];
  auto before = service.Encode(probe);
  ASSERT_TRUE(before.ok());

  // Further pre-training changes every layer the cached prefix depends on.
  core::Pretrainer::Options opt;
  opt.epochs = 1;
  opt.batch_size = 8;
  core::Pretrainer(model, opt).Train(E().corpus);

  // Without invalidation the service still serves the stale bits — that is
  // exactly the bug the invalidation hook exists for.
  auto stale = service.Encode(probe);
  ASSERT_TRUE(stale.ok());
  ExpectBitwiseEqual(before.value().vec(), stale.value().vec(),
                     "stale cache persists until invalidated");

  service.InvalidateCache();
  EXPECT_EQ(service.cached_embeddings(), 0u);
  auto fresh = service.Encode(probe);
  ASSERT_TRUE(fresh.ok());
  // The re-encode matches a from-scratch encoder over the updated model...
  tasks::PreqrEncoder rebuilt(&model);
  nn::Tensor expected = rebuilt.EncodeVector(probe, /*train=*/false);
  ExpectBitwiseEqual(expected.vec(), fresh.value().vec(),
                     "post-invalidate re-encode");
  // ...and differs from the stale value (training actually moved it).
  ASSERT_EQ(before.value().vec().size(), fresh.value().vec().size());
  EXPECT_NE(std::memcmp(before.value().vec().data(),
                        fresh.value().vec().data(),
                        fresh.value().vec().size() * sizeof(float)),
            0);
  EXPECT_EQ(service.metrics().invalidations.value(), 1u);
}

TEST(EncoderServiceTest, LruEvictionBoundsServedEmbeddings) {
  auto model = E().MakeModel();
  tasks::PreqrEncoder encoder(&model);
  EncoderServiceOptions options;
  options.cache_capacity = 2;
  options.cache_shards = 1;
  EncoderService service(&encoder, options);
  ASSERT_GE(E().corpus.size(), 3u);
  for (int i = 0; i < 3; ++i) (void)service.Encode(E().corpus[i]);
  EXPECT_LE(service.cached_embeddings(), 2u);
  // corpus[0] was evicted: encoding it again is a miss, not a hit.
  const uint64_t misses = service.metrics().cache_misses.value();
  (void)service.Encode(E().corpus[0]);
  EXPECT_EQ(service.metrics().cache_misses.value(), misses + 1);
}

TEST(EncoderServiceTest, ConcurrentEncodesCoalesceAndStayIdentical) {
  auto model = E().MakeModel();
  tasks::PreqrEncoder reference(&model);
  tasks::PreqrEncoder wrapped(&model);
  EncoderServiceOptions options;
  options.batch_window = std::chrono::microseconds(200);
  EncoderService service(&wrapped, options);

  // Serial reference bits per query.
  std::vector<std::vector<float>> expected;
  for (const auto& sql : E().corpus) {
    expected.push_back(reference.EncodeVector(sql, /*train=*/false).vec());
  }
  // 8 threads, each encoding the whole corpus in a different order; the
  // queries repeat across threads so hits, misses, and coalesced batches
  // all occur.
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const size_t n = E().corpus.size();
      for (size_t k = 0; k < n; ++k) {
        const size_t q = (k * 5 + static_cast<size_t>(t)) % n;
        auto result = service.Encode(E().corpus[q]);
        if (!result.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const auto& got = result.value().vec();
        if (got.size() != expected[q].size() ||
            std::memcmp(got.data(), expected[q].data(),
                        got.size() * sizeof(float)) != 0) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  const auto& m = service.metrics();
  EXPECT_EQ(m.requests.value(),
            static_cast<uint64_t>(kThreads) * E().corpus.size());
  EXPECT_EQ(m.cache_hits.value() + m.cache_misses.value(),
            m.requests.value());
  // Every miss went through a dispatched micro-batch.
  EXPECT_EQ(m.batched_queries.value(), m.cache_misses.value());
  EXPECT_GE(m.batches.value(), 1u);
}

TEST(EncoderServiceTest, MetricsDumpExposesCountersAndLatencies) {
  auto model = E().MakeModel();
  tasks::PreqrEncoder encoder(&model);
  EncoderService service(&encoder);
  (void)service.Encode(E().corpus[0]);
  (void)service.Encode(E().corpus[0]);
  (void)service.Encode("not a query !!");
  const std::string dump = service.metrics().DumpText();
  for (const char* key :
       {"serving_requests_total 3", "serving_cache_hits_total 1",
        "serving_cache_misses_total 2", "serving_errors_total 1",
        "serving_cache_hit_rate", "serving_batches_total",
        "serving_batch_size_mean", "serving_encode_latency_us_p50",
        "serving_hit_latency_us_p99", "nn_buffer_pool_allocs_total",
        "nn_buffer_pool_reuses_total", "nn_buffer_pool_live_bytes"}) {
    EXPECT_NE(dump.find(key), std::string::npos) << "missing: " << key
                                                 << "\n" << dump;
  }
  EXPECT_EQ(service.name(), "serving(PreQR)");
  EXPECT_EQ(service.dim(), encoder.dim());
}

// The metric names a single-tenant service's dump carries, one per line
// (a line's name is the text before its first '{' or space). Adding or
// removing a metric changes this list, so the change shows up in review.
TEST(EncoderServiceTest, MetricsDumpNameSetIsPinned) {
  auto model = E().MakeModel();
  tasks::PreqrEncoder encoder(&model);
  EncoderService service(&encoder);
  (void)service.Encode(E().corpus[0]);
  (void)service.Encode("not a query !!");
  std::set<std::string> names;
  std::istringstream dump(service.metrics().DumpText());
  for (std::string line; std::getline(dump, line);) {
    names.insert(line.substr(0, line.find_first_of("{ ")));
  }
  const std::set<std::string> want = {
      "encode_batch_occupancy",
      "encode_fallback_total",
      "encode_padded_batches_total",
      "encode_padded_slots_total",
      "encode_padded_waste_pct_mean",
      "encode_padded_waste_pct_p99",
      "encode_valid_tokens_total",
      "nn_buffer_pool_allocs_total",
      "nn_buffer_pool_discards_total",
      "nn_buffer_pool_live_bytes",
      "nn_buffer_pool_releases_total",
      "nn_buffer_pool_reuses_total",
      "serving_batch_occupancy_pct_mean",
      "serving_batch_occupancy_pct_p99",
      "serving_batch_size_mean",
      "serving_batch_size_p99",
      "serving_batched_queries_total",
      "serving_batches_total",
      "serving_cache_hit_rate",
      "serving_cache_hits_total",
      "serving_cache_misses_total",
      "serving_deadline_dropped_total",
      "serving_deadline_rejected_total",
      "serving_drain_waiters_total",
      "serving_drained_requests_total",
      "serving_encode_latency_us_p50",
      "serving_encode_latency_us_p99",
      "serving_errors_total",
      "serving_hit_latency_us_p50",
      "serving_hit_latency_us_p99",
      "serving_invalidated_embeddings_total",
      "serving_invalidations_total",
      "serving_kernel_impl_info",
      "serving_model_reload_failures_total",
      "serving_model_reloads_total",
      "serving_net_bad_frames_total",
      "serving_net_connections_rejected_total",
      "serving_net_connections_total",
      "serving_net_requests_total",
      "serving_queue_depth",
      "serving_queue_latency_us_p50",
      "serving_queue_latency_us_p99",
      "serving_rejected_on_shutdown_total",
      "serving_requests_total",
      "serving_shed_client_quota_total",
      "serving_shed_low_priority_total",
      "serving_shed_queue_full_total",
      "serving_shed_total",
      "serving_tenant_cache_hits_total",
      "serving_tenant_cache_misses_total",
      "serving_tenant_deregistrations_total",
      "serving_tenant_drained_requests_total",
      "serving_tenant_errors_total",
      "serving_tenant_not_found_total",
      "serving_tenant_registrations_total",
      "serving_tenant_reloads_total",
      "serving_tenant_requests_total",
      "serving_tenant_shed_total",
  };
  std::string got;
  for (const auto& name : names) got += "      \"" + name + "\",\n";
  EXPECT_EQ(names, want) << "the dump's metric names:\n" << got;
}

// The PreqrEncoder's own prefix cache is LRU-bounded now; hammer it past
// capacity and verify the bound plus hit/miss accounting.
TEST(EncoderServiceTest, TwoServicesNeverInterleaveEncodePathCounters) {
  // Regression pin for the process-global EncodePathRegistry: each service
  // installs its own sink around encoder calls, so two live services (or
  // tenants) keep disjoint padded-batch counters, and direct encoder use
  // outside any service still lands in the global registry.
  auto model_a = E().MakeModel();
  auto model_b = E().MakeModel();
  tasks::PreqrEncoder encoder_a(&model_a);
  tasks::PreqrEncoder encoder_b(&model_b);
  EncoderService service_a(&encoder_a);
  EncoderService service_b(&encoder_b);
  const auto global_before = GlobalEncodePathStats();
  // Three distinct misses through A, one through B: every padded batch a
  // service triggers is attributed to that service alone.
  ASSERT_TRUE(service_a
                  .EncodeBatch(std::vector<std::string>{
                      E().corpus[0], E().corpus[1], E().corpus[2]})[0]
                  .ok());
  ASSERT_TRUE(service_b.Encode(E().corpus[0]).ok());
  const auto stats_a = service_a.metrics().encode_path.Stats();
  const auto stats_b = service_b.metrics().encode_path.Stats();
  EXPECT_GE(stats_a.padded_batches, 1u);
  EXPECT_GE(stats_b.padded_batches, 1u);
  // A's batch carried three queries, B's one — with a shared registry the
  // slot counts would blur together.
  EXPECT_GT(stats_a.padded_slots, stats_b.padded_slots);
  // Neither service leaked into the process-global registry...
  EXPECT_EQ(GlobalEncodePathStats().padded_batches,
            global_before.padded_batches);
  // ...and a direct encoder call (no service in sight) still lands there,
  // not in either service's sink.
  tasks::PreqrEncoder solo(&model_a);
  ASSERT_TRUE(solo.TryEncodeVectorBatch(
                      std::vector<std::string>{E().corpus[2], E().corpus[3]},
                      /*train=*/false)[0]
                  .ok());
  EXPECT_GE(GlobalEncodePathStats().padded_batches,
            global_before.padded_batches + 1);
  EXPECT_EQ(service_a.metrics().encode_path.Stats().padded_batches,
            stats_a.padded_batches);
  // The per-service dump renders the per-service numbers.
  const std::string dump_a = service_a.metrics().DumpText();
  EXPECT_NE(dump_a.find("encode_padded_batches_total"), std::string::npos)
      << dump_a;
}

TEST(PreqrEncoderCacheTest, PrefixCacheBoundedAndCounted) {
  auto model = E().MakeModel();
  tasks::PreqrEncoder::Options options;
  options.cache_capacity = 4;
  options.cache_shards = 2;
  tasks::PreqrEncoder encoder(&model, options);
  // The memo fills only for an encoder that fine-tunes; one step turns it
  // on for the inference encodes below.
  encoder.BeginStep(/*train=*/true);
  encoder.BeginStep(/*train=*/false);
  for (const auto& sql : E().corpus) {
    (void)encoder.EncodeVector(sql, /*train=*/false);
  }
  EXPECT_LE(encoder.cached_queries(), size_t{4});
  const auto stats = encoder.cache_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GE(stats.misses, E().corpus.size());
}

// --- Histogram percentile edge cases (regression for the rank/bucket
// walk: empty histograms, empty leading buckets, boundary ranks, and the
// unbounded last bucket) ----------------------------------------------------

TEST(HistogramTest, EmptyHistogramReportsZero) {
  Histogram h(1.0, 2.0, 6);
  EXPECT_EQ(h.Percentile(0.0), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
  EXPECT_EQ(h.Percentile(0.99), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, SingleBucketInterpolatesWithinBounds) {
  // Buckets: [0,1), [1,2), [2,4), [4,8), [8,+inf). All samples in [0,1).
  Histogram h(1.0, 2.0, 5);
  for (int i = 0; i < 10; ++i) h.Observe(0.5);
  const double p50 = h.Percentile(0.5);
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p50, 1.0);
  // The boundary rank p100 returns exactly the bucket's upper edge.
  EXPECT_EQ(h.Percentile(1.0), 1.0);
}

TEST(HistogramTest, EmptyLeadingBucketsAreSkipped) {
  // All samples land in [4,8): every percentile must answer from that
  // bucket, never from the empty leading buckets. (The old walk returned
  // bucket 0's edge for small p because `seen + 0 >= 0` matched.)
  Histogram h(1.0, 2.0, 5);
  for (int i = 0; i < 8; ++i) h.Observe(5.0);
  EXPECT_EQ(h.Percentile(0.0), 4.0);  // frac 0 -> the bucket's lower edge
  const double p50 = h.Percentile(0.5);
  EXPECT_GE(p50, 4.0);
  EXPECT_LE(p50, 8.0);
  EXPECT_EQ(h.Percentile(1.0), 8.0);
}

TEST(HistogramTest, RankOnBucketBoundaryReturnsExactBound) {
  // 4 samples in [0,1), 4 in [1,2): p50's target rank (4) sits exactly on
  // the first bucket's cumulative boundary -> frac 1 -> exactly 1.0.
  Histogram h(1.0, 2.0, 5);
  for (int i = 0; i < 4; ++i) h.Observe(0.5);
  for (int i = 0; i < 4; ++i) h.Observe(1.5);
  EXPECT_EQ(h.Percentile(0.5), 1.0);
}

TEST(HistogramTest, UnboundedBucketReportsLastFiniteBound) {
  // Samples beyond every finite bound: the unbounded bucket has no width
  // to interpolate in, so percentiles report the largest value the
  // samples are known to exceed — never +inf, never an invented bound.
  Histogram h(1.0, 2.0, 5);  // finite bounds end at 8
  for (int i = 0; i < 5; ++i) h.Observe(1e9);
  EXPECT_EQ(h.Percentile(0.5), 8.0);
  EXPECT_EQ(h.Percentile(0.99), 8.0);
  EXPECT_TRUE(std::isfinite(h.Percentile(1.0)));
}

TEST(HistogramTest, PercentileClampsOutOfRangeP) {
  Histogram h(1.0, 2.0, 5);
  for (int i = 0; i < 4; ++i) h.Observe(0.25);
  EXPECT_EQ(h.Percentile(-3.0), h.Percentile(0.0));
  EXPECT_EQ(h.Percentile(7.0), h.Percentile(1.0));
}

// --- DeadlineAfter saturation (regression: timeout_us near INT64_MAX
// overflowed the steady_clock addition into a deadline in the past, so
// "effectively no timeout" requests died with kDeadlineExceeded) ------------

TEST(DeadlineTest, HugeTimeoutSaturatesToNoDeadline) {
  using std::chrono::microseconds;
  EXPECT_EQ(DeadlineAfter(microseconds(std::numeric_limits<int64_t>::max())),
            kNoDeadline);
  EXPECT_EQ(DeadlineAfter(std::chrono::hours(24 * 365 * 1000)), kNoDeadline);
}

TEST(DeadlineTest, OrdinaryTimeoutStaysFinite) {
  const auto d = DeadlineAfter(std::chrono::milliseconds(50));
  EXPECT_NE(d, kNoDeadline);
  EXPECT_GT(d, DeadlineClock::now() - std::chrono::seconds(1));
  EXPECT_LT(d, DeadlineClock::now() + std::chrono::seconds(10));
}

TEST(DeadlineTest, ZeroTimeoutIsAlreadyExpired) {
  const auto d = DeadlineAfter(std::chrono::microseconds(0));
  EXPECT_NE(d, kNoDeadline);
  EXPECT_LE(d, DeadlineClock::now());
}

}  // namespace
}  // namespace preqr::serving
