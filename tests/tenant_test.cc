// TenantContext/TenantRegistry + multi-tenant EncoderService: registry
// lifecycle, kNotFound-before-the-cache-probe routing, cross-tenant cache
// isolation (identical SQL never shares an entry), bitwise equivalence of
// every tenant's responses to its solo single-tenant encoder under
// interleaved and threaded traffic, slot independence across tenants in
// one batch, per-tenant reload/deregister drains under concurrent load,
// and the per-tenant metrics lines in DumpText.
#include "serving/tenant_registry.h"

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "nn/serialize.h"
#include "workload/imdb.h"
#include "workload/query_gen.h"
#include "test_temp_dir.h"

namespace preqr::serving {
namespace {

// One synthetic database per tenant: different seeds give different value
// distributions (and thus different stats, range tokens, and weights), so
// cross-tenant leakage cannot hide behind identical artifacts.
TenantContext::Options MakeTenantOptions(uint64_t seed) {
  db::Database imdb = workload::MakeImdbDatabase(seed, 0.02);
  TenantContext::Options options;
  options.catalog = imdb.catalog();
  options.stats = db::StatsCollector().AnalyzeAll(imdb);
  workload::ImdbQueryGenerator gen(imdb, 3);
  std::unordered_set<std::string> seen;
  for (const auto& q : gen.Synthetic(16, 2)) {
    if (seen.insert(q.sql).second) options.corpus.push_back(q.sql);
  }
  options.config.d_model = 32;
  options.config.ffn_hidden = 64;
  options.seed = 17 + seed;
  return options;
}

std::shared_ptr<TenantContext> MakeTenant(uint64_t seed) {
  auto context = TenantContext::Create(MakeTenantOptions(seed));
  EXPECT_TRUE(context.ok()) << context.status().ToString();
  return std::shared_ptr<TenantContext>(std::move(context.value()));
}

// All tenants share one corpus-compatible schema (same IMDB shape), so any
// tenant can encode any tenant's corpus — which is exactly what makes the
// identical-SQL isolation tests meaningful.
struct MultiTenantEnv {
  std::vector<std::string> ids = {"t0", "t1", "t2"};
  std::vector<std::shared_ptr<TenantContext>> contexts;
  std::vector<std::string> corpus;  // valid against every tenant's schema
  MultiTenantEnv() {
    for (size_t i = 0; i < ids.size(); ++i) {
      contexts.push_back(MakeTenant(7 + i));
    }
    corpus = MakeTenantOptions(7).corpus;
  }
};

MultiTenantEnv& E() {
  static MultiTenantEnv* env = new MultiTenantEnv();
  return *env;
}

void ExpectBitwiseEqual(const nn::Tensor& a, const nn::Tensor& b,
                        const std::string& what) {
  ASSERT_EQ(a.vec().size(), b.vec().size()) << what;
  EXPECT_EQ(std::memcmp(a.vec().data(), b.vec().data(),
                        a.vec().size() * sizeof(float)),
            0)
      << what << ": bitwise mismatch";
}

EncodeRequest Req(const std::string& sql, const std::string& tenant_id = "") {
  EncodeRequest request;
  request.sql = sql;
  request.tenant_id = tenant_id;
  return request;
}

TEST(TenantContextTest, CreateValidatesAndDescribes) {
  auto context = TenantContext::Create(MakeTenantOptions(7));
  ASSERT_TRUE(context.ok());
  const std::string description = context.value()->Describe();
  EXPECT_NE(description.find("tables"), std::string::npos) << description;
  EXPECT_NE(description.find("graph nodes"), std::string::npos);
  EXPECT_GT(context.value()->graph().num_edges(), 0);
  EXPECT_GT(context.value()->vocab().size(), 0);
  // Misaligned stats are a status, not a crash: runtime registration must
  // survive bad input.
  TenantContext::Options bad = MakeTenantOptions(7);
  bad.stats.pop_back();
  auto rejected = TenantContext::Create(std::move(bad));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(TenantContextTest, CorpusQueryThatDoesNotLexIsRejectedByIndex) {
  // An unlexable corpus query must not become an empty template: the
  // status names the first such query.
  TenantContext::Options bad = MakeTenantOptions(7);
  ASSERT_GE(bad.corpus.size(), 3u);
  bad.corpus.insert(bad.corpus.begin() + 2, "SELECT @@@ FROM title");
  bad.corpus.push_back("SELECT 'unterminated FROM title");
  auto rejected = TenantContext::Create(std::move(bad));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("corpus query 2 does not lex"),
            std::string::npos)
      << rejected.status().message();
}

TEST(TenantRegistryTest, LifecycleAndDuplicateRejection) {
  EncoderService service{EncoderServiceOptions{}};
  TenantRegistry registry(&service);
  EXPECT_EQ(registry.size(), 0u);
  ASSERT_TRUE(registry.Register("a", E().contexts[0]).ok());
  ASSERT_TRUE(registry.Register("b", E().contexts[1]).ok());
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_NE(registry.Lookup("a"), nullptr);
  EXPECT_EQ(registry.Lookup("ghost"), nullptr);
  EXPECT_TRUE(service.HasTenant("a"));
  EXPECT_TRUE(service.HasTenant("b"));
  // Duplicate ids and null contexts are kInvalidArgument.
  EXPECT_EQ(registry.Register("a", E().contexts[2]).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Register("c", nullptr).code(),
            StatusCode::kInvalidArgument);
  // Deregister drains the service side first, then drops the context.
  ASSERT_TRUE(registry.Deregister("a").ok());
  EXPECT_FALSE(service.HasTenant("a"));
  EXPECT_EQ(registry.Lookup("a"), nullptr);
  EXPECT_EQ(registry.Deregister("a").code(), StatusCode::kNotFound);
  EXPECT_EQ(service.metrics().tenant_registrations.value(), 2u);
  EXPECT_EQ(service.metrics().tenant_deregistrations.value(), 1u);
}

TEST(TenantServiceTest, UnknownTenantRejectedBeforeCacheProbe) {
  EncoderService service{EncoderServiceOptions{}};
  TenantRegistry registry(&service);
  ASSERT_TRUE(registry.Register("a", E().contexts[0]).ok());
  const std::string& sql = E().corpus[0];
  EncodeRequest request;
  request.sql = sql;
  request.tenant_id = "ghost";
  auto response = service.Encode(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);
  // Pre-probe rejection: neither hit nor miss counters moved, and no
  // metrics block appeared for the garbage id.
  EXPECT_EQ(service.metrics().tenant_not_found.value(), 1u);
  EXPECT_EQ(service.metrics().cache_hits.value(), 0u);
  EXPECT_EQ(service.metrics().cache_misses.value(), 0u);
  EXPECT_EQ(service.metrics().DumpText().find("tenant=\"ghost\""),
            std::string::npos);
  // A service with no tenants at all rejects even the default tenant.
  EncoderService empty{EncoderServiceOptions{}};
  auto none = empty.Encode(Req(sql));
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(empty.dim(), 0);
  EXPECT_EQ(empty.name(), "serving(multi-tenant)");
}

TEST(TenantServiceTest, IdenticalSqlNeverSharesCacheAcrossTenants) {
  EncoderService service{EncoderServiceOptions{}};
  TenantRegistry registry(&service);
  ASSERT_TRUE(registry.Register("a", E().contexts[0]).ok());
  ASSERT_TRUE(registry.Register("b", E().contexts[1]).ok());
  const std::string& sql = E().corpus[0];
  auto under_a = service.Encode(Req(sql, "a"));
  auto under_b = service.Encode(Req(sql, "b"));
  ASSERT_TRUE(under_a.ok()) << under_a.status().ToString();
  ASSERT_TRUE(under_b.ok()) << under_b.status().ToString();
  EXPECT_EQ(under_a.value().tenant_id, "a");
  EXPECT_EQ(under_b.value().tenant_id, "b");
  // Different weights -> different bits. If the cache key ignored the
  // tenant, the second call would have returned tenant a's embedding (as a
  // hit); instead both were misses and each partition holds one entry.
  EXPECT_FALSE(under_b.value().cache_hit);
  EXPECT_NE(under_a.value().embedding.vec(), under_b.value().embedding.vec());
  EXPECT_EQ(service.cached_embeddings("a"), 1u);
  EXPECT_EQ(service.cached_embeddings("b"), 1u);
  EXPECT_EQ(service.cached_embeddings(), 2u);
  // Re-asking under each tenant hits that tenant's own partition.
  auto again_a = service.Encode(Req(sql, "a"));
  ASSERT_TRUE(again_a.ok());
  EXPECT_TRUE(again_a.value().cache_hit);
  ExpectBitwiseEqual(again_a.value().embedding, under_a.value().embedding,
                     "tenant a hit");
  // Solo reference encoders pin the bits per tenant.
  nn::Tensor solo_a =
      E().contexts[0]->encoder()->EncodeVector(sql, /*train=*/false);
  nn::Tensor solo_b =
      E().contexts[1]->encoder()->EncodeVector(sql, /*train=*/false);
  ExpectBitwiseEqual(under_a.value().embedding, solo_a, "tenant a vs solo");
  ExpectBitwiseEqual(under_b.value().embedding, solo_b, "tenant b vs solo");
}

TEST(TenantServiceTest, MalformedQueryCannotPoisonAnotherTenantsSlot) {
  EncoderService service{EncoderServiceOptions{}};
  TenantRegistry registry(&service);
  ASSERT_TRUE(registry.Register("a", E().contexts[0]).ok());
  ASSERT_TRUE(registry.Register("b", E().contexts[1]).ok());
  const std::string& good = E().corpus[0];
  std::vector<EncodeRequest> mixed(4);
  mixed[0] = Req(good, "a");
  mixed[1] = Req("SELECT FROM WHERE ;;;", "a");
  mixed[2] = Req(good, "b");
  mixed[3] = Req(good, "ghost");
  auto slots = service.EncodeBatch(mixed);
  ASSERT_EQ(slots.size(), 4u);
  ASSERT_TRUE(slots[0].ok()) << slots[0].status().ToString();
  ASSERT_FALSE(slots[1].ok());
  EXPECT_EQ(slots[1].status().code(), StatusCode::kParseError);
  ASSERT_TRUE(slots[2].ok()) << slots[2].status().ToString();
  ASSERT_FALSE(slots[3].ok());
  EXPECT_EQ(slots[3].status().code(), StatusCode::kNotFound);
  // Tenant a's malformed slot changed nothing about tenant b's bits.
  nn::Tensor solo_b =
      E().contexts[1]->encoder()->EncodeVector(good, /*train=*/false);
  ExpectBitwiseEqual(slots[2].value().embedding, solo_b,
                     "tenant b slot next to tenant a garbage");
  EXPECT_EQ(slots[0].value().tenant_id, "a");
  EXPECT_EQ(slots[2].value().tenant_id, "b");
}

// The acceptance drill: three tenants, interleaved then threaded traffic,
// every response bitwise-identical to the corresponding solo encoder.
TEST(TenantServiceTest, ThreeTenantInterleavedTrafficMatchesSoloBitwise) {
  EncoderService service{EncoderServiceOptions{}};
  TenantRegistry registry(&service);
  for (size_t i = 0; i < E().ids.size(); ++i) {
    ASSERT_TRUE(registry.Register(E().ids[i], E().contexts[i]).ok());
  }
  const std::vector<std::string>& corpus = E().corpus;
  ASSERT_GE(corpus.size(), 4u);
  // Solo references: one standalone encoder per tenant, same weights.
  std::vector<std::vector<nn::Tensor>> want(E().ids.size());
  for (size_t t = 0; t < E().ids.size(); ++t) {
    for (const auto& sql : corpus) {
      want[t].push_back(
          E().contexts[t]->encoder()->EncodeVector(sql, /*train=*/false));
    }
  }
  // Interleave hard: tenant changes on every consecutive request.
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < corpus.size(); ++i) {
      for (size_t t = 0; t < E().ids.size(); ++t) {
        auto r = service.Encode(
            Req(corpus[i], E().ids[t]));
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(r.value().cache_hit, round > 0);
        ExpectBitwiseEqual(r.value().embedding, want[t][i],
                           "interleaved " + E().ids[t]);
      }
    }
  }
  // Threaded: one worker per tenant hammering its own corpus while the
  // others do the same — per-tenant encode mutexes serialize each encoder,
  // the service interleaves the rest.
  std::vector<std::thread> workers;
  std::vector<std::string> failures(E().ids.size());
  for (size_t t = 0; t < E().ids.size(); ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (size_t i = 0; i < corpus.size(); ++i) {
          auto r = service.Encode(
              Req(corpus[(i + t) % corpus.size()], E().ids[t]));
          if (!r.ok()) {
            failures[t] = r.status().ToString();
            return;
          }
          const auto& w = want[t][(i + t) % corpus.size()];
          if (r.value().embedding.vec() != w.vec()) {
            failures[t] = "bitwise mismatch under " + E().ids[t];
            return;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const auto& f : failures) EXPECT_TRUE(f.empty()) << f;
  EXPECT_EQ(service.metrics().errors.value(), 0u);
  // Per-tenant accounting: every tenant saw its own traffic.
  const std::string dump = service.metrics().DumpText();
  for (const auto& id : E().ids) {
    EXPECT_NE(dump.find("serving_tenant_requests_total{tenant=\"" + id +
                        "\"}"),
              std::string::npos)
        << dump;
  }
}

TEST(TenantServiceTest, PerTenantReloadDrainsOnlyThatTenant) {
  EncoderService service{EncoderServiceOptions{}};
  TenantRegistry registry(&service);
  ASSERT_TRUE(registry.Register("a", E().contexts[0]).ok());
  ASSERT_TRUE(registry.Register("b", E().contexts[1]).ok());
  const std::string& sql = E().corpus[0];
  ASSERT_TRUE(service.Encode(Req(sql, "a")).ok());
  ASSERT_TRUE(service.Encode(Req(sql, "b")).ok());
  const std::string path = test::TempPath("tenant_reload_a.prc1");
  ASSERT_TRUE(nn::SaveModule(*E().contexts[0]->model(), path).ok());
  ASSERT_TRUE(service.ReloadModel("a", path).ok());
  // Only tenant a's partition was cleared; b still hits.
  EXPECT_EQ(service.cached_embeddings("a"), 0u);
  EXPECT_EQ(service.cached_embeddings("b"), 1u);
  auto hit_b = service.Encode(Req(sql, "b"));
  ASSERT_TRUE(hit_b.ok());
  EXPECT_TRUE(hit_b.value().cache_hit);
  // Same weights reloaded: tenant a's bits are unchanged after the swap.
  auto again_a = service.Encode(Req(sql, "a"));
  ASSERT_TRUE(again_a.ok());
  EXPECT_FALSE(again_a.value().cache_hit);
  nn::Tensor solo_a =
      E().contexts[0]->encoder()->EncodeVector(sql, /*train=*/false);
  ExpectBitwiseEqual(again_a.value().embedding, solo_a, "post-reload a");
  // Reload on a tenant registered without a model is a clean error.
  EXPECT_EQ(service.ReloadModel("ghost", path).code(), StatusCode::kNotFound);
}

TEST(TenantServiceTest, DeregisterDrainsAndDropsExactlyThatPartition) {
  EncoderService service{EncoderServiceOptions{}};
  TenantRegistry registry(&service);
  ASSERT_TRUE(registry.Register("a", E().contexts[0]).ok());
  ASSERT_TRUE(registry.Register("b", E().contexts[1]).ok());
  const std::string& sql = E().corpus[1];
  ASSERT_TRUE(service.Encode(Req(sql, "a")).ok());
  ASSERT_TRUE(service.Encode(Req(sql, "b")).ok());
  const uint64_t invalidated_before =
      service.metrics().invalidated_embeddings.value();
  ASSERT_TRUE(registry.Deregister("a").ok());
  // Exactly a's one cached embedding was dropped; b's partition survives.
  EXPECT_EQ(service.metrics().invalidated_embeddings.value(),
            invalidated_before + 1);
  EXPECT_EQ(service.cached_embeddings(), 1u);
  EXPECT_EQ(service.cached_embeddings("b"), 1u);
  // a's metrics lines disappeared from the dump; b's remain.
  const std::string dump = service.metrics().DumpText();
  EXPECT_EQ(dump.find("tenant=\"a\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("tenant=\"b\""), std::string::npos);
  // New traffic for a is kNotFound; b is untouched.
  auto gone = service.Encode(Req(sql, "a"));
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(service.Encode(Req(sql, "b")).ok());
  // Re-registering the id works (fresh, empty partition).
  ASSERT_TRUE(registry.Register("a", E().contexts[0]).ok());
  auto back = service.Encode(Req(sql, "a"));
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back.value().cache_hit);
}

TEST(TenantServiceTest, RegisterAndDeregisterUnderConcurrentLoad) {
  EncoderService service{EncoderServiceOptions{}};
  TenantRegistry registry(&service);
  ASSERT_TRUE(registry.Register("steady", E().contexts[0]).ok());
  const std::vector<std::string>& corpus = E().corpus;
  nn::Tensor want =
      E().contexts[0]->encoder()->EncodeVector(corpus[0], /*train=*/false);
  std::atomic<bool> stop{false};
  std::string steady_failure;
  // A steady tenant is hammered while another tenant churns through
  // register -> traffic -> deregister cycles; the steady tenant must see
  // zero dropped or mis-coded responses.
  std::thread steady([&] {
    size_t i = 0;
    while (!stop.load()) {
      auto r = service.Encode(Req(corpus[i++ % corpus.size()], "steady"));
      if (!r.ok()) {
        steady_failure = r.status().ToString();
        return;
      }
      if (i % corpus.size() == 0 &&
          r.value().embedding.vec().size() != want.vec().size()) {
        steady_failure = "dimension changed mid-flight";
        return;
      }
    }
  });
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(registry.Register("churn", E().contexts[1]).ok());
    for (int i = 0; i < 4; ++i) {
      auto r = service.Encode(Req(corpus[i % corpus.size()], "churn"));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    ASSERT_TRUE(registry.Deregister("churn").ok());
    EXPECT_EQ(service.cached_embeddings("churn"), 0u);
  }
  stop.store(true);
  steady.join();
  EXPECT_TRUE(steady_failure.empty()) << steady_failure;
  EXPECT_EQ(service.metrics().errors.value(), 0u);
  // The steady tenant's bits never drifted.
  auto final_check = service.Encode(Req(corpus[0], "steady"));
  ASSERT_TRUE(final_check.ok());
  ExpectBitwiseEqual(final_check.value().embedding, want, "steady tenant");
}

}  // namespace
}  // namespace preqr::serving
