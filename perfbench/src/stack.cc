#include "stack.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "common/check.h"
#include "common/rng.h"
#include "db/executor.h"
#include "planner/cardinality.h"
#include "planner/join_planner.h"
#include "sql/printer.h"
#include "workload/imdb.h"

namespace perfbench {

using preqr::workload::BenchQuery;

db::Database MakeDatabase() {
  return preqr::workload::MakeImdbDatabase(/*seed=*/42, /*scale=*/0.22);
}

FixedInputs MakeFixedInputs(const db::Database& db) {
  FixedInputs f;
  preqr::workload::ImdbQueryGenerator gen(db, /*seed=*/7);
  for (const BenchQuery& q : gen.Synthetic(160, 2)) {
    f.template_corpus.push_back(q.sql);
  }
  // The estimator learns from single-table and multi-join queries alike:
  // the planner also asks about every connected sub-join of a query.
  std::vector<BenchQuery> train = gen.Synthetic(64, 2);
  for (BenchQuery& q : gen.JobLightTrain(64)) train.push_back(std::move(q));
  for (const BenchQuery& q : train) {
    f.estimator_sqls.push_back(q.sql);
    f.estimator_cards.push_back(q.true_card);
  }
  return f;
}

namespace {

// The statement with every integer filter literal passed through `f`.
template <typename F>
sql::SelectStatement MapIntLiterals(sql::SelectStatement stmt, F f) {
  int k = 0;
  for (auto& p : stmt.predicates) {
    if (p.IsJoin()) continue;
    for (auto& v : p.values) {
      if (v.kind == sql::Literal::Kind::kInt) v.int_value = f(k++, v.int_value);
    }
  }
  return stmt;
}

}  // namespace

std::vector<sql::SelectStatement> BaseQueries(const db::Database& db,
                                              uint64_t seed, size_t n) {
  preqr::workload::ImdbQueryGenerator gen(db, seed);
  std::vector<sql::SelectStatement> out;
  std::unordered_set<std::string> shapes;
  while (out.size() < n) {
    for (BenchQuery& q : gen.Synthetic(static_cast<int>(n), 2)) {
      bool has_int = false;
      const auto shape = MapIntLiterals(q.stmt, [&](int, int64_t) {
        has_int = true;
        return int64_t{0};
      });
      if (!has_int || !shapes.insert(preqr::sql::ToSql(shape)).second) {
        continue;
      }
      out.push_back(std::move(q.stmt));
      if (out.size() == n) break;
    }
  }
  return out;
}

VariantStream::VariantStream(std::vector<sql::SelectStatement> bases,
                             uint64_t seed)
    : bases_(std::move(bases)), seed_(seed) {
  PREQR_CHECK_MSG(!bases_.empty(), "no base queries");
}

std::string VariantStream::At(uint64_t i) const {
  const uint64_t round = i / bases_.size();
  preqr::Rng rng(seed_ ^ (i * 0x9e3779b97f4a7c15ull));
  const auto stmt =
      MapIntLiterals(bases_[i % bases_.size()], [&](int k, int64_t v) {
        if (k == 0) return v + static_cast<int64_t>(round);
        const int64_t shift = static_cast<int64_t>(rng.NextUint64(129)) - 64;
        return std::max<int64_t>(0, v + shift);
      });
  return preqr::sql::ToSql(stmt);
}

std::vector<std::string> VariantStream::Take(uint64_t from, size_t n) const {
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t k = 0; k < n; ++k) out.push_back(At(from + k));
  return out;
}

std::vector<BenchQuery> PlanQueries(const db::Database& db, uint64_t seed,
                                    size_t n) {
  preqr::workload::ImdbQueryGenerator gen(db, seed);
  std::vector<BenchQuery> out;
  std::unordered_set<std::string> seen;
  while (out.size() < n) {
    for (BenchQuery& q : gen.JobLightTrain(64)) {
      if (q.stmt.tables.size() < 3 || !seen.insert(q.sql).second) continue;
      out.push_back(std::move(q));
      if (out.size() == n) break;
    }
  }
  return out;
}

std::vector<double> TruePlanCosts(const db::Database& db,
                                  const std::vector<BenchQuery>& qs) {
  preqr::planner::TrueCardinalityEstimator truth(db);
  preqr::db::Executor exec(db);
  std::vector<double> costs;
  costs.reserve(qs.size());
  for (const BenchQuery& q : qs) {
    auto choice = preqr::planner::PlanJoinOrder(db, q.stmt, truth);
    PREQR_CHECK(choice.ok());
    auto res = exec.ExecuteOrder(q.stmt, choice.value().order);
    PREQR_CHECK(res.ok());
    costs.push_back(res.value().cost);
  }
  return costs;
}

std::unique_ptr<preqr::serving::TenantContext> MakeTenant(
    const db::Database& db, const FixedInputs& fixed) {
  preqr::serving::TenantContext::Options o;
  o.catalog = db.catalog();
  o.stats = preqr::db::StatsCollector().AnalyzeAll(db);
  o.corpus = fixed.template_corpus;
  auto ctx = preqr::serving::TenantContext::Create(std::move(o));
  PREQR_CHECK_MSG(ctx.ok(), "tenant set-up failed");
  return std::move(ctx.value());
}

std::unique_ptr<preqr::tasks::EstimatorModel> TrainEstimator(
    preqr::serving::TenantContext* tenant, const FixedInputs& fixed) {
  preqr::tasks::EstimatorModel::Options o;
  o.epochs = 3;
  auto model =
      std::make_unique<preqr::tasks::EstimatorModel>(tenant->encoder(), o);
  model->Fit(fixed.estimator_sqls, fixed.estimator_cards);
  return model;
}

HostProbe RunHostProbe() {
  HostProbe p;
  int64_t t0 = NowNs();
  volatile double seed = 1.0;
  double x = seed;
  for (int i = 0; i < 20'000'000; ++i) x = x * 1.0000001 + 1e-9;
  seed = x;
  p.cpu_ms = static_cast<double>(NowNs() - t0) / 1e6;
  // One random cycle through 2M slots (8 MiB, Sattolo's shuffle), followed
  // for a fixed number of hops: every hop is a dependent cache miss. Built
  // and freed per probe so it does not stay resident.
  std::vector<uint32_t> ring(2u << 20);
  for (uint32_t i = 0; i < ring.size(); ++i) ring[i] = i;
  preqr::Rng rng(12345);
  for (size_t i = ring.size() - 1; i > 0; --i) {
    std::swap(ring[i], ring[rng.NextUint64(i)]);
  }
  t0 = NowNs();
  volatile uint32_t at = 0;
  uint32_t cur = at;
  for (int i = 0; i < 2'000'000; ++i) cur = ring[cur];
  at = cur;
  p.mem_ms = static_cast<double>(NowNs() - t0) / 1e6;
  return p;
}

std::string HostProbeNote(const HostProbe& before, const HostProbe& after) {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "host.probe_ms cpu before=%.3f after=%.3f, mem before=%.3f "
                "after=%.3f",
                before.cpu_ms, after.cpu_ms, before.mem_ms, after.mem_ms);
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void AddEndToEnd(RunResult* r, const std::vector<double>& setup_secs,
                 double measured_s, const LatencyHistogram& latency,
                 double peak_rss_mb) {
  // tail_us is p90 on every workload. The highest percentile with ten
  // samples beyond it (p99.9 and above on the serve workloads) sits past a
  // knee in the latency distribution set by host stalls and memory
  // contention from other tenants of the machine: p95-p99.9 spread 30-100%
  // between runs while p90 moved as little as p50.
  const Tail tail = SelectTail(latency, 90.0);
  const uint64_t ok = r->attempted - r->failed;
  r->Add("setup_s", Median(setup_secs), "s");
  r->Add("ops_per_s", static_cast<double>(ok) / measured_s, "1/s");
  r->Add("p50_us", latency.QuantileUs(0.5), "us");
  r->Add("tail_us", tail.value, "us");
  r->Add("peak_rss_mb", peak_rss_mb, "MB");
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "tail_us = p%g of %llu samples (%llu beyond)%s",
                tail.percentile, static_cast<unsigned long long>(tail.samples),
                static_cast<unsigned long long>(tail.beyond),
                tail.ok ? "" : " -- fewer than 10 beyond, tail not supported");
  r->Note(buf);
  std::string ladder = "latency_us";
  for (double q : {50.0, 80.0, 90.0, 95.0, 98.0, 99.0, 99.9}) {
    std::snprintf(buf, sizeof(buf), " p%g=%.1f", q,
                  latency.QuantileUs(q / 100));
    ladder += buf;
  }
  r->Note(ladder);
  std::string setups = "setup_s repetitions:";
  for (double s : setup_secs) {
    std::snprintf(buf, sizeof(buf), " %.4f", s);
    setups += buf;
  }
  r->Note(setups);
}

}  // namespace perfbench
