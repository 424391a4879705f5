#include "serving/metrics.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>
#include <unordered_set>

#include "common/check.h"
#include "nn/buffer_pool.h"
#include "nn/kernels_dispatch.h"

namespace preqr::serving {

namespace {

// Process-global encode-path sink (cf. BufferPool::TotalStats): catches
// records made outside any service scope (training loops, direct encoder
// use in benches and tests). Once-per-distinct-error logging stays here —
// it is process-level hygiene regardless of which sink counts the event.
struct EncodePathRegistry {
  EncodePathSink sink;
  std::mutex log_mu;
  std::unordered_set<std::string> logged_errors;
};

EncodePathRegistry& Registry() {
  static EncodePathRegistry* r = new EncodePathRegistry();
  return *r;
}

// The thread's active sink; null means "record into the global registry".
// Thread-local (not an argument) so the tasks-layer encoder keeps its
// metrics-free signature while still reporting to the service driving it.
thread_local EncodePathSink* t_encode_sink = nullptr;

}  // namespace

double EncodePathStats::Occupancy() const {
  return padded_slots == 0 ? 1.0
                           : static_cast<double>(valid_tokens) /
                                 static_cast<double>(padded_slots);
}

void EncodePathSink::RecordPaddedBatch(int batch_size, int t_max,
                                       uint64_t valid_tokens) {
  const uint64_t slots =
      static_cast<uint64_t>(batch_size) * static_cast<uint64_t>(t_max);
  padded_batches_.Increment();
  padded_slots_.Increment(slots);
  valid_tokens_.Increment(valid_tokens);
  if (slots > 0) {
    padded_waste_pct_.Observe(100.0 *
                              static_cast<double>(slots - valid_tokens) /
                              static_cast<double>(slots));
  }
}

EncodePathStats EncodePathSink::Stats() const {
  EncodePathStats s;
  s.fallback_total = fallbacks_.value();
  s.padded_batches = padded_batches_.value();
  s.padded_slots = padded_slots_.value();
  s.valid_tokens = valid_tokens_.value();
  return s;
}

ScopedEncodePathSink::ScopedEncodePathSink(EncodePathSink* sink)
    : previous_(t_encode_sink) {
  t_encode_sink = sink;
}

ScopedEncodePathSink::~ScopedEncodePathSink() { t_encode_sink = previous_; }

void RecordEncodeFallback(const std::string& error) {
  auto& r = Registry();
  EncodePathSink* sink = t_encode_sink != nullptr ? t_encode_sink : &r.sink;
  sink->RecordFallback();
  bool first = false;
  {
    std::lock_guard<std::mutex> lock(r.log_mu);
    first = r.logged_errors.insert(error).second;
  }
  if (first) {
    std::fprintf(stderr, "[encode] zero-vector fallback: %s\n", error.c_str());
  }
}

void RecordPaddedBatch(int batch_size, int t_max, uint64_t valid_tokens) {
  EncodePathSink* sink =
      t_encode_sink != nullptr ? t_encode_sink : &Registry().sink;
  sink->RecordPaddedBatch(batch_size, t_max, valid_tokens);
}

EncodePathStats GlobalEncodePathStats() { return Registry().sink.Stats(); }

const Histogram& GlobalPaddedWasteHistogram() {
  return Registry().sink.padded_waste_pct();
}

std::shared_ptr<TenantMetrics> ServingMetrics::Tenant(
    const std::string& tenant_id) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto& slot = tenants_[tenant_id];
  if (slot == nullptr) slot = std::make_shared<TenantMetrics>();
  return slot;
}

void ServingMetrics::DropTenant(const std::string& tenant_id) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  tenants_.erase(tenant_id);
}

Histogram::Histogram(double scale, double growth, int num_buckets) {
  PREQR_CHECK_GT(scale, 0.0);
  PREQR_CHECK_GT(growth, 1.0);
  PREQR_CHECK_GT(num_buckets, 1);
  bounds_.reserve(static_cast<size_t>(num_buckets));
  double bound = scale;
  for (int b = 0; b + 1 < num_buckets; ++b) {
    bounds_.push_back(bound);
    bound *= growth;
  }
  bounds_.push_back(std::numeric_limits<double>::infinity());
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size());
  for (size_t b = 0; b < bounds_.size(); ++b) counts_[b] = 0;
}

void Histogram::Observe(double value) {
  size_t b = 0;
  while (value >= bounds_[b]) ++b;  // last bound is +inf: always terminates
  counts_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> is C++20; spell the CAS loop out for
  // toolchains that lower it poorly.
  double seen = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(seen, seen + value,
                                     std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::count() const {
  return count_.load(std::memory_order_relaxed);
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

double Histogram::mean() const {
  const uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::Percentile(double p) const {
  const uint64_t n = count();
  if (n == 0) return 0.0;  // defined: an empty histogram reports 0
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  const double target = p * static_cast<double>(n);
  double lower = 0.0;
  uint64_t seen = 0;
  for (size_t b = 0; b < bounds_.size(); ++b) {
    const uint64_t in_bucket = counts_[b].load(std::memory_order_relaxed);
    // Only a non-empty bucket can hold the target rank. The old code
    // stopped at the first bucket whose cumulative count crossed target —
    // including empty leading buckets when target rounds to 0 — and
    // reported that bucket's upper bound, so a histogram whose samples
    // all sat in bucket 3 answered p50 with bucket 0's edge.
    if (in_bucket > 0 &&
        static_cast<double>(seen) + static_cast<double>(in_bucket) >= target) {
      if (std::isinf(bounds_[b])) {
        // The unbounded last bucket has no width to interpolate in; the
        // previous finite bound is the largest value the samples are known
        // to exceed (the old code invented `2 * lower + 1` here).
        return lower;
      }
      const double upper = bounds_[b];
      // A rank exactly on the boundary (target == seen + in_bucket) gives
      // frac == 1 and returns exactly `upper`.
      const double frac =
          (target - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      return lower + (upper - lower) * frac;
    }
    seen += in_bucket;
    lower = bounds_[b];
  }
  // Only reachable when a racing Observe bumped count_ after our bucket
  // scan started; the largest finite bound is the only defined answer
  // (`lower` here would be +inf).
  return bounds_.size() >= 2 ? bounds_[bounds_.size() - 2] : 0.0;
}

double ServingMetrics::CacheHitRate() const {
  const uint64_t hits = cache_hits.value();
  const uint64_t total = hits + cache_misses.value();
  return total == 0 ? 0.0 : static_cast<double>(hits) /
                                static_cast<double>(total);
}

std::string ServingMetrics::DumpText() const {
  char line[160];
  std::string out;
  auto emit_counter = [&](const char* name, const Counter& c) {
    std::snprintf(line, sizeof(line), "%s %llu\n", name,
                  static_cast<unsigned long long>(c.value()));
    out += line;
  };
  auto emit_value = [&](const char* name, double v) {
    std::snprintf(line, sizeof(line), "%s %.6g\n", name, v);
    out += line;
  };
  emit_counter("serving_requests_total", requests);
  emit_counter("serving_cache_hits_total", cache_hits);
  emit_counter("serving_cache_misses_total", cache_misses);
  emit_value("serving_cache_hit_rate", CacheHitRate());
  emit_counter("serving_errors_total", errors);
  emit_counter("serving_batches_total", batches);
  emit_counter("serving_batched_queries_total", batched_queries);
  emit_counter("serving_invalidations_total", invalidations);
  emit_counter("serving_model_reloads_total", reloads);
  emit_counter("serving_model_reload_failures_total", reload_failures);
  // Admission control: everything the service refused, by reason, plus the
  // instantaneous ring depth.
  emit_counter("serving_shed_queue_full_total", shed_queue_full);
  emit_counter("serving_shed_client_quota_total", shed_client_quota);
  emit_counter("serving_shed_low_priority_total", shed_low_priority);
  std::snprintf(line, sizeof(line), "serving_shed_total %llu\n",
                static_cast<unsigned long long>(ShedTotal()));
  out += line;
  emit_counter("serving_deadline_rejected_total", deadline_rejected);
  emit_counter("serving_deadline_dropped_total", deadline_dropped);
  std::snprintf(line, sizeof(line), "serving_queue_depth %lld\n",
                static_cast<long long>(queue_depth.value()));
  out += line;
  // Drain accounting: what a reload waited out and what invalidation threw
  // away — the previously-invisible cost of InvalidateCache/ReloadModel.
  emit_counter("serving_drain_waiters_total", drain_waiters);
  emit_counter("serving_drained_requests_total", drained_requests);
  emit_counter("serving_invalidated_embeddings_total", invalidated_embeddings);
  emit_counter("serving_rejected_on_shutdown_total", rejected_on_shutdown);
  // Tenancy: registry lifecycle plus unknown-id rejections (which happen
  // before the cache probe, so they appear in no hit/miss counter).
  emit_counter("serving_tenant_not_found_total", tenant_not_found);
  emit_counter("serving_tenant_registrations_total", tenant_registrations);
  emit_counter("serving_tenant_deregistrations_total", tenant_deregistrations);
  {
    // Per-tenant dimension: the same events as the aggregate counters,
    // labeled. The default tenant ("") renders as tenant="default".
    std::lock_guard<std::mutex> lock(tenants_mu_);
    auto emit_tenant = [&](const char* name, const std::string& id,
                           const Counter& c) {
      std::snprintf(line, sizeof(line), "%s{tenant=\"%s\"} %llu\n", name,
                    id.empty() ? "default" : id.c_str(),
                    static_cast<unsigned long long>(c.value()));
      out += line;
    };
    for (const auto& [id, tm] : tenants_) {
      emit_tenant("serving_tenant_requests_total", id, tm->requests);
      emit_tenant("serving_tenant_cache_hits_total", id, tm->cache_hits);
      emit_tenant("serving_tenant_cache_misses_total", id, tm->cache_misses);
      emit_tenant("serving_tenant_errors_total", id, tm->errors);
      emit_tenant("serving_tenant_shed_total", id, tm->shed);
      emit_tenant("serving_tenant_reloads_total", id, tm->reloads);
      emit_tenant("serving_tenant_drained_requests_total", id,
                  tm->drained_requests);
    }
  }
  emit_value("serving_batch_size_mean", batch_size.mean());
  emit_value("serving_batch_size_p99", batch_size.Percentile(0.99));
  emit_value("serving_encode_latency_us_p50",
             encode_latency_us.Percentile(0.5));
  emit_value("serving_encode_latency_us_p99",
             encode_latency_us.Percentile(0.99));
  emit_value("serving_hit_latency_us_p50", hit_latency_us.Percentile(0.5));
  emit_value("serving_hit_latency_us_p99", hit_latency_us.Percentile(0.99));
  emit_value("serving_queue_latency_us_p50", queue_latency_us.Percentile(0.5));
  emit_value("serving_queue_latency_us_p99",
             queue_latency_us.Percentile(0.99));
  emit_value("serving_batch_occupancy_pct_mean", batch_occupancy_pct.mean());
  emit_value("serving_batch_occupancy_pct_p99",
             batch_occupancy_pct.Percentile(0.99));
  // Network front-end (zeros when no EncodeServer is attached).
  emit_counter("serving_net_connections_total", net_connections);
  emit_counter("serving_net_connections_rejected_total",
               net_connections_rejected);
  emit_counter("serving_net_requests_total", net_requests);
  emit_counter("serving_net_bad_frames_total", net_bad_frames);
  // Tensor-storage recycling behind the no-grad encode path (process-wide).
  const nn::BufferPoolStats pool = nn::BufferPool::TotalStats();
  auto emit_u64 = [&](const char* name, uint64_t v) {
    std::snprintf(line, sizeof(line), "%s %llu\n", name,
                  static_cast<unsigned long long>(v));
    out += line;
  };
  emit_u64("nn_buffer_pool_allocs_total", pool.allocs);
  emit_u64("nn_buffer_pool_reuses_total", pool.reuses);
  emit_u64("nn_buffer_pool_releases_total", pool.releases);
  emit_u64("nn_buffer_pool_discards_total", pool.discards);
  emit_u64("nn_buffer_pool_live_bytes", pool.live_bytes);
  // This service's own encode path: fallbacks + padded-batch shape from the
  // per-service sink — two live services no longer interleave these.
  const EncodePathStats enc = encode_path.Stats();
  emit_u64("encode_fallback_total", enc.fallback_total);
  emit_u64("encode_padded_batches_total", enc.padded_batches);
  emit_u64("encode_padded_slots_total", enc.padded_slots);
  emit_u64("encode_valid_tokens_total", enc.valid_tokens);
  emit_value("encode_batch_occupancy", enc.Occupancy());
  const Histogram& waste = encode_path.padded_waste_pct();
  emit_value("encode_padded_waste_pct_mean", waste.mean());
  emit_value("encode_padded_waste_pct_p99", waste.Percentile(0.99));
  // Which kernel backend the process is running (info-style metric: the
  // value is always 1, the label carries the answer).
  std::snprintf(line, sizeof(line), "serving_kernel_impl_info{impl=\"%s\"} 1\n",
                nn::kernels::ActiveImplName());
  out += line;
  return out;
}

}  // namespace preqr::serving
