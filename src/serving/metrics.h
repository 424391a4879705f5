#ifndef PREQR_SERVING_METRICS_H_
#define PREQR_SERVING_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace preqr::serving {

// Monotonic event counter. Relaxed atomics on purpose: metrics observe the
// request path, they never synchronize it.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Instantaneous level (queue depth, live connections): goes up and down,
// unlike a Counter. Same relaxed-ordering contract.
class Gauge {
 public:
  void Increment(int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void Decrement(int64_t n = 1) {
    value_.fetch_sub(n, std::memory_order_relaxed);
  }
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Lock-free histogram over exponential buckets: bucket b covers
// [scale * growth^(b-1), scale * growth^b), bucket 0 covers [0, scale),
// the last bucket is unbounded. Percentiles interpolate linearly inside
// the bucket that crosses the target rank — an estimate whose error is
// bounded by the bucket width, which is what latency dashboards need.
class Histogram {
 public:
  Histogram(double scale, double growth, int num_buckets);

  void Observe(double value);
  uint64_t count() const;
  double sum() const;
  double mean() const;
  double Percentile(double p) const;  // p in [0, 1]

 private:
  std::vector<double> bounds_;  // upper bound per bucket, last = +inf
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Snapshot of the encode-path shape counters (padded [B, T, d] forwards and
// zero-vector fallbacks) from one sink or from the process-global registry.
struct EncodePathStats {
  uint64_t fallback_total = 0;   // zero-vector fallbacks for malformed SQL
  uint64_t padded_batches = 0;   // padded [B, T, d] forwards executed
  uint64_t padded_slots = 0;     // B * T_max summed over those forwards
  uint64_t valid_tokens = 0;     // sum of example lengths over those forwards
  // valid_tokens / padded_slots — the fraction of batched compute that
  // touched real rows (1.0 when no padded batch ran yet).
  double Occupancy() const;
};

// One scope's worth of encode-path counters. Every EncoderService owns one
// (inside its ServingMetrics) so two live services never interleave their
// fallback/occupancy numbers; encoders running outside any service record
// into the process-global registry instead (see ScopedEncodePathSink).
class EncodePathSink {
 public:
  void RecordFallback() { fallbacks_.Increment(); }
  void RecordPaddedBatch(int batch_size, int t_max, uint64_t valid_tokens);
  EncodePathStats Stats() const;
  const Histogram& padded_waste_pct() const { return padded_waste_pct_; }

 private:
  Counter fallbacks_;
  Counter padded_batches_;
  Counter padded_slots_;
  Counter valid_tokens_;
  // Padded-waste percent (100 * pad slots / total slots) per batch.
  Histogram padded_waste_pct_{1.0, 2.0, 9};
};

// RAII redirection of RecordEncodeFallback/RecordPaddedBatch on this thread:
// while alive, records land in `sink` instead of the process-global
// registry. EncoderService installs one around every encoder call, so the
// tasks-layer encoder needs no ServingMetrics plumbing and still reports to
// the service that invoked it. Nests: the previous sink is restored.
class ScopedEncodePathSink {
 public:
  explicit ScopedEncodePathSink(EncodePathSink* sink);
  ~ScopedEncodePathSink();
  ScopedEncodePathSink(const ScopedEncodePathSink&) = delete;
  ScopedEncodePathSink& operator=(const ScopedEncodePathSink&) = delete;

 private:
  EncodePathSink* previous_;
};

// Per-tenant slice of the serving counters. The aggregate ServingMetrics
// counters keep counting every tenant's traffic; these break the same
// events down by tenant for DumpText's labeled lines and the isolation
// tests. Blocks are created on demand and kept alive by shared_ptr so a
// request that raced a deregistration can still bump its counters safely.
struct TenantMetrics {
  Counter requests;          // Encode + EncodeBatch slots for this tenant
  Counter cache_hits;        // served from this tenant's cache partition
  Counter cache_misses;      // had to reach this tenant's encoder
  Counter errors;            // malformed SQL under this tenant
  Counter shed;              // admission-control rejections
  Counter reloads;           // successful per-tenant model reloads
  Counter drained_requests;  // queued work a reload/deregister waited out
};

// Everything the embedding-serving layer exports. DumpText renders a
// Prometheus-style text snapshot; the bench harness prints it after a run.
struct ServingMetrics {
  Counter requests;         // Encode + EncodeBatch slots
  Counter cache_hits;       // served from the embedding LRU
  Counter cache_misses;     // had to reach the encoder
  Counter errors;           // malformed SQL (error Status returned)
  Counter batches;          // micro-batches dispatched to the encoder
  Counter batched_queries;  // queries carried by those batches
  Counter invalidations;    // InvalidateCache calls (ReloadModel included)
  Counter reloads;          // successful hot model reloads
  Counter reload_failures;  // rejected reloads (weights kept, cache intact)

  // --- Admission control / deadlines (request ring front of the service) --
  Counter shed_queue_full;     // kResourceExhausted: ring at capacity
  Counter shed_client_quota;   // kResourceExhausted: client over its share
  Counter shed_low_priority;   // kResourceExhausted: ring past high water,
                               // priority <= 0
  Counter deadline_rejected;   // kDeadlineExceeded on arrival (never queued)
  Counter deadline_dropped;    // kDeadlineExceeded while queued — dropped by
                               // the dispatcher before encoding
  uint64_t ShedTotal() const {
    return shed_queue_full.value() + shed_client_quota.value() +
           shed_low_priority.value();
  }

  // --- Drain / invalidation (dropped or waited-out in-flight work) --------
  Counter drain_waiters;           // admissions parked while a reload drained
  Counter drained_requests;        // queued requests a drain waited out
  Counter invalidated_embeddings;  // cached embeddings dropped by
                                   // InvalidateCache/ReloadModel/deregister
  Counter rejected_on_shutdown;    // kUnavailable: queued at destruction

  // --- Tenancy (registry lifecycle + routing) ------------------------------
  Counter tenant_not_found;        // kNotFound: unknown tenant id, rejected
                                   // before the cache probe
  Counter tenant_registrations;    // RegisterTenant calls that succeeded
  Counter tenant_deregistrations;  // DeregisterTenant drains that completed

  Gauge queue_depth;  // requests in the ring right now

  Histogram batch_size{1.0, 2.0, 12};
  Histogram encode_latency_us{1.0, 4.0, 16};  // cold path, per request
  Histogram hit_latency_us{1.0, 4.0, 16};     // cache-hit path, per request
  Histogram queue_latency_us{1.0, 4.0, 16};   // admission -> dispatch pop
  // Percent of max_batch_size capacity each dispatched micro-batch used —
  // low means the batch window closes before the queue fills.
  Histogram batch_occupancy_pct{1.0, 2.0, 9};

  // --- Network front-end (EncodeServer) -----------------------------------
  Counter net_connections;           // accepted connections
  Counter net_connections_rejected;  // closed at accept: over the cap
  Counter net_requests;              // frames dispatched to a handler
  Counter net_bad_frames;            // unparseable/oversized frames or a
                                     // protocol-version mismatch

  // This service's own encode-path shape (fallbacks + padded batches):
  // installed as the thread's sink around every encoder call the service
  // makes, so two services never interleave these numbers.
  EncodePathSink encode_path;

  // Per-tenant counter block, created on demand. The returned block stays
  // valid for the caller even after DropTenant (shared ownership).
  std::shared_ptr<TenantMetrics> Tenant(const std::string& tenant_id);
  // Stops rendering the tenant's lines; outstanding holders of the block
  // keep a harmless orphan.
  void DropTenant(const std::string& tenant_id);

  double CacheHitRate() const;
  std::string DumpText() const;

 private:
  mutable std::mutex tenants_mu_;
  // Ordered so DumpText emits tenants in a stable order.
  std::map<std::string, std::shared_ptr<TenantMetrics>> tenants_;
};

// --- Process-global encode-path instrumentation ---------------------------
// The padded [B, T, d] forwards and the zero-vector fallback live below the
// serving layer (tasks::PreqrEncoder has no ServingMetrics instance), so
// records go through free functions: to the thread's ScopedEncodePathSink
// when one is installed (the serving path), otherwise to a process-global
// registry (direct encoder use in training loops, benches, tests).
//
// Counts one zero-vector fallback. Each distinct error message is logged to
// stderr once per process, so a single bad query template cannot flood logs
// while new failure modes still surface.
void RecordEncodeFallback(const std::string& error);
// Records one padded [B, T_max] batch carrying `valid_tokens` = sum_i T_i
// real rows; feeds the padded-waste histogram of the active sink.
void RecordPaddedBatch(int batch_size, int t_max, uint64_t valid_tokens);
// The process-global registry's view (unscoped records only).
EncodePathStats GlobalEncodePathStats();
// Padded-waste percent (100 * pad slots / total slots) per recorded batch.
const Histogram& GlobalPaddedWasteHistogram();

}  // namespace preqr::serving

#endif  // PREQR_SERVING_METRICS_H_
