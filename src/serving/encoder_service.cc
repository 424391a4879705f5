#include "serving/encoder_service.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "nn/serialize.h"

namespace preqr::serving {
namespace {

using Clock = DeadlineClock;

double ElapsedUs(Clock::time_point since, Clock::time_point until) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(until - since)
             .count() /
         1000.0;
}

double ElapsedUs(Clock::time_point since) {
  return ElapsedUs(since, Clock::now());
}

// Cached embeddings are shared across callers; hand out detached copies so
// a caller mutating its tensor cannot corrupt the cache (or another
// caller's view). Under the guard the copy draws from the BufferPool.
nn::Tensor DetachedCopy(const nn::Tensor& t) {
  nn::NoGradGuard no_grad;
  return t.Detach();
}

Status UnknownTenant(const std::string& tenant_id) {
  return Status::NotFound("unknown tenant '" + tenant_id + "'");
}

}  // namespace

EncoderService::EncoderService(EncoderServiceOptions options)
    : options_(options), ring_(options.ring_capacity) {
  // Derived admission knobs work off the *rounded* ring capacity so the
  // documented fractions hold for any requested size.
  const size_t cap = ring_.capacity();
  per_client_quota_ = options.per_client_quota > 0
                          ? options.per_client_quota
                          : std::max<size_t>(1, cap / 4);
  const size_t reserve =
      options.priority_reserve > 0 ? options.priority_reserve : cap / 4;
  admit_watermark_ = reserve >= cap ? 0 : cap - reserve;
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

EncoderService::EncoderService(baselines::QueryEncoder* encoder,
                               EncoderServiceOptions options)
    : EncoderService(options) {
  PREQR_CHECK(encoder != nullptr);
  // Cannot collide: the map is empty at construction.
  PREQR_CHECK(RegisterTenant(kDefaultTenantId, encoder).ok());
}

EncoderService::~EncoderService() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  dispatcher_.join();
}

Status EncoderService::RegisterTenant(const std::string& tenant_id,
                                      baselines::QueryEncoder* encoder,
                                      nn::Module* model) {
  if (encoder == nullptr) {
    return Status::InvalidArgument("RegisterTenant requires an encoder");
  }
  // The metrics block is created outside tenants_mu_ (it has its own lock);
  // create-on-demand makes a lost race here harmless.
  auto tenant_metrics = metrics_.Tenant(tenant_id);
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    if (tenants_.count(tenant_id) > 0) {
      return Status::InvalidArgument("tenant '" + tenant_id +
                                     "' already registered");
    }
    tenants_.emplace(tenant_id,
                     std::make_shared<Tenant>(tenant_id, encoder, model,
                                              options_,
                                              std::move(tenant_metrics)));
  }
  metrics_.tenant_registrations.Increment();
  return Status::Ok();
}

Status EncoderService::DeregisterTenant(const std::string& tenant_id) {
  if (tenant_id == kDefaultTenantId) {
    return Status::InvalidArgument(
        "the default tenant cannot be deregistered");
  }
  TenantPtr tenant = FindTenant(tenant_id);
  if (tenant == nullptr) return UnknownTenant(tenant_id);
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (tenant->closing) {
      return Status::InvalidArgument("tenant '" + tenant_id +
                                     "' is already deregistering");
    }
    // From here on AdmitOrResolve and the sync EncodeBatch refuse new work
    // for this tenant with kNotFound; everything already admitted drains.
    tenant->closing = true;
    lock.unlock();
    // Wake admissions parked behind a reload drain so they observe
    // `closing` and fail fast instead of waiting on a dying tenant.
    queue_cv_.notify_all();
    lock.lock();
    queue_cv_.wait(lock, [&] {
      return (tenant->queued == 0 && tenant->inflight == 0 &&
              !tenant->draining) ||
             stopping_;
    });
  }
  {
    // Belt and braces: inflight == 0 already guarantees no encoder call is
    // running, but taking the mutex makes the hand-off explicit.
    std::lock_guard<std::mutex> lock(tenant->encode_mu);
    metrics_.invalidated_embeddings.Increment(tenant->cache.size());
    tenant->cache.Clear();
  }
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    tenants_.erase(tenant_id);
  }
  metrics_.tenant_deregistrations.Increment();
  metrics_.DropTenant(tenant_id);
  queue_cv_.notify_all();
  return Status::Ok();
}

bool EncoderService::HasTenant(const std::string& tenant_id) const {
  return FindTenant(tenant_id) != nullptr;
}

std::vector<std::string> EncoderService::TenantIds() const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  std::vector<std::string> ids;
  ids.reserve(tenants_.size());
  for (const auto& [id, tenant] : tenants_) ids.push_back(id);
  return ids;
}

EncoderService::TenantPtr EncoderService::FindTenant(
    const std::string& tenant_id) const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto it = tenants_.find(tenant_id);
  return it == tenants_.end() ? nullptr : it->second;
}

int EncoderService::dim() const {
  TenantPtr tenant = FindTenant(kDefaultTenantId);
  return tenant == nullptr ? 0 : tenant->encoder->dim();
}

std::string EncoderService::name() const {
  TenantPtr tenant = FindTenant(kDefaultTenantId);
  return tenant == nullptr ? "serving(multi-tenant)"
                           : "serving(" + tenant->encoder->name() + ")";
}

size_t EncoderService::cached_embeddings() const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  size_t total = 0;
  for (const auto& [id, tenant] : tenants_) total += tenant->cache.size();
  return total;
}

size_t EncoderService::cached_embeddings(const std::string& tenant_id) const {
  TenantPtr tenant = FindTenant(tenant_id);
  return tenant == nullptr ? 0 : tenant->cache.size();
}

size_t EncoderService::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return ring_.size();
}

std::optional<StatusOr<EncodeResponse>> EncoderService::AdmitOrResolve(
    EncodeRequest&& request, std::future<StatusOr<EncodeResponse>>* future) {
  metrics_.requests.Increment();
  const auto t0 = Clock::now();
  // A dead-on-arrival deadline never touches the cache or the ring: the
  // caller has already given up, the cheapest correct answer is "no".
  if (request.deadline <= t0) {
    metrics_.deadline_rejected.Increment();
    return Status::DeadlineExceeded("deadline expired before admission");
  }
  // Tenant routing comes before the cache probe: an unknown tenant id has
  // no cache partition to probe, and must not perturb hit/miss counters.
  TenantPtr tenant = FindTenant(request.tenant_id);
  if (tenant == nullptr) {
    metrics_.tenant_not_found.Increment();
    return UnknownTenant(request.tenant_id);
  }
  tenant->metrics->requests.Increment();
  if (auto hit = tenant->cache.Get(request.sql)) {
    metrics_.cache_hits.Increment();
    tenant->metrics->cache_hits.Increment();
    EncodeResponse response;
    response.embedding = DetachedCopy(*hit);
    response.tenant_id = tenant->id;
    response.cache_hit = true;
    metrics_.hit_latency_us.Observe(ElapsedUs(t0));
    return StatusOr<EncodeResponse>(std::move(response));
  }
  metrics_.cache_misses.Increment();
  tenant->metrics->cache_misses.Increment();
  auto pending = std::make_shared<Pending>();
  pending->sql = std::move(request.sql);
  pending->tenant = tenant;
  pending->deadline = request.deadline;
  pending->client_id = std::move(request.client_id);
  *future = pending->promise.get_future();
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    // A per-tenant reload drain parks this tenant's admissions instead of
    // dropping them: nothing is lost, the swap just gets a quiesced queue.
    // Other tenants sail past. Deadlines keep ticking; a deregistration
    // (closing) wakes the parked waiter to fail fast below.
    if (tenant->draining && !stopping_ && !tenant->closing) {
      metrics_.drain_waiters.Increment();
      auto unparked = [&] {
        return !tenant->draining || tenant->closing || stopping_;
      };
      if (pending->deadline == kNoDeadline) {
        queue_cv_.wait(lock, unparked);
      } else if (!queue_cv_.wait_until(lock, pending->deadline, unparked)) {
        metrics_.deadline_rejected.Increment();
        return Status::DeadlineExceeded("deadline expired during reload drain");
      }
    }
    if (stopping_) {
      metrics_.rejected_on_shutdown.Increment();
      return Status::Unavailable("encoder service is shutting down");
    }
    if (tenant->closing) {
      // Deregistration in progress: admitted work drains, new work is
      // refused exactly as if the tenant were already gone.
      return Status::NotFound("tenant '" + tenant->id +
                              "' is deregistering");
    }
    // Admission control, cheapest check first. Every rejection is
    // kResourceExhausted — distinguishable from malformed SQL (kParseError
    // / kInvalidArgument) and from expired deadlines (kDeadlineExceeded).
    if (ring_.full()) {
      metrics_.shed_queue_full.Increment();
      tenant->metrics->shed.Increment();
      return Status::ResourceExhausted("request ring full");
    }
    if (ring_.size() >= admit_watermark_ && request.priority <= 0) {
      metrics_.shed_low_priority.Increment();
      tenant->metrics->shed.Increment();
      return Status::ResourceExhausted(
          "request ring past high water; slot reserved for priority > 0");
    }
    auto [it, inserted] = queued_per_client_.try_emplace(pending->client_id, 0);
    if (it->second >= per_client_quota_) {
      if (inserted) queued_per_client_.erase(it);
      metrics_.shed_client_quota.Increment();
      tenant->metrics->shed.Increment();
      return Status::ResourceExhausted("client '" + pending->client_id +
                                       "' exceeded its queued-request quota");
    }
    ++it->second;
    ++tenant->queued;
    pending->enqueued_at = Clock::now();
    PREQR_CHECK(ring_.TryPush(pending));
    metrics_.queue_depth.Increment();
  }
  queue_cv_.notify_all();
  return std::nullopt;
}

StatusOr<EncodeResponse> EncoderService::Encode(const EncodeRequest& request) {
  std::future<StatusOr<EncodeResponse>> future;
  EncodeRequest copy = request;
  if (auto resolved = AdmitOrResolve(std::move(copy), &future)) {
    return *std::move(resolved);
  }
  return future.get();
}

std::future<StatusOr<EncodeResponse>> EncoderService::Submit(
    EncodeRequest request) {
  std::future<StatusOr<EncodeResponse>> future;
  if (auto resolved = AdmitOrResolve(std::move(request), &future)) {
    std::promise<StatusOr<EncodeResponse>> ready;
    ready.set_value(*std::move(resolved));
    return ready.get_future();
  }
  return future;
}

StatusOr<nn::Tensor> EncoderService::Encode(const std::string& sql) {
  EncodeRequest request;
  request.sql = sql;
  auto response = Encode(request);
  if (!response.ok()) return response.status();
  return std::move(response.value().embedding);
}

void EncoderService::DispatchLoop() {
  for (;;) {
    // One pop's worth of work, grouped by tenant in first-seen order: each
    // group becomes one single-tenant encoder batch.
    std::vector<std::pair<TenantPtr, std::vector<std::shared_ptr<Pending>>>>
        groups;
    Clock::time_point popped_at;
    size_t popped = 0;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return stopping_ || !ring_.empty(); });
      if (stopping_) {
        // Fail whatever is still queued; nobody blocks on a dead service.
        std::shared_ptr<Pending> p;
        while (ring_.TryPop(&p)) {
          metrics_.queue_depth.Decrement();
          --p->tenant->queued;
          metrics_.rejected_on_shutdown.Increment();
          p->promise.set_value(
              Status::Unavailable("encoder service destroyed"));
        }
        return;
      }
      if (options_.batch_window.count() > 0 &&
          ring_.size() < static_cast<size_t>(options_.max_batch_size)) {
        // Wait for the batch to fill, but never past the earliest queued
        // deadline — an expired request must be dropped, not slept over.
        auto wake = Clock::now() + options_.batch_window;
        for (size_t i = 0; i < ring_.size(); ++i) {
          wake = std::min(wake, ring_.Peek(i)->deadline);
        }
        queue_cv_.wait_until(lock, wake, [&] {
          return stopping_ ||
                 ring_.size() >= static_cast<size_t>(options_.max_batch_size);
        });
        if (stopping_) continue;  // top of loop fails the queue
      }
      popped_at = Clock::now();
      std::shared_ptr<Pending> p;
      while (popped < static_cast<size_t>(options_.max_batch_size) &&
             ring_.TryPop(&p)) {
        metrics_.queue_depth.Decrement();
        --p->tenant->queued;
        auto it = queued_per_client_.find(p->client_id);
        if (it != queued_per_client_.end() && --it->second == 0) {
          queued_per_client_.erase(it);
        }
        // Deadline propagation into the micro-batcher: expired requests
        // are dropped here, before encoding, not discovered afterwards.
        if (p->deadline <= popped_at) {
          metrics_.deadline_dropped.Increment();
          p->promise.set_value(
              Status::DeadlineExceeded("deadline expired while queued"));
          continue;
        }
        ++popped;
        auto group = std::find_if(groups.begin(), groups.end(), [&](auto& g) {
          return g.first == p->tenant;
        });
        if (group == groups.end()) {
          groups.emplace_back(p->tenant,
                              std::vector<std::shared_ptr<Pending>>{});
          group = std::prev(groups.end());
        }
        group->second.push_back(std::move(p));
      }
      if (groups.empty()) {
        if (ring_.empty()) {
          lock.unlock();
          queue_cv_.notify_all();  // a drain may be waiting for empty
        }
        continue;
      }
      // Mark every popped tenant in-flight while still under the lock, so
      // a drain started now waits for these batches too.
      for (auto& [tenant, batch] : groups) ++tenant->inflight;
    }
    for (auto& [tenant, batch] : groups) {
      std::vector<std::string> sqls;
      sqls.reserve(batch.size());
      for (const auto& p : batch) sqls.push_back(p->sql);
      const auto encode_t0 = Clock::now();
      auto results = EncodeLocked(*tenant, sqls);
      const double encode_us = ElapsedUs(encode_t0);
      metrics_.batches.Increment();
      metrics_.batch_size.Observe(static_cast<double>(batch.size()));
      metrics_.batch_occupancy_pct.Observe(
          100.0 * static_cast<double>(batch.size()) /
          static_cast<double>(options_.max_batch_size));
      metrics_.batched_queries.Increment(batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        const double queue_us = ElapsedUs(batch[i]->enqueued_at, popped_at);
        metrics_.queue_latency_us.Observe(queue_us);
        metrics_.encode_latency_us.Observe(ElapsedUs(batch[i]->enqueued_at));
        if (!results[i].ok()) {
          metrics_.errors.Increment();
          tenant->metrics->errors.Increment();
          batch[i]->promise.set_value(results[i].status());
          continue;
        }
        EncodeResponse response;
        response.embedding = std::move(results[i].value());
        response.tenant_id = tenant->id;
        response.cache_hit = false;
        response.queue_us = queue_us;
        response.encode_us = encode_us;
        batch[i]->promise.set_value(std::move(response));
      }
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        --tenant->inflight;
      }
      // Per-tenant drains watch inflight; wake them after every group, not
      // only at the end of the pop, so a reload of tenant A is not held
      // hostage by tenant B's longer batch.
      queue_cv_.notify_all();
    }
  }
}

std::vector<StatusOr<nn::Tensor>> EncoderService::EncodeLocked(
    Tenant& tenant, const std::vector<std::string>& sqls) {
  std::lock_guard<std::mutex> lock(tenant.encode_mu);
  // Serving encodes are pure inference: no tape on this thread regardless
  // of which QueryEncoder implementation sits behind the interface.
  nn::NoGradGuard no_grad;
  // Fallback/occupancy records from inside the encoder land in this
  // service's sink, not the process-global registry — two services (or
  // tenants of one) never interleave counters.
  ScopedEncodePathSink sink_scope(&metrics_.encode_path);
  auto results = tenant.encoder->TryEncodeVectorBatch(sqls, /*train=*/false);
  // Fill the cache while still holding encode_mu, so an InvalidateCache
  // cannot slip between the encode and the insertion and leave stale
  // embeddings behind.
  for (size_t i = 0; i < sqls.size(); ++i) {
    if (results[i].ok()) {
      tenant.cache.Put(sqls[i], DetachedCopy(results[i].value()));
    }
  }
  return results;
}

std::vector<StatusOr<EncodeResponse>> EncoderService::EncodeBatch(
    const std::vector<EncodeRequest>& requests) {
  // Degenerate empty batch: nothing to do, and no latency observation —
  // an empty request must not skew the per-query histograms.
  if (requests.empty()) return {};
  metrics_.requests.Increment(requests.size());
  const auto t0 = Clock::now();
  const size_t n = requests.size();
  // Expired/unroutable slots fail up front; live hits resolve locally; the
  // distinct live misses form one encoder batch per tenant.
  struct TenantGroup {
    TenantPtr tenant;
    std::vector<std::string> sqls;
    std::unordered_map<std::string, int> index;
    std::vector<StatusOr<nn::Tensor>> results;
    double encode_us = 0.0;
    // Set when the group could not run at all (tenant closing/shutdown).
    std::optional<Status> refused;
  };
  std::vector<TenantGroup> groups;
  std::unordered_map<std::string, size_t> group_of_tenant;
  std::vector<std::optional<Status>> failed(n);
  std::vector<std::optional<nn::Tensor>> hit(n);
  std::vector<std::string> slot_tenant(n);
  std::vector<int> group_of(n, -1);
  std::vector<int> miss_of(n, -1);
  for (size_t i = 0; i < n; ++i) {
    if (requests[i].deadline <= t0) {
      metrics_.deadline_rejected.Increment();
      failed[i] = Status::DeadlineExceeded("deadline expired before admission");
      continue;
    }
    // Tenant routing before the cache probe, exactly as in AdmitOrResolve.
    auto [git, ginserted] =
        group_of_tenant.try_emplace(requests[i].tenant_id, groups.size());
    if (ginserted) {
      groups.push_back(TenantGroup{});
      groups.back().tenant = FindTenant(requests[i].tenant_id);
    }
    TenantGroup& group = groups[git->second];
    if (group.tenant == nullptr) {
      metrics_.tenant_not_found.Increment();
      failed[i] = UnknownTenant(requests[i].tenant_id);
      continue;
    }
    group.tenant->metrics->requests.Increment();
    slot_tenant[i] = group.tenant->id;
    if (auto h = group.tenant->cache.Get(requests[i].sql)) {
      metrics_.cache_hits.Increment();
      group.tenant->metrics->cache_hits.Increment();
      hit[i] = std::move(h);
      continue;
    }
    metrics_.cache_misses.Increment();
    group.tenant->metrics->cache_misses.Increment();
    auto [it, inserted] = group.index.emplace(
        requests[i].sql, static_cast<int>(group.sqls.size()));
    if (inserted) group.sqls.push_back(requests[i].sql);
    group_of[i] = static_cast<int>(git->second);
    miss_of[i] = it->second;
  }
  bool encoded_any = false;
  for (auto& group : groups) {
    if (group.tenant == nullptr || group.sqls.empty()) continue;
    {
      // The sync path bypasses the ring but not the drain accounting: a
      // per-tenant deregistration must be able to wait this batch out, and
      // must refuse batches that arrive after it started closing.
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (stopping_) {
        group.refused =
            Status::Unavailable("encoder service is shutting down");
        continue;
      }
      if (group.tenant->closing) {
        group.refused = Status::NotFound("tenant '" + group.tenant->id +
                                         "' is deregistering");
        continue;
      }
      ++group.tenant->inflight;
    }
    const auto encode_t0 = Clock::now();
    group.results = EncodeLocked(*group.tenant, group.sqls);
    group.encode_us = ElapsedUs(encode_t0);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --group.tenant->inflight;
    }
    queue_cv_.notify_all();
    encoded_any = true;
    metrics_.batches.Increment();
    metrics_.batch_size.Observe(static_cast<double>(group.sqls.size()));
    metrics_.batched_queries.Increment(group.sqls.size());
  }
  std::vector<StatusOr<EncodeResponse>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (failed[i]) {
      out.push_back(*failed[i]);
      continue;
    }
    EncodeResponse response;
    response.tenant_id = slot_tenant[i];
    if (hit[i]) {
      response.embedding = DetachedCopy(*hit[i]);
      response.cache_hit = true;
      out.push_back(std::move(response));
      continue;
    }
    TenantGroup& group = groups[static_cast<size_t>(group_of[i])];
    if (group.refused) {
      out.push_back(*group.refused);
      continue;
    }
    const auto& r = group.results[static_cast<size_t>(miss_of[i])];
    if (r.ok()) {
      response.embedding = DetachedCopy(r.value());
      response.encode_us = group.encode_us;
      out.push_back(std::move(response));
    } else {
      metrics_.errors.Increment();
      group.tenant->metrics->errors.Increment();
      out.push_back(r.status());
    }
  }
  const double per_query_us = ElapsedUs(t0) / static_cast<double>(n);
  if (encoded_any) {
    metrics_.encode_latency_us.Observe(per_query_us);
  } else {
    metrics_.hit_latency_us.Observe(per_query_us);
  }
  return out;
}

std::vector<StatusOr<nn::Tensor>> EncoderService::EncodeBatch(
    const std::vector<std::string>& sqls) {
  std::vector<EncodeRequest> requests(sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) requests[i].sql = sqls[i];
  auto responses = EncodeBatch(requests);
  std::vector<StatusOr<nn::Tensor>> out;
  out.reserve(responses.size());
  for (auto& r : responses) {
    if (r.ok()) {
      out.push_back(std::move(r.value().embedding));
    } else {
      out.push_back(r.status());
    }
  }
  return out;
}

void EncoderService::AttachModel(nn::Module* model) {
  TenantPtr tenant = FindTenant(kDefaultTenantId);
  PREQR_CHECK(tenant != nullptr);
  std::lock_guard<std::mutex> lock(tenant->encode_mu);
  tenant->model = model;
  // The attached module may not be the weights the encoder was built
  // against; dropping the encoder's memoized state keeps it consistent
  // with whatever is now behind it.
  tenant->encoder->InvalidateCache();
}

Status EncoderService::AttachModel(const std::string& tenant_id,
                                   nn::Module* model) {
  TenantPtr tenant = FindTenant(tenant_id);
  if (tenant == nullptr) return UnknownTenant(tenant_id);
  std::lock_guard<std::mutex> lock(tenant->encode_mu);
  tenant->model = model;
  tenant->encoder->InvalidateCache();
  return Status::Ok();
}

Status EncoderService::ReloadModel(const std::string& path) {
  return ReloadModel(kDefaultTenantId, path);
}

Status EncoderService::ReloadModel(const std::string& tenant_id,
                                   const std::string& path) {
  TenantPtr tenant = FindTenant(tenant_id);
  if (tenant == nullptr) return UnknownTenant(tenant_id);
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    // One drain per tenant at a time; later reloads queue behind the
    // current one. Other tenants' drains proceed independently.
    queue_cv_.wait(lock, [&] { return !tenant->draining || stopping_; });
    if (stopping_) return Status::Unavailable("encoder service destroyed");
    if (tenant->closing) {
      return Status::NotFound("tenant '" + tenant->id +
                              "' is deregistering");
    }
    tenant->draining = true;
    // Everything this tenant already admitted is waited out, not dropped:
    // the counter records how much in-flight work each reload had to let
    // finish. Other tenants keep flowing throughout.
    metrics_.drained_requests.Increment(tenant->queued);
    tenant->metrics->drained_requests.Increment(tenant->queued);
    queue_cv_.wait(lock, [&] {
      return (tenant->queued == 0 && tenant->inflight == 0) || stopping_;
    });
  }
  Status s;
  {
    // This tenant's queue is quiesced and its admissions are parked; the
    // encode mutex still guards against the synchronous EncodeBatch path,
    // so no batch ever sees half-new weights and no stale result can be
    // cached after the swap. The model check lives here too: taking
    // encode_mu before the drain would deadlock against a dispatcher
    // mid-encode on this tenant.
    std::lock_guard<std::mutex> lock(tenant->encode_mu);
    if (tenant->model == nullptr) {
      s = Status::InvalidArgument("ReloadModel requires AttachModel before use");
    } else {
      s = nn::LoadModule(*tenant->model, path);
      if (s.ok()) {
        metrics_.invalidated_embeddings.Increment(tenant->cache.size());
        tenant->cache.Clear();
        tenant->encoder->InvalidateCache();
        metrics_.invalidations.Increment();
        metrics_.reloads.Increment();
        tenant->metrics->reloads.Increment();
      } else {
        // LoadModule is transactional: the weights are untouched, so the
        // cached embeddings are still correct — keep serving them.
        metrics_.reload_failures.Increment();
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    tenant->draining = false;
  }
  queue_cv_.notify_all();
  return s;
}

void EncoderService::InvalidateCache() {
  std::vector<TenantPtr> tenants;
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    tenants.reserve(tenants_.size());
    for (const auto& [id, tenant] : tenants_) tenants.push_back(tenant);
  }
  for (const auto& tenant : tenants) {
    // Taking encode_mu waits out any in-flight batch of this tenant, and
    // EncodeLocked inserts before releasing it — so after Clear nothing
    // stale can appear.
    std::lock_guard<std::mutex> lock(tenant->encode_mu);
    metrics_.invalidated_embeddings.Increment(tenant->cache.size());
    tenant->cache.Clear();
    tenant->encoder->InvalidateCache();
  }
  metrics_.invalidations.Increment();
}

Status EncoderService::InvalidateCache(const std::string& tenant_id) {
  TenantPtr tenant = FindTenant(tenant_id);
  if (tenant == nullptr) return UnknownTenant(tenant_id);
  std::lock_guard<std::mutex> lock(tenant->encode_mu);
  metrics_.invalidated_embeddings.Increment(tenant->cache.size());
  tenant->cache.Clear();
  tenant->encoder->InvalidateCache();
  metrics_.invalidations.Increment();
  return Status::Ok();
}

}  // namespace preqr::serving
