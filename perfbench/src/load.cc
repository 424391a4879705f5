#include "load.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <latch>
#include <thread>

#include "common/check.h"
#include "common/rng.h"
#include "serving/client.h"
#include "tasks/preqr_encoder.h"
#include "trace.h"

namespace perfbench {

namespace {

struct ThreadOut {
  uint64_t attempted = 0, errors = 0;
  LatencyHistogram latency;
  std::vector<double> queue_us, encode_us;
  std::vector<uint32_t> index;
  std::vector<uint64_t> hash;
  std::vector<ReplyTally> tally;
  Tracer tracer;
};

void Tally(ReplyTally* t, uint64_t h) {
  if (t->count_a == 0 || t->hash_a == h) {
    t->hash_a = h;
    ++t->count_a;
  } else if (t->count_b == 0 || t->hash_b == h) {
    t->hash_b = h;
    ++t->count_b;
  } else {
    ++t->count_other;
  }
}

// 64-bit FNV-1a over the bytes of `n` floats.
uint64_t HashFloats(const float* data, size_t n) {
  uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

// Reference hashes for the given SQL indices; unencodable SQL hashes to 0.
std::vector<uint64_t> ReferenceHashes(const db::Database& db,
                                      const FixedInputs& fixed,
                                      const LoadSpec& spec,
                                      const std::vector<uint32_t>& indices) {
  std::vector<uint64_t> out(indices.size(), 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kConnections; ++t) {
    threads.emplace_back([&, t] {
      auto tenant = MakeTenant(db, fixed);
      for (size_t i = static_cast<size_t>(t); i < indices.size();
           i += kConnections) {
        auto v = tenant->encoder()->TryEncodeVector(spec.Sql(indices[i]),
                                                    false);
        if (v.ok()) {
          out[i] = HashFloats(v.value().data(),
                              static_cast<size_t>(v.value().size()));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  return out;
}

}  // namespace

LoadResult RunLoad(const LoadSpec& spec) {
  const bool mix = spec.mix_cdf != nullptr;
  PREQR_CHECK_MSG(mix == (spec.stream == nullptr) &&
                      (spec.seconds > 0 || spec.max_ops > 0),
                  "load needs one SQL source and a time or op bound");
  std::vector<ThreadOut> outs(kConnections);
  std::atomic<uint64_t> cursor{0};
  std::latch connected(kConnections + 1);
  std::latch go(1);
  const uint64_t limit = spec.max_ops ? spec.max_ops : UINT64_MAX;
  int64_t deadline = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < kConnections; ++t) {
    threads.emplace_back([&, t] {
      ThreadOut& o = outs[static_cast<size_t>(t)];
      if (mix) o.tally.assign(spec.sqls->size(), ReplyTally{});
      preqr::serving::EncodeClient client;
      const auto st = client.Connect(spec.port);
      PREQR_CHECK_MSG(st.ok(), "load client cannot connect");
      preqr::Rng rng(spec.seed * 7919 + static_cast<uint64_t>(t));
      connected.count_down();
      go.wait();
      while (true) {
        const uint64_t n = cursor.fetch_add(1, std::memory_order_relaxed);
        if (n >= limit) break;
        size_t idx;
        if (mix) {
          const double u = rng.NextDouble();
          idx = static_cast<size_t>(
              std::upper_bound(spec.mix_cdf->begin(), spec.mix_cdf->end(), u) -
              spec.mix_cdf->begin());
          idx = std::min(idx, spec.sqls->size() - 1);
        } else {
          idx = static_cast<size_t>(n);
        }
        std::string owned;
        const std::string& sql =
            mix ? (*spec.sqls)[idx] : (owned = spec.Sql(idx));
        const int64_t t0 = NowNs();
        auto reply = [&] {
          ScopedSpan span(spec.trace ? &o.tracer : nullptr, "serve.op", n);
          return client.Encode(sql);
        }();
        const int64_t t1 = NowNs();
        ++o.attempted;
        o.latency.Record(t1 - t0);
        if (!reply.ok()) {
          ++o.errors;
        } else {
          const auto& r = reply.value();
          const uint64_t h = HashFloats(r.embedding.data(), r.embedding.size());
          if (!r.cache_hit) {
            o.queue_us.push_back(r.queue_us);
            o.encode_us.push_back(r.encode_us);
          }
          if (mix) {
            Tally(&o.tally[idx], h);
          } else {
            o.index.push_back(static_cast<uint32_t>(idx));
            o.hash.push_back(h);
          }
        }
        if (deadline != 0 && t1 >= deadline) break;
      }
    });
  }
  connected.arrive_and_wait();
  const int64_t start = NowNs();
  if (spec.seconds > 0) {
    deadline = start + static_cast<int64_t>(spec.seconds * 1e9);
  }
  go.count_down();
  for (auto& th : threads) th.join();
  LoadResult res;
  res.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  for (ThreadOut& o : outs) {
    res.attempted += o.attempted;
    res.errors += o.errors;
    res.latency.Merge(o.latency);
    res.queue_us.insert(res.queue_us.end(), o.queue_us.begin(),
                        o.queue_us.end());
    res.encode_us.insert(res.encode_us.end(), o.encode_us.begin(),
                         o.encode_us.end());
    res.index.insert(res.index.end(), o.index.begin(), o.index.end());
    res.hash.insert(res.hash.end(), o.hash.begin(), o.hash.end());
    if (mix) res.tallies.push_back(std::move(o.tally));
    const auto spans = o.tracer.DurationsUs("serve.op");
    res.op_span_us.insert(res.op_span_us.end(), spans.begin(), spans.end());
  }
  return res;
}

uint64_t CountWrongReplies(const db::Database& db, const FixedInputs& fixed,
                           const LoadSpec& spec, const LoadResult& load) {
  uint64_t wrong = 0;
  if (load.tallies.empty()) {
    const auto ref = ReferenceHashes(db, fixed, spec, load.index);
    for (size_t i = 0; i < ref.size(); ++i) wrong += ref[i] != load.hash[i];
    return wrong;
  }
  std::vector<uint32_t> seen;
  for (uint32_t i = 0; i < spec.sqls->size(); ++i) {
    for (const auto& per_thread : load.tallies) {
      if (per_thread[i].count_a > 0) {
        seen.push_back(i);
        break;
      }
    }
  }
  const auto ref = ReferenceHashes(db, fixed, spec, seen);
  for (size_t k = 0; k < seen.size(); ++k) {
    for (const auto& per_thread : load.tallies) {
      const ReplyTally& t = per_thread[seen[k]];
      wrong += (t.hash_a != ref[k] ? t.count_a : 0) +
               (t.hash_b != ref[k] ? t.count_b : 0) + t.count_other;
    }
  }
  return wrong;
}

std::vector<double> ZipfCdf(size_t n, double s) {
  std::vector<double> cdf(n);
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

}  // namespace perfbench
