#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

// Closed-loop wire load: kConnections client threads, each with its own
// EncodeClient, send one request and wait for its reply before the next.

#include <cstdint>
#include <string>
#include <vector>

#include "stack.h"

namespace perfbench {

struct LoadSpec {
  int port = 0;
  // Exactly one of the two sources is set.
  // Send-once: op n sends stream->At(first + n), so every op's SQL is new.
  const VariantStream* stream = nullptr;
  uint64_t first = 0;
  // Mix: each thread draws indices into `sqls` from this cumulative
  // distribution.
  const std::vector<std::string>* sqls = nullptr;
  const std::vector<double>* mix_cdf = nullptr;
  double seconds = 0;     // time bound; 0 = stop at max_ops
  uint64_t max_ops = 0;   // op bound across threads; 0 = none
  uint64_t seed = 1;
  bool trace = false;  // record a span around every request

  // The SQL an op with this index sends.
  std::string Sql(uint64_t index) const {
    return stream != nullptr ? stream->At(first + index) : (*sqls)[index];
  }
};

// Replies to one SQL index seen by one thread: the first two distinct
// reply hashes with their counts, and the count of any further ones.
struct ReplyTally {
  uint64_t hash_a = 0, hash_b = 0;
  uint64_t count_a = 0, count_b = 0, count_other = 0;
};

struct LoadResult {
  double elapsed_s = 0;
  uint64_t attempted = 0;
  uint64_t errors = 0;  // non-ok replies
  LatencyHistogram latency;
  std::vector<double> queue_us, encode_us;  // program-reported, per miss
  std::vector<double> op_span_us;           // traced runs only
  // Send-once mode: the index and reply hash of every ok op.
  std::vector<uint32_t> index;
  std::vector<uint64_t> hash;
  // Mix mode: per thread, per SQL index.
  std::vector<std::vector<ReplyTally>> tallies;
};

LoadResult RunLoad(const LoadSpec& spec);

// Ops of `load`, run from `spec`, whose reply differs bitwise from
// TryEncodeVector(sql, false) on separate encoders (one tenant per thread,
// kConnections threads).
uint64_t CountWrongReplies(const db::Database& db, const FixedInputs& fixed,
                           const LoadSpec& spec, const LoadResult& load);

// Cumulative Zipf(s) distribution over n ranks.
std::vector<double> ZipfCdf(size_t n, double s);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
