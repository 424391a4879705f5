#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Statistics the benchmark reports: quantiles, the tail percentile, span
// self time, and the result line the runner parses.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Median of a sample (copied and sorted); 0 for an empty one.
double Median(std::vector<double> values);

// Latency histogram in nanoseconds with fixed memory: exact below 2048 ns,
// then 1024 sub-buckets per power of two (relative width <= 1/1024). Its
// size does not grow with the number of samples, so a faster program does
// not raise the process's peak memory.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Record(int64_t ns);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  // Value (us) at 0-based rank r of the ascending sample, interpolated
  // linearly inside its bucket by rank.
  double ValueAtRankUs(uint64_t r) const;
  // Linear-interpolated quantile (q in [0, 1]) of the samples.
  double QuantileUs(double q) const;

 private:
  static size_t Bucket(uint64_t ns);
  static void Bounds(size_t bucket, double* lo, double* hi);
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
};

// The tail at a fixed percentile, with the sample count and the number of
// samples beyond it. `ok` is false when fewer than `min_beyond` samples lie
// beyond it, i.e. the sample cannot support that percentile.
struct Tail {
  bool ok = false;
  double value = 0;
  double percentile = 0;
  uint64_t samples = 0;
  uint64_t beyond = 0;
};
Tail SelectTail(const LatencyHistogram& h, double percentile,
                uint64_t min_beyond = 10);

// A span's duration minus the part of [start, end) its children cover.
// Children may overlap each other or stick out of the parent; only the
// covered part of the parent's own interval counts, so the result is never
// negative.
struct Interval {
  int64_t start = 0, end = 0;
};
int64_t SelfTime(const Interval& parent, std::vector<Interval> children);

// Metric names are 1-64 letters, digits, '_', '.', '-' and start with a
// letter or digit; units are 1-16 letters, digits, '_', '/', '%', '.', '-'.
bool ValidMetricName(const std::string& name);
bool ValidUnit(const std::string& unit);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one run reports. `notes` are human-readable lines printed before the
// result line (metadata, tail percentile and sample count, host probe).
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

// The result line: one JSON object with exactly correct, attempted, failed
// and metrics. Fails (returns false, `error` set) on an invalid name or
// unit, a duplicate name or a non-finite value.
bool FormatResult(const RunResult& result, std::string* line,
                  std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
