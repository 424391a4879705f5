#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

namespace {
constexpr uint64_t kLinear = 2048;  // exact region, one bucket per ns
constexpr int kSubBits = 10;        // 1024 sub-buckets per power of two
constexpr size_t kBuckets = kLinear + (64 - 11) * (size_t{1} << kSubBits);
}  // namespace

LatencyHistogram::LatencyHistogram() : counts_(kBuckets, 0) {}

size_t LatencyHistogram::Bucket(uint64_t ns) {
  if (ns < kLinear) return static_cast<size_t>(ns);
  const int top = 63 - __builtin_clzll(ns);  // >= 11
  const int shift = top - kSubBits;
  const uint64_t sub = (ns >> shift) - (uint64_t{1} << kSubBits);
  return kLinear + static_cast<size_t>(top - 11) * (size_t{1} << kSubBits) +
         static_cast<size_t>(sub);
}

void LatencyHistogram::Bounds(size_t bucket, double* lo, double* hi) {
  if (bucket < kLinear) {
    *lo = static_cast<double>(bucket);
    *hi = *lo + 1.0;
    return;
  }
  const size_t k = bucket - kLinear;
  const int top = 11 + static_cast<int>(k >> kSubBits);
  const uint64_t sub = k & ((size_t{1} << kSubBits) - 1);
  const int shift = top - kSubBits;
  *lo = std::ldexp(static_cast<double>((uint64_t{1} << kSubBits) + sub), shift);
  *hi = *lo + std::ldexp(1.0, shift);
}

void LatencyHistogram::Record(int64_t ns) {
  ++counts_[Bucket(static_cast<uint64_t>(std::max<int64_t>(0, ns)))];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double LatencyHistogram::ValueAtRankUs(uint64_t r) const {
  if (count_ == 0) return 0.0;
  r = std::min(r, count_ - 1);
  uint64_t before = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (counts_[b] == 0) continue;
    if (r < before + counts_[b]) {
      double lo, hi;
      Bounds(b, &lo, &hi);
      // Samples spread evenly over [lo, hi): the i-th of c sits at
      // lo + (i + 0.5) / c of the width.
      const double frac = (static_cast<double>(r - before) + 0.5) /
                          static_cast<double>(counts_[b]);
      return (lo + (hi - lo) * frac) / 1e3;
    }
    before += counts_[b];
  }
  return 0.0;
}

double LatencyHistogram::QuantileUs(double q) const {
  if (count_ == 0) return 0.0;
  const double rank =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
  const uint64_t lo = static_cast<uint64_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  const double a = ValueAtRankUs(lo);
  return frac == 0.0 ? a : a + (ValueAtRankUs(lo + 1) - a) * frac;
}

Tail SelectTail(const LatencyHistogram& h, double percentile,
                uint64_t min_beyond) {
  Tail t;
  t.samples = h.count();
  t.percentile = percentile;
  if (h.count() == 0) return t;
  const double q = percentile / 100.0;
  t.value = h.QuantileUs(q);
  // Samples strictly above the (interpolated) rank q * (n - 1).
  const uint64_t floor_rank =
      static_cast<uint64_t>(q * static_cast<double>(h.count() - 1));
  t.beyond = h.count() - 1 - floor_rank;
  t.ok = t.beyond >= min_beyond;
  return t;
}

int64_t SelfTime(const Interval& parent, std::vector<Interval> children) {
  const int64_t total = std::max<int64_t>(0, parent.end - parent.start);
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t covered = 0;
  int64_t cursor = parent.start;
  for (const Interval& c : children) {
    const int64_t s = std::max(c.start, cursor);
    const int64_t e = std::min(c.end, parent.end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return std::max<int64_t>(0, total - covered);
}

namespace {

bool AllowedChars(const std::string& s, const char* extra) {
  for (char c : s) {
    const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9');
    bool ok = alnum;
    for (const char* e = extra; !ok && *e != '\0'; ++e) ok = (c == *e);
    if (!ok) return false;
  }
  return true;
}

}  // namespace

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const char c = name[0];
  const bool alnum_start = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                           (c >= '0' && c <= '9');
  return alnum_start && AllowedChars(name, "_.-");
}

bool ValidUnit(const std::string& unit) {
  return !unit.empty() && unit.size() <= 16 && AllowedChars(unit, "_/%.-");
}

bool FormatResult(const RunResult& result, std::string* line,
                  std::string* error) {
  std::set<std::string> seen;
  std::string metrics;
  for (const Metric& m : result.metrics) {
    if (!ValidMetricName(m.name)) {
      *error = "invalid metric name: " + m.name;
      return false;
    }
    if (!ValidUnit(m.unit)) {
      *error = "invalid unit for " + m.name + ": " + m.unit;
      return false;
    }
    if (!seen.insert(m.name).second) {
      *error = "duplicate metric: " + m.name;
      return false;
    }
    if (!std::isfinite(m.value)) {
      *error = "non-finite value for " + m.name;
      return false;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    metrics += buf;
  }
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
  *line = std::string(head) + "\"metrics\": {" + metrics + "}}";
  return true;
}

}  // namespace perfbench
