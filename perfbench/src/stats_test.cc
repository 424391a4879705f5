// Tests of the benchmark's own statistics: tail-percentile selection, the
// latency histogram, medians, self time and metric-name validity. The
// quartiles and spread of steadiness.py are tested by test_steadiness.py.
//
//   cmake --build <build dir> --target perfbench_stats_test && ctest
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

bool Near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

using perfbench::Interval;
using perfbench::LatencyHistogram;

LatencyHistogram FromNs(const std::vector<int64_t>& ns) {
  LatencyHistogram h;
  for (int64_t v : ns) h.Record(v);
  return h;
}

void TailNeedsTenBeyond() {
  // 100 samples of 1..100 ns; exact region, so sample v sits mid-bucket at
  // v + 0.5 ns. p90 interpolates at rank 89.1 and leaves ten samples beyond.
  std::vector<int64_t> ns;
  for (int i = 100; i >= 1; --i) ns.push_back(i);
  const LatencyHistogram h = FromNs(ns);
  const auto t = perfbench::SelectTail(h, 90.0);
  EXPECT(t.ok);
  EXPECT(t.samples == 100 && t.beyond == 10);
  EXPECT(Near(t.percentile, 90.0));
  EXPECT(Near(t.value, 90.6 / 1e3, 1e-12));
  // One step further leaves only nine beyond: not supported.
  const auto t91 = perfbench::SelectTail(h, 91.0);
  EXPECT(!t91.ok && t91.beyond == 9);
  // The minimum is a parameter; p99 of 100 samples has one beyond.
  EXPECT(perfbench::SelectTail(h, 99.0, 1).ok);
  EXPECT(!perfbench::SelectTail(h, 99.0).ok);
  // Ten samples cannot leave ten beyond any percentile.
  const auto ten =
      perfbench::SelectTail(FromNs({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 0.0);
  EXPECT(!ten.ok && ten.samples == 10 && ten.beyond == 9);
  const auto none = perfbench::SelectTail(LatencyHistogram(), 50.0);
  EXPECT(!none.ok && none.samples == 0);
}

void HistogramQuantilesTrackSamples() {
  // Above the exact region the relative error stays within a bucket.
  LatencyHistogram h;
  for (int i = 1; i <= 10001; ++i) h.Record(int64_t{1000} * i);  // 1..10001 us
  EXPECT(h.count() == 10001);
  EXPECT(std::fabs(h.QuantileUs(0.5) - 5001.0) / 5001.0 < 2e-3);
  EXPECT(std::fabs(h.QuantileUs(0.0) - 1.0) / 1.0 < 2e-3);
  EXPECT(std::fabs(h.QuantileUs(1.0) - 10001.0) / 10001.0 < 2e-3);
  // Merging is the same as recording into one histogram.
  LatencyHistogram a = FromNs({10, 20}), b = FromNs({30});
  a.Merge(b);
  EXPECT(a.count() == 3 && Near(a.QuantileUs(0.5), 20.5 / 1e3));
  EXPECT(LatencyHistogram().QuantileUs(0.5) == 0.0);
}

void MedianOfUnsortedSample() {
  EXPECT(Near(perfbench::Median({4, 1, 3, 2}), 2.5));
  EXPECT(Near(perfbench::Median({5, 1, 3}), 3.0));
  EXPECT(perfbench::Median({}) == 0.0);
}

void SelfTimeIsNeverNegative() {
  using perfbench::SelfTime;
  EXPECT(SelfTime({0, 100}, {}) == 100);
  EXPECT(SelfTime({0, 100}, {{10, 20}, {30, 50}}) == 70);
  // Overlapping children are counted once.
  EXPECT(SelfTime({0, 100}, {{10, 60}, {40, 70}}) == 40);
  // Children sticking out of the parent only count inside it.
  EXPECT(SelfTime({0, 100}, {{-50, 10}, {90, 300}}) == 80);
  // Children covering everything (or more) leave zero, never less.
  EXPECT(SelfTime({0, 100}, {{0, 100}, {0, 100}}) == 0);
  EXPECT(SelfTime({0, 100}, {{-10, 200}}) == 0);
  EXPECT(SelfTime({50, 40}, {}) == 0);
}

void MetricNamesFollowTheContract() {
  using perfbench::ValidMetricName;
  using perfbench::ValidUnit;
  EXPECT(ValidMetricName("p50_us"));
  EXPECT(ValidMetricName("serving.wire_overhead_us"));
  EXPECT(ValidMetricName("9lives-1.x"));
  EXPECT(!ValidMetricName(""));
  EXPECT(!ValidMetricName("_leading"));
  EXPECT(!ValidMetricName(".leading"));
  EXPECT(!ValidMetricName("has space"));
  EXPECT(!ValidMetricName("slash/no"));
  EXPECT(ValidMetricName(std::string(64, 'a')));
  EXPECT(!ValidMetricName(std::string(65, 'a')));
  EXPECT(ValidUnit("1/s") && ValidUnit("us") && ValidUnit("%") &&
         ValidUnit("MB"));
  EXPECT(!ValidUnit("") && !ValidUnit("per second") &&
         !ValidUnit(std::string(17, 'x')));
}

void ResultLineRejectsBadMetrics() {
  perfbench::RunResult r;
  r.attempted = 3;
  r.Add("ops_per_s", 12.5, "1/s");
  std::string line, error;
  EXPECT(perfbench::FormatResult(r, &line, &error));
  EXPECT(line ==
         "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
         "{\"ops_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}}}");
  r.Add("ops_per_s", 1, "1/s");
  EXPECT(!perfbench::FormatResult(r, &line, &error));
  perfbench::RunResult bad;
  bad.Add("x", std::nan(""), "us");
  EXPECT(!perfbench::FormatResult(bad, &line, &error));
  perfbench::RunResult bad_name;
  bad_name.Add("bad name", 1, "us");
  EXPECT(!perfbench::FormatResult(bad_name, &line, &error));
}

}  // namespace

int main() {
  TailNeedsTenBeyond();
  HistogramQuantilesTrackSamples();
  MedianOfUnsortedSample();
  SelfTimeIsNeverNegative();
  MetricNamesFollowTheContract();
  ResultLineRejectsBadMetrics();
  if (failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench stats tests passed\n");
  return 0;
}
