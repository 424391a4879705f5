#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// The traced run's per-layer metrics. Each layer's public functions are
// called from the benchmark's own code, inside spans, on inputs derived
// from the workload's own SQL, so every per-layer metric exists on every
// workload. The serving counters come from the workload's own traced loop.

#include <cstdint>
#include <string>
#include <vector>

#include "db/database.h"
#include "serving/encoder_service.h"
#include "stack.h"
#include "stats.h"

namespace perfbench {

// Counter snapshot of one EncoderService.
struct ServingCounters {
  uint64_t requests = 0, hits = 0, shed = 0, batches = 0, batched = 0;
  static ServingCounters Of(const preqr::serving::ServingMetrics& m);
  ServingCounters Minus(const ServingCounters& before) const;
};

// What the workload's traced loop contributes to the per-layer metrics.
struct LoopTrace {
  double op_p50_us = 0;           // median traced op span
  ServingCounters serving_delta;  // EncoderService counters over the loop
};

// Adds every per-layer metric. `stream` is the workload's own SQL.
void AddLayerMetrics(const db::Database& db, const FixedInputs& fixed,
                     uint64_t seed, const VariantStream& stream,
                     const LoopTrace& loop, RunResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
