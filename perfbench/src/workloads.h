#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "stack.h"
#include "stats.h"

namespace perfbench {

// Each workload builds its inputs from args.seed, sets the program up,
// measures for args.seconds, checks every answer, and fills `out`. With
// args.trace the measured loop records spans and the run reports the
// per-layer metrics instead of the end-to-end ones.
void RunServe(const Args& args, bool hit, RunResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
