// PreQR benchmark: one workload per process.
//
//   perfbench --workload <serve_miss|serve_hit> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints notes, then as its last line one JSON object with correct,
// attempted, failed and metrics (end-to-end with --trace 0, per-layer with
// --trace 1). Exits non-zero on bad arguments or an unprintable result.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "nn/kernels_dispatch.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a->trace = val == "1";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload serve_miss|serve_hit "
                 "--seed N --seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  perfbench::RunResult result;
  if (args.workload == "serve_miss" || args.workload == "serve_hit") {
    perfbench::RunServe(args, args.workload == "serve_hit", &result);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("kernel_impl %s, nproc %u, pool threads %d\n",
              preqr::nn::kernels::ActiveImplName(),
              std::thread::hardware_concurrency(),
              preqr::ThreadPool::Global().num_threads());
  for (const auto& note : result.notes) std::printf("%s\n", note.c_str());
  std::string line, error;
  if (!perfbench::FormatResult(result, &line, &error)) {
    std::fprintf(stderr, "cannot print result: %s\n", error.c_str());
    return 1;
  }
  std::printf("%s\n", line.c_str());
  return 0;
}
