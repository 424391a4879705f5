#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory spans recorded around the benchmark's own calls into each
// layer. A span has a name, start, end, parent and request id; spans of one
// op share the request id. One Tracer per thread; nothing is written out
// until the run ends.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  int64_t start = 0;
  int64_t end = 0;
  int parent = -1;  // index into the same tracer's spans, -1 = root
  uint64_t request = 0;
};

class Tracer {
 public:
  // Opens a span under the innermost open span; returns its index.
  int Begin(const char* name, uint64_t request) {
    spans_.push_back({name, NowNs(), 0, open_.empty() ? -1 : open_.back(),
                      request});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int id) {
    spans_[static_cast<size_t>(id)].end = NowNs();
    open_.pop_back();
  }

  // Durations (us) of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  // Self times (us) of every span called `name`: duration minus the time
  // its direct children cover.
  std::vector<double> SelfUs(const std::string& name) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request = 0)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
