#include "trace.h"

namespace perfbench {

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end - s.start) / 1e3);
    }
  }
  return out;
}

std::vector<double> Tracer::SelfUs(const std::string& name) const {
  std::vector<std::vector<Interval>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back({s.start, s.end});
    }
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    const int64_t self =
        SelfTime({spans_[i].start, spans_[i].end}, std::move(children[i]));
    out.push_back(static_cast<double>(self) / 1e3);
  }
  return out;
}

}  // namespace perfbench
