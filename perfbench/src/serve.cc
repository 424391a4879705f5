// serve_miss and serve_hit: kConnections loopback connections
// (EncodeClient -> EncodeServer -> EncoderService -> PreqrEncoder) in a
// closed loop. serve_miss sends every SQL once, so the embedding cache
// never hits and the model path does the work; serve_hit sends a Zipf mix
// over a corpus that was warmed into the cache during set-up, so only the
// serving layer works.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/check.h"
#include "layers.h"
#include "load.h"
#include "serving/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kBaseQueries = 64;
constexpr size_t kHotCorpus = 1024;  // fits the default 4096-entry cache
constexpr double kZipfS = 1.0;

struct ServeStack {
  std::unique_ptr<preqr::serving::TenantContext> tenant;
  std::unique_ptr<preqr::serving::EncoderService> service;
  std::unique_ptr<preqr::serving::EncodeServer> server;
};

std::unique_ptr<ServeStack> BuildServeStack(
    const db::Database& db, const FixedInputs& fixed,
    const std::vector<std::string>* warm) {
  auto s = std::make_unique<ServeStack>();
  s->tenant = MakeTenant(db, fixed);
  s->service =
      std::make_unique<preqr::serving::EncoderService>(s->tenant->encoder());
  s->server = std::make_unique<preqr::serving::EncodeServer>(s->service.get());
  PREQR_CHECK_MSG(s->server->Start().ok(), "server start failed");
  if (warm != nullptr) {
    for (size_t i = 0; i < warm->size(); i += 64) {
      const std::vector<std::string> chunk(
          warm->begin() + static_cast<long>(i),
          warm->begin() + static_cast<long>(std::min(warm->size(), i + 64)));
      for (const auto& r : s->service->EncodeBatch(chunk)) {
        PREQR_CHECK_MSG(r.ok(), "cache warm-up failed");
      }
    }
  }
  return s;
}

}  // namespace

void RunServe(const Args& args, bool hit, RunResult* out) {
  // Inputs: literal variants of generated single- to three-table queries,
  // computed as the load asks for them; serve_hit's corpus is the first
  // kHotCorpus of them.
  const db::Database db = MakeDatabase();
  const FixedInputs fixed = MakeFixedInputs(db);
  const VariantStream stream(BaseQueries(db, args.seed, kBaseQueries),
                             args.seed);
  const std::vector<std::string> hot =
      hit ? stream.Take(0, kHotCorpus) : std::vector<std::string>();
  const std::vector<double> cdf =
      hit ? ZipfCdf(hot.size(), kZipfS) : std::vector<double>();

  const HostProbe probe_before = RunHostProbe();
  std::vector<double> setup_secs;
  auto stack = TimedSetups<ServeStack>(
      args.trace ? 1 : kSetupReps,
      [&] { return BuildServeStack(db, fixed, hit ? &hot : nullptr); },
      &setup_secs);

  LoadSpec spec;
  spec.port = stack->server->port();
  if (hit) {
    spec.sqls = &hot;
    spec.mix_cdf = &cdf;
  } else {
    spec.stream = &stream;
  }
  spec.seconds = args.seconds;
  spec.seed = args.seed;
  spec.trace = args.trace;
  const ServingCounters before = ServingCounters::Of(stack->service->metrics());
  const LoadResult load = RunLoad(spec);
  const double rss = PeakRssMb();
  const HostProbe probe_after = RunHostProbe();
  const ServingCounters delta =
      ServingCounters::Of(stack->service->metrics()).Minus(before);
  stack.reset();
  PREQR_CHECK_MSG(hit || delta.hits == 0, "serve_miss sent a SQL twice");

  out->attempted = load.attempted;
  out->failed = load.errors + CountWrongReplies(db, fixed, spec, load);
  out->correct = out->failed == 0;
  out->Note(HostProbeNote(probe_before, probe_after));
  if (!args.trace) {
    AddEndToEnd(out, setup_secs, load.elapsed_s, load.latency, rss);
    return;
  }
  LoopTrace loop;
  loop.op_p50_us = Median(load.op_span_us);
  loop.serving_delta = delta;
  AddLayerMetrics(db, fixed, args.seed, stream, loop, out);
}

}  // namespace perfbench
