#include "layers.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "common/check.h"
#include "common/rng.h"
#include "core/preqr_model.h"
#include "db/executor.h"
#include "db/plan.h"
#include "load.h"
#include "nn/buffer_pool.h"
#include "nn/ops.h"
#include "nn/optim.h"
#include "planner/cardinality.h"
#include "planner/join_planner.h"
#include "serving/server.h"
#include "serving/wire.h"
#include "sql/parser.h"
#include "text/tokenizer.h"

namespace perfbench {

namespace {

using preqr::nn::Tensor;
using preqr::text::SqlTokenizer;

// Probe sizes. Fixed, so every count the probe reports repeats exactly.
constexpr size_t kWireMissOps = 1200;  // distinct SQL, kConnections clients
constexpr size_t kWireHitOps = 8000;
constexpr size_t kServiceQueries = 128;
constexpr size_t kModelQueries = 128;
constexpr size_t kBatchChunks = 16;
constexpr size_t kProbePlanQueries = 64;
constexpr int kTrainSteps = 6;
constexpr int kTrainBatch = 8;

// What the instrumented plan op leaves behind. Span tree per op:
// plan.op > {sql.parse, planner.plan > planner.estimate > tasks.predict,
// db.bind, db.execute}.
struct PlanTrace {
  Tracer tracer;
  // Per query.
  std::vector<double> estimates;
  std::vector<double> executed_units;
  std::vector<double> intermediate_rows;
  std::vector<double> cost_ratio;  // learned plan / true plan, executed
  uint64_t prefix_hits = 0, prefix_lookups = 0;
};

// Times every estimator call PlanJoinOrder makes, as a span under
// planner.plan, and counts them.
class TimedEstimator : public preqr::planner::CardinalityEstimator {
 public:
  TimedEstimator(const db::Database& db,
                 preqr::planner::CardinalityEstimator* inner, Tracer* tracer,
                 uint64_t request)
      : CardinalityEstimator(db),
        inner_(inner),
        tracer_(tracer),
        request_(request) {}
  std::string name() const override { return inner_->name(); }
  double EstimateCardinality(const sql::SelectStatement& stmt) override {
    ++calls_;
    ScopedSpan span(tracer_, "planner.estimate", request_);
    return inner_->EstimateCardinality(stmt);
  }
  double EstimateSubsetCardinality(const sql::SelectStatement& stmt,
                                   const std::vector<int>& subset) override {
    ++calls_;
    ScopedSpan span(tracer_, "planner.estimate", request_);
    return inner_->EstimateSubsetCardinality(stmt, subset);
  }
  uint64_t calls() const { return calls_; }

 private:
  preqr::planner::CardinalityEstimator* inner_;
  Tracer* tracer_;
  uint64_t request_;
  uint64_t calls_ = 0;
};

double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Bytes of the reply frame the server sends for one kEncode request of
// `sql` (default tenant, no deadline), read off a raw loopback socket: the
// u32 length prefix plus the payload it announces. The reply must be ok.
double ReplyFrameBytes(int port, const std::string& sql) {
  namespace wire = preqr::serving::wire;
  std::string payload;
  wire::PutU8(&payload, wire::kProtocolVersion);
  wire::PutU8(&payload, wire::kEncode);
  wire::PutString(&payload, "");  // tenant id
  wire::PutString(&payload, "");  // client id
  wire::PutU32(&payload, 0);      // priority
  wire::PutI64(&payload, -1);     // timeout_us: none
  wire::PutString(&payload, sql);
  std::string frame;
  wire::PutU32(&frame, static_cast<uint32_t>(payload.size()));
  frame += payload;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  PREQR_CHECK_MSG(fd >= 0, "reply probe: socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  PREQR_CHECK_MSG(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)) == 0,
                  "reply probe: connect failed");
  for (size_t sent = 0; sent < frame.size();) {
    const ssize_t r = ::send(fd, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    PREQR_CHECK_MSG(r > 0, "reply probe: send failed");
    sent += static_cast<size_t>(r);
  }
  auto read_full = [fd](std::string* buf) {
    for (size_t got = 0; got < buf->size();) {
      const ssize_t r = ::recv(fd, buf->data() + got, buf->size() - got, 0);
      PREQR_CHECK_MSG(r > 0, "reply probe: connection lost");
      got += static_cast<size_t>(r);
    }
  };
  std::string prefix(4, '\0');
  read_full(&prefix);
  uint32_t len = 0;
  wire::Reader(prefix).GetU32(&len);
  PREQR_CHECK_MSG(len > 0 && len <= wire::kMaxFrameBytes,
                  "reply probe: bad frame length");
  std::string reply(len, '\0');
  read_full(&reply);
  ::close(fd);
  PREQR_CHECK_MSG(reply[0] == 0, "reply probe: request failed");
  return 4.0 + len;
}

// Forward GEMM floating-point operations (2 per multiply-add) of one
// inference encode of `s` tokens: input projection, then per Trm_g layer
// the self-attention block, the cross-attention onto the n schema nodes
// (their key/value projections included, as the encode path recomputes
// them per call), both feed-forward blocks and the fuse projection.
double GemmFlops(const preqr::core::PreqrConfig& c, double s, double n) {
  const double d = c.d_model, f = c.ffn_hidden;
  const double embed = 2 * s * (d + c.state_dim + c.pos_dim + 1) * d;
  const double self_attn = 4 * 2 * s * d * d + 2 * 2 * s * s * d;
  const double cross_attn =
      2 * 2 * s * d * d + 2 * 2 * n * d * d + 2 * 2 * s * n * d;
  const double ffn = 2 * (2 * s * d * f + 2 * s * f * d);
  const double fuse = 2 * s * 2 * d * d;
  return embed + c.num_layers * (self_attn + cross_attn + ffn + fuse);
}

// The model path, one layer at a time, on cold queries (B = 1).
void ModelPathProbe(preqr::serving::TenantContext* t,
                    const std::vector<std::string>& sqls, RunResult* out) {
  preqr::core::PreqrModel* model = t->model();
  const auto& cfg = model->config();
  const SqlTokenizer& tok = t->tokenizer();
  model->set_train(false);
  const Tensor schema = model->EncodeSchemaNodes(/*with_grad=*/false);
  const double nodes = schema.defined() ? schema.dim(0) : 0;
  std::vector<double> parse, tokenize, collate, match, prefix, last, encode,
      readout, tokens, flops;
  uint64_t allocs = 0, reuses = 0;
  for (const std::string& sql : sqls) {
    int64_t t0 = NowNs();
    const auto parsed = preqr::sql::Parse(sql);
    int64_t t1 = NowNs();
    PREQR_CHECK(parsed.ok());
    parse.push_back((t1 - t0) / 1e3);
    t0 = NowNs();
    const auto tk = tok.Tokenize(sql);
    t1 = NowNs();
    PREQR_CHECK(tk.ok());
    const double tokenize_us = (t1 - t0) / 1e3;
    tokenize.push_back(std::max(0.0, tokenize_us - parse.back()));
    const auto& symbols = tk.value().symbols;
    tokens.push_back(static_cast<double>(tk.value().ids.size()));
    t0 = NowNs();
    const auto matched = t->automaton().Match(
        std::vector<preqr::automaton::Symbol>(symbols.begin() + 1,
                                              symbols.end()));
    t1 = NowNs();
    match.push_back((t1 - t0) / 1e3);
    t0 = NowNs();
    const auto batch =
        SqlTokenizer::Collate(std::vector<const SqlTokenizer::Tokenized*>{
                                  &tk.value()},
                              cfg.max_seq_len);
    t1 = NowNs();
    collate.push_back((t1 - t0) / 1e3);
    flops.push_back(GemmFlops(cfg, batch.lengths[0], nodes));
    {
      preqr::nn::NoGradGuard no_grad;
      t0 = NowNs();
      const Tensor p = model->EncodePrefixBatch(batch, schema);
      t1 = NowNs();
      prefix.push_back((t1 - t0) / 1e3);
      t0 = NowNs();
      const Tensor l = model->LastLayerBatch(p, schema, batch.lengths);
      t1 = NowNs();
      last.push_back((t1 - t0) / 1e3);
    }
    const auto pool_before = preqr::nn::BufferPool::TotalStats();
    t0 = NowNs();
    const auto e = t->encoder()->TryEncodeVectorBatch({sql}, false);
    t1 = NowNs();
    const auto pool_after = preqr::nn::BufferPool::TotalStats();
    PREQR_CHECK(e.size() == 1 && e[0].ok());
    allocs += pool_after.allocs - pool_before.allocs;
    reuses += pool_after.reuses - pool_before.reuses;
    encode.push_back((t1 - t0) / 1e3);
    readout.push_back(std::max(0.0, encode.back() - tokenize_us -
                                        collate.back() - prefix.back() -
                                        last.back()));
  }
  const double n = static_cast<double>(sqls.size());
  out->Add("sql.parse_us", Median(parse), "us");
  out->Add("text.tokenize_us", Median(tokenize), "us");
  out->Add("text.collate_us", Median(collate), "us");
  out->Add("text.tokens_per_query", Mean(tokens), "count");
  out->Add("automaton.match_us", Median(match), "us");
  out->Add("core.prefix_us", Median(prefix), "us");
  out->Add("core.last_layer_us", Median(last), "us");
  out->Add("tasks.encode_b1_us", Median(encode), "us");
  out->Add("tasks.readout_us", Median(readout), "us");
  out->Add("nn.gemm_flops_per_query", Mean(flops), "count");
  out->Add("nn.buffer_allocs_per_query", static_cast<double>(allocs) / n,
           "count");
  out->Add("nn.buffer_reuse_ratio", Ratio(reuses, allocs + reuses), "ratio");
}

// One masked-language-model step at a time through the public model, loss
// and optimizer calls core::Pretrainer makes.
void TrainStepProbe(preqr::core::PreqrModel* model,
                    const std::vector<std::string>& sqls, RunResult* out) {
  Tracer tr;
  std::vector<SqlTokenizer::Tokenized> tokenized;
  for (const std::string& sql : sqls) {
    auto t = model->tokenizer().Tokenize(sql);
    if (t.ok()) tokenized.push_back(std::move(t.value()));
    if (tokenized.size() == static_cast<size_t>(kTrainSteps * kTrainBatch)) {
      break;
    }
  }
  PREQR_CHECK(!tokenized.empty());
  preqr::nn::Adam opt(model->Parameters());
  preqr::Rng rng(99);
  model->set_train(true);
  for (int step = 0; step < kTrainSteps; ++step) {
    std::vector<const SqlTokenizer::Tokenized*> items;
    std::vector<std::vector<int>> inputs, targets_per;
    std::vector<uint64_t> seeds;
    for (int b = 0; b < kTrainBatch; ++b) {
      const auto& t =
          tokenized[static_cast<size_t>(step * kTrainBatch + b) %
                    tokenized.size()];
      items.push_back(&t);
      std::vector<int> in = t.ids, tg(t.ids.size(), -1);
      for (size_t i = 0; i < in.size(); ++i) {
        if (in[i] == preqr::text::Vocab::kClsId ||
            in[i] == preqr::text::Vocab::kEndId ||
            rng.NextFloat() >= model->config().mask_prob) {
          continue;
        }
        tg[i] = in[i];
        in[i] = preqr::text::Vocab::kMaskId;
      }
      inputs.push_back(std::move(in));
      targets_per.push_back(std::move(tg));
      seeds.push_back(rng.NextUint64());
    }
    const auto batch =
        SqlTokenizer::Collate(items, model->config().max_seq_len);
    std::vector<int> targets(items.size() * static_cast<size_t>(batch.t_max),
                             -1);
    for (size_t b = 0; b < items.size(); ++b) {
      std::copy(targets_per[b].begin(),
                targets_per[b].begin() + batch.lengths[b],
                targets.begin() + static_cast<long>(b) * batch.t_max);
    }
    opt.ZeroGrad();
    ScopedSpan op(&tr, "train.step", static_cast<uint64_t>(step));
    Tensor schema;
    {
      ScopedSpan s(&tr, "core.schema_encode");
      schema = model->EncodeSchemaNodes(/*with_grad=*/true);
    }
    Tensor states;
    {
      ScopedSpan s(&tr, "core.forward");
      states = model->ForwardBatch(batch, schema, inputs, seeds);
    }
    Tensor loss;
    {
      ScopedSpan s(&tr, "core.mlm_head");
      loss = preqr::nn::MaskedCrossEntropy(model->MlmLogits(states), targets,
                                           batch.lengths);
    }
    PREQR_CHECK(std::isfinite(loss.item()));
    {
      ScopedSpan s(&tr, "nn.backward");
      loss.Backward();
    }
    {
      ScopedSpan s(&tr, "nn.adam_step");
      opt.Step();
    }
  }
  model->set_train(false);
  auto ms = [&](const char* name) {
    return Median(tr.DurationsUs(name)) / 1e3;
  };
  out->Add("core.schema_encode_ms", ms("core.schema_encode"), "ms");
  out->Add("core.forward_ms", ms("core.forward"), "ms");
  out->Add("core.mlm_head_ms", ms("core.mlm_head"), "ms");
  out->Add("nn.backward_ms", ms("nn.backward"), "ms");
  out->Add("nn.adam_step_ms", ms("nn.adam_step"), "ms");
}

// Parses, plans (learned estimator behind a timing wrapper) and executes
// `q` under spans. Returns false when the executed count is wrong.
bool TracedPlanOp(const db::Database& db,
                  preqr::tasks::EstimatorModel* estimator,
                  const preqr::workload::BenchQuery& q, uint64_t request,
                  double true_cost, PlanTrace* trace) {
  Tracer* tr = &trace->tracer;
  // The same callback tasks::MakePlannerEstimator installs, with a span.
  preqr::planner::CallbackCardinalityEstimator learned(
      db, "preqr", [&](const std::string& sql) {
        ScopedSpan span(tr, "tasks.predict", request);
        return estimator->Predict(sql);
      });
  TimedEstimator timed(db, &learned, tr, request);
  const preqr::db::Executor exec(db);
  ScopedSpan op(tr, "plan.op", request);
  auto parsed = [&] {
    ScopedSpan span(tr, "sql.parse", request);
    return preqr::sql::Parse(q.sql);
  }();
  if (!parsed.ok()) return false;
  auto choice = [&] {
    ScopedSpan span(tr, "planner.plan", request);
    return preqr::planner::PlanJoinOrder(db, parsed.value(), timed);
  }();
  if (!choice.ok()) return false;
  // Executor::ExecuteOrder, split into its two calls.
  auto bound = [&] {
    ScopedSpan span(tr, "db.bind", request);
    return preqr::db::BindQuery(
        db, parsed.value(), [&](const sql::SelectStatement& sub) {
          return exec.Execute(sub, /*collect_root_rows=*/true);
        });
  }();
  if (!bound.ok()) return false;
  auto res = [&] {
    ScopedSpan span(tr, "db.execute", request);
    return preqr::db::ExecuteLeftDeep(bound.value(), choice.value().order);
  }();
  if (!res.ok() || res.value().cardinality != q.true_card) return false;
  double rows = 0;
  for (const auto& step : res.value().steps) rows += step.intermediate_rows;
  trace->estimates.push_back(static_cast<double>(timed.calls()));
  trace->executed_units.push_back(res.value().cost);
  trace->intermediate_rows.push_back(rows);
  trace->cost_ratio.push_back(res.value().cost / true_cost);
  return true;
}

void AddPlanMetrics(const PlanTrace& p, RunResult* out) {
  const Tracer& tr = p.tracer;
  // Per op: the plan span, the estimator calls under it (its only
  // children), and the DP's own time.
  const std::vector<double> plan_us = tr.DurationsUs("planner.plan");
  const std::vector<double> dp_self_us = tr.SelfUs("planner.plan");
  std::vector<double> estimate_us;
  for (size_t i = 0; i < plan_us.size(); ++i) {
    estimate_us.push_back(plan_us[i] - dp_self_us[i]);
  }
  out->Add("planner.plan_us", Median(plan_us), "us");
  out->Add("planner.estimate_us", Median(estimate_us), "us");
  out->Add("planner.dp_self_us", Median(dp_self_us), "us");
  out->Add("planner.estimates_per_query", Mean(p.estimates), "count");
  out->Add("planner.plan_cost_ratio", Mean(p.cost_ratio), "ratio");
  out->Add("tasks.predict_us", Median(tr.DurationsUs("tasks.predict")), "us");
  out->Add("tasks.prefix_cache_hit_ratio",
           Ratio(p.prefix_hits, p.prefix_lookups), "ratio");
  out->Add("db.bind_us", Median(tr.DurationsUs("db.bind")), "us");
  out->Add("db.execute_us", Median(tr.DurationsUs("db.execute")), "us");
  out->Add("db.executed_units", Mean(p.executed_units), "count");
  out->Add("db.intermediate_rows", Mean(p.intermediate_rows), "count");
}

}  // namespace

ServingCounters ServingCounters::Of(const preqr::serving::ServingMetrics& m) {
  ServingCounters c;
  c.requests = m.requests.value();
  c.hits = m.cache_hits.value();
  c.shed = m.ShedTotal();
  c.batches = m.batches.value();
  c.batched = m.batched_queries.value();
  return c;
}

ServingCounters ServingCounters::Minus(const ServingCounters& b) const {
  ServingCounters c;
  c.requests = requests - b.requests;
  c.hits = hits - b.hits;
  c.shed = shed - b.shed;
  c.batches = batches - b.batches;
  c.batched = batched - b.batched;
  return c;
}

void AddLayerMetrics(const db::Database& db, const FixedInputs& fixed,
                     uint64_t seed, const VariantStream& stream,
                     const LoopTrace& loop, RunResult* out) {
  // Inputs for the probe: the workload's own SQL stream, in disjoint
  // ranges, on a fresh tenant, so no cache has seen them.
  const size_t max_batch = 64;
  const uint64_t service_from = kWireMissOps;
  const uint64_t model_from = service_from + kServiceQueries;
  const uint64_t batch_from = model_from + kModelQueries;
  const auto service_set = stream.Take(service_from, kServiceQueries);
  const auto model_set = stream.Take(model_from, kModelQueries);

  auto tenant = MakeTenant(db, fixed);
  {
    preqr::serving::EncoderService service(tenant->encoder());
    preqr::serving::EncodeServer server(&service);
    PREQR_CHECK_MSG(server.Start().ok(), "probe server start failed");

    // Miss traffic shaped like serve_miss: queueing, micro-batching.
    LoadSpec miss;
    miss.port = server.port();
    miss.stream = &stream;
    miss.max_ops = kWireMissOps;
    miss.seed = seed;
    const ServingCounters c0 = ServingCounters::Of(service.metrics());
    const LoadResult miss_load = RunLoad(miss);
    const ServingCounters miss_delta =
        ServingCounters::Of(service.metrics()).Minus(c0);
    if (miss_load.errors != 0) out->correct = false;
    const double mean_batch = Ratio(miss_delta.batched, miss_delta.batches);

    // In-process service: each query once cold, then once cached.
    std::vector<double> miss_us, hit_us;
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::string& sql : service_set) {
        preqr::serving::EncodeRequest req;
        req.sql = sql;
        const int64_t t0 = NowNs();
        const auto r = service.Encode(req);
        const int64_t t1 = NowNs();
        if (!r.ok() || r.value().cache_hit != (pass == 1)) out->correct = false;
        (pass == 0 ? miss_us : hit_us).push_back((t1 - t0) / 1e3);
      }
    }

    // Cache-hit p50 over the wire and in process, kConnections callers
    // each; the difference is what the wire adds.
    const std::vector<double> cdf = ZipfCdf(service_set.size(), 1.0);
    LoadSpec hits;
    hits.port = server.port();
    hits.sqls = &service_set;
    hits.mix_cdf = &cdf;
    hits.max_ops = kWireHitOps;
    hits.seed = seed;
    const LoadResult hit_load = RunLoad(hits);
    if (hit_load.errors != 0) out->correct = false;
    std::vector<LatencyHistogram> local(kConnections);
    std::vector<std::thread> threads;
    for (int t = 0; t < kConnections; ++t) {
      threads.emplace_back([&, t] {
        preqr::Rng rng(seed + static_cast<uint64_t>(t));
        for (size_t i = 0; i < kWireHitOps / kConnections; ++i) {
          const size_t idx = std::min<size_t>(
              service_set.size() - 1,
              static_cast<size_t>(std::upper_bound(cdf.begin(), cdf.end(),
                                                   rng.NextDouble()) -
                                  cdf.begin()));
          preqr::serving::EncodeRequest req;
          req.sql = service_set[idx];
          const int64_t t0 = NowNs();
          const auto r = service.Encode(req);
          local[static_cast<size_t>(t)].Record(NowNs() - t0);
          PREQR_CHECK(r.ok());
        }
      });
    }
    for (auto& th : threads) th.join();
    LatencyHistogram inproc;
    for (const auto& h : local) inproc.Merge(h);

    const double reply_bytes = ReplyFrameBytes(server.port(), service_set[0]);
    out->Add("serving.service_miss_us", Median(miss_us), "us");
    out->Add("serving.service_hit_us", Median(hit_us), "us");
    out->Add("serving.queue_us", Median(miss_load.queue_us), "us");
    out->Add("serving.encode_us", Median(miss_load.encode_us), "us");
    out->Add("serving.wire_overhead_us",
             hit_load.latency.QuantileUs(0.5) - inproc.QuantileUs(0.5), "us");
    out->Add("serving.mean_batch_size", mean_batch, "queries");
    const ServingCounters& loop_traffic = loop.serving_delta;
    out->Add("serving.cache_hit_ratio",
             Ratio(loop_traffic.hits, loop_traffic.requests), "ratio");
    out->Add("serving.shed_ratio",
             Ratio(loop_traffic.shed, loop_traffic.requests), "ratio");
    out->Add("serving.reply_bytes", reply_bytes, "count");

    // B=1 path layer by layer, then the batched call at the batch size the
    // miss traffic produced.
    // On a fresh thread: its thread-local buffer pool starts empty, so the
    // allocation counts do not depend on what the loop left behind.
    std::thread([&] { ModelPathProbe(tenant.get(), model_set, out); }).join();
    const size_t b = std::clamp<size_t>(
        static_cast<size_t>(std::lround(mean_batch)), 1, max_batch);
    std::vector<double> per_query;
    for (size_t k = 0; k < kBatchChunks; ++k) {
      const auto chunk = stream.Take(batch_from + k * b, b);
      const int64_t t0 = NowNs();
      const auto r = tenant->encoder()->TryEncodeVectorBatch(chunk, false);
      const int64_t t1 = NowNs();
      for (const auto& x : r) {
        if (!x.ok()) out->correct = false;
      }
      per_query.push_back((t1 - t0) / 1e3 / static_cast<double>(b));
    }
    out->Add("tasks.encode_batch_us_per_query", Median(per_query), "us");
    char buf[120];
    std::snprintf(buf, sizeof(buf), "probe encode batch size = %zu", b);
    out->Note(buf);
  }

  // Path 2 (SQL to chosen plan to executed count) on a fixed set of 3-5-
  // table queries from the seed, with its own trained estimator.
  {
    const auto queries = PlanQueries(db, seed, kProbePlanQueries);
    const auto true_costs = TruePlanCosts(db, queries);
    auto plan_tenant = MakeTenant(db, fixed);
    auto estimator = TrainEstimator(plan_tenant.get(), fixed);
    PlanTrace p;
    const auto c0 = plan_tenant->encoder()->cache_stats();
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!TracedPlanOp(db, estimator.get(), queries[i], i, true_costs[i],
                        &p)) {
        out->correct = false;
      }
    }
    const auto c1 = plan_tenant->encoder()->cache_stats();
    p.prefix_hits = c1.hits - c0.hits;
    p.prefix_lookups = p.prefix_hits + c1.misses - c0.misses;
    AddPlanMetrics(p, out);
  }

  TrainStepProbe(tenant->model(),
                 stream.Take(0, static_cast<size_t>(kTrainSteps * kTrainBatch)),
                 out);
  out->Add("trace.op_p50_us", loop.op_p50_us, "us");
}

}  // namespace perfbench
