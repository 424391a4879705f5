// Micro-benchmarks (google-benchmark) for the hot components: SQL lexing /
// parsing, automaton matching, tokenization, executor counting, PreQR
// encoding, tenant set-up (template mining, ANALYZE), and the parallel
// tensor kernels (MatMul, attention, layer norm).
// These back the paper's claim that FA construction and matching incur
// negligible cost (Section 3.3.1). Kernel benches honour PREQR_NUM_THREADS;
// run with =1 and =4 to measure the thread-pool speedup.
#include <benchmark/benchmark.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "automaton/template_extractor.h"
#include "common/thread_pool.h"
#include "core/preqr_model.h"
#include "db/executor.h"
#include "db/stats.h"
#include "nn/buffer_pool.h"
#include "nn/kernels.h"
#include "nn/kernels_dispatch.h"
#include "nn/module.h"
#include "nn/ops.h"
#include "schema/schema_graph.h"
#include "serving/encoder_service.h"
#include "serving/tenant_registry.h"
#include "serving/wire.h"
#include "sql/parser.h"
#include "tasks/preqr_encoder.h"
#include "text/tokenizer.h"
#include "workload/imdb.h"
#include "workload/query_gen.h"

namespace preqr {
namespace {

const char* kQuery =
    "SELECT COUNT(*) FROM title t, movie_companies mc, movie_info mi "
    "WHERE t.id = mc.movie_id AND t.id = mi.movie_id "
    "AND t.production_year > 2010 AND mc.company_type_id = 1";

struct Shared {
  db::Database imdb = workload::MakeImdbDatabase(42, 0.1);
  std::vector<db::TableStats> stats;
  std::unique_ptr<text::SqlTokenizer> tokenizer;
  automaton::Automaton fa;
  schema::SchemaGraph graph;
  std::unique_ptr<core::PreqrModel> model;
  sql::SelectStatement stmt;

  Shared() {
    db::StatsCollector collector;
    stats = collector.AnalyzeAll(imdb);
    tokenizer = std::make_unique<text::SqlTokenizer>(imdb.catalog(), stats, 8);
    workload::ImdbQueryGenerator gen(imdb, 1);
    automaton::TemplateExtractor extractor(0.2);
    fa = extractor.BuildAutomaton(
        [&] {
          std::vector<std::string> corpus;
          for (const auto& q : gen.Synthetic(60, 2)) corpus.push_back(q.sql);
          return corpus;
        }()).value();
    graph = schema::SchemaGraph::Build(imdb.catalog());
    core::PreqrConfig config;
    config.d_model = 32;
    model = std::make_unique<core::PreqrModel>(config, tokenizer.get(), &fa,
                                               &graph);
    stmt = sql::Parse(kQuery).value();
  }
};

Shared& S() {
  static Shared* shared = new Shared();
  return *shared;
}

void BM_LexAndParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(sql::Parse(kQuery));
  }
}
BENCHMARK(BM_LexAndParse);

void BM_AutomatonMatch(benchmark::State& state) {
  const auto symbols = automaton::StructuralSymbols(kQuery);
  for (auto _ : state) {
    benchmark::DoNotOptimize(S().fa.Match(symbols));
  }
}
BENCHMARK(BM_AutomatonMatch);

void BM_Tokenize(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(S().tokenizer->Tokenize(kQuery));
  }
}
BENCHMARK(BM_Tokenize);

void BM_ExecutorCount(benchmark::State& state) {
  db::Executor exec(S().imdb);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.Execute(S().stmt));
  }
}
BENCHMARK(BM_ExecutorCount);

// Tokenize + the full SQLBERT forward of one query as a B=1 batch
// (inference: no tape, schema encoded once).
void BM_PreqrEncode(benchmark::State& state) {
  core::PreqrModel& model = *S().model;
  model.set_train(false);
  nn::NoGradGuard no_grad;
  const nn::Tensor schema = model.EncodeSchemaNodes(/*with_grad=*/false);
  for (auto _ : state) {
    auto tokenized = model.tokenizer().Tokenize(kQuery);
    const auto batch = text::SqlTokenizer::Collate(
        {&tokenized.value()}, model.config().max_seq_len);
    benchmark::DoNotOptimize(model.ForwardBatch(batch, schema));
  }
}
BENCHMARK(BM_PreqrEncode);

// --- Encode misses ------------------------------------------------------
// The encode rows cycle through distinct SQL, so every iteration is a
// miss, as on serve_miss: tokenize, the frozen prefix, the last layer and
// the read-out run, while the schema encoding and its keys/values stay
// memoized from construction (BM_EncodeSchema times those alone). The
// encoders hold a 1-entry prefix cache, and no query follows itself, so
// the cycle never hits. A short fixed cycle gives every run the same
// query mix whatever its iteration count.

// 64 distinct queries over S().imdb, in generation order.
const std::vector<std::string>& MissCycle() {
  static const std::vector<std::string>* cycle = [] {
    workload::ImdbQueryGenerator gen(S().imdb, 11);
    std::unordered_set<std::string> seen;
    auto* out = new std::vector<std::string>();
    for (const auto& q : gen.Synthetic(256, 2)) {
      if (out->size() < 64 && seen.insert(q.sql).second) {
        out->push_back(q.sql);
      }
    }
    return out;
  }();
  return *cycle;
}

// Hands out MissCycle() in order, from its start, round and round.
class MissQueries {
 public:
  const std::string& Next() { return cycle_[next_++ % cycle_.size()]; }

 private:
  const std::vector<std::string>& cycle_ = MissCycle();
  size_t next_ = 0;
};

// An encoder over S().model that misses on every query of MissQueries.
tasks::PreqrEncoder MissEncoder() {
  tasks::PreqrEncoder::Options options;
  options.cache_capacity = 1;
  options.cache_shards = 1;
  return tasks::PreqrEncoder(S().model.get(), options);
}

// The schema side of an encoder: re-encoding the schema nodes (the name
// BiLSTM and the R-GCN) and re-projecting every layer's keys/values. Paid
// at construction, on InvalidateCache and on every model reload, never by
// a miss.
void BM_EncodeSchema(benchmark::State& state) {
  tasks::PreqrEncoder encoder(S().model.get());
  for (auto _ : state) encoder.InvalidateCache();
}
BENCHMARK(BM_EncodeSchema);

// --- Grad-mode / storage layer ------------------------------------------
// The same miss with the tape on vs. off. The no-grad path skips every
// parents/grad_fn allocation and draws activations from the thread-local
// BufferPool; `impls` and `pool_reuse` counters quantify the allocation
// savings per encode (the impls gap is all tape bookkeeping the inference
// path no longer pays for).

void BM_EncodeNoGrad(benchmark::State& state) {
  tasks::PreqrEncoder encoder = MissEncoder();
  MissQueries queries;
  const uint64_t impls0 = nn::TensorImplsCreated();
  const nn::BufferPoolStats pool0 = nn::BufferPool::TotalStats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        encoder.TryEncodeVector(queries.Next(), /*train=*/false));
  }
  const nn::BufferPoolStats pool1 = nn::BufferPool::TotalStats();
  const double iters = static_cast<double>(state.iterations());
  state.counters["impls_per_encode"] =
      static_cast<double>(nn::TensorImplsCreated() - impls0) / iters;
  state.counters["pool_reuse_per_encode"] =
      static_cast<double>(pool1.reuses - pool0.reuses) / iters;
  state.counters["heap_allocs_per_encode"] =
      static_cast<double>(pool1.allocs - pool0.allocs) / iters;
}
BENCHMARK(BM_EncodeNoGrad);

void BM_EncodeTapeOn(benchmark::State& state) {
  tasks::PreqrEncoder encoder = MissEncoder();
  MissQueries queries;
  const uint64_t impls0 = nn::TensorImplsCreated();
  for (auto _ : state) {
    // train=true keeps the tape through the read-out; backward not run, so
    // the delta vs. BM_EncodeNoGrad is pure tape + allocation overhead.
    benchmark::DoNotOptimize(
        encoder.TryEncodeVector(queries.Next(), /*train=*/true));
  }
  state.counters["impls_per_encode"] =
      static_cast<double>(nn::TensorImplsCreated() - impls0) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_EncodeTapeOn);

// --- Batched vs per-query encode ----------------------------------------
// The padded [B, T, d] path runs each op once per batch instead of once per
// query, so tensor-impl creations (== op dispatches) and pool/heap
// allocations per query must drop vs. the per-query loop at B=8, with
// throughput no worse on a small machine. Both take the next 8 queries of
// the miss cycle per iteration, so both pay the full prefix + read-out
// compute for every query.

constexpr int kBatchBenchQueries = 8;

// Records the per-query counters of an encode loop that started at
// `impls0` / `pool0`.
void SetPerQueryCounters(benchmark::State& state, uint64_t impls0,
                         const nn::BufferPoolStats& pool0) {
  const nn::BufferPoolStats pool1 = nn::BufferPool::TotalStats();
  const double n_queries =
      static_cast<double>(state.iterations()) * kBatchBenchQueries;
  state.counters["impls_per_query"] =
      static_cast<double>(nn::TensorImplsCreated() - impls0) / n_queries;
  state.counters["pool_reuse_per_query"] =
      static_cast<double>(pool1.reuses - pool0.reuses) / n_queries;
  state.counters["heap_allocs_per_query"] =
      static_cast<double>(pool1.allocs - pool0.allocs) / n_queries;
  state.SetItemsProcessed(static_cast<int64_t>(n_queries));
}

void BM_EncodeLoop(benchmark::State& state) {
  tasks::PreqrEncoder encoder = MissEncoder();
  MissQueries queries;
  const uint64_t impls0 = nn::TensorImplsCreated();
  const nn::BufferPoolStats pool0 = nn::BufferPool::TotalStats();
  for (auto _ : state) {
    for (int i = 0; i < kBatchBenchQueries; ++i) {
      benchmark::DoNotOptimize(
          encoder.TryEncodeVector(queries.Next(), /*train=*/false));
    }
  }
  SetPerQueryCounters(state, impls0, pool0);
}
BENCHMARK(BM_EncodeLoop);

void BM_EncodeBatch(benchmark::State& state) {
  tasks::PreqrEncoder encoder = MissEncoder();
  MissQueries queries;
  std::vector<std::string> batch(kBatchBenchQueries);
  const uint64_t impls0 = nn::TensorImplsCreated();
  const nn::BufferPoolStats pool0 = nn::BufferPool::TotalStats();
  for (auto _ : state) {
    for (auto& sql : batch) sql = queries.Next();
    benchmark::DoNotOptimize(
        encoder.TryEncodeVectorBatch(batch, /*train=*/false));
  }
  SetPerQueryCounters(state, impls0, pool0);
}
BENCHMARK(BM_EncodeBatch);

// --- Serving layer ------------------------------------------------------
// Cache hit vs cold encode through the EncoderService: the hit path is a
// sharded-LRU lookup plus one tensor copy, the cold path pays the full
// frozen-prefix + last-layer forward. The gap is the serving layer's value
// on a frequent-query workload.

void BM_ServingCacheHit(benchmark::State& state) {
  tasks::PreqrEncoder encoder(S().model.get());
  serving::EncoderService service(&encoder);
  (void)service.Encode(kQuery);  // warm the embedding cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.Encode(kQuery));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServingCacheHit);

// The full request path on a hit — deadline check, admission bookkeeping,
// response metadata — vs the bare-SQL overload above: the cost of the
// request/response contract itself.
void BM_ServingRequestHit(benchmark::State& state) {
  tasks::PreqrEncoder encoder(S().model.get());
  serving::EncoderService service(&encoder);
  (void)service.Encode(kQuery);  // warm the embedding cache
  serving::EncodeRequest request;
  request.sql = kQuery;
  request.client_id = "bench";
  for (auto _ : state) {
    request.deadline = serving::DeadlineAfter(std::chrono::seconds(1));
    benchmark::DoNotOptimize(service.Encode(request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServingRequestHit);

void BM_ServingColdEncode(benchmark::State& state) {
  // Both cache layers are sized below the rotation length, so every request
  // misses and pays the full encode.
  tasks::PreqrEncoder::Options encoder_options;
  encoder_options.cache_capacity = 2;
  encoder_options.cache_shards = 1;
  tasks::PreqrEncoder encoder(S().model.get(), encoder_options);
  serving::EncoderServiceOptions options;
  options.cache_capacity = 2;
  options.cache_shards = 1;
  serving::EncoderService service(&encoder, options);
  std::vector<std::string> queries;
  for (int y = 0; y < 16; ++y) {
    queries.push_back(
        "SELECT COUNT(*) FROM title t WHERE t.production_year > " +
        std::to_string(1990 + y));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.Encode(queries[i++ % queries.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServingColdEncode);

// The wire codec of one cache hit, single thread: the server renders a
// 320-float kEncode ok reply (the slot layout of AppendResponse in
// serving/server.cc), frames it, and the client decodes it (the layout
// ParseResultSlot in serving/client.cc reads). The frame's payload goes
// to sendmsg uncopied, so framing is the 4-byte length prefix alone.
void BM_WireReplyCodec(benchmark::State& state) {
  namespace wire = serving::wire;
  std::vector<float> embedding(320);
  for (size_t i = 0; i < embedding.size(); ++i) {
    embedding[i] = static_cast<float>(i) * 0.37f - 50.0f;
  }
  for (auto _ : state) {
    std::string reply;
    reply.reserve(1 + 1 + 8 + 8 + 4 + 4 * embedding.size());
    wire::PutU8(&reply, 0);
    wire::PutU8(&reply, wire::kFlagCacheHit);
    wire::PutF64(&reply, 1.5);
    wire::PutF64(&reply, 0.0);
    wire::PutU32(&reply, static_cast<uint32_t>(embedding.size()));
    wire::PutF32s(&reply, embedding.data(), embedding.size());
    std::string header;
    wire::PutU32(&header, static_cast<uint32_t>(reply.size()));
    benchmark::DoNotOptimize(header.data());

    wire::Reader r(reply);
    uint8_t code = 0, flags = 0;
    double queue_us = 0, encode_us = 0;
    uint32_t dim = 0;
    if (!r.GetU8(&code) || !r.GetU8(&flags) || !r.GetF64(&queue_us) ||
        !r.GetF64(&encode_us) || !r.GetU32(&dim)) {
      state.SkipWithError("torn reply");
      break;
    }
    std::vector<float> decoded(dim);
    r.GetF32s(decoded.data(), dim);
    benchmark::DoNotOptimize(decoded.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireReplyCodec);

// --- Tenant set-up -------------------------------------------------------
// The stages of TenantContext::Create on the perfbench tenant (its database
// and 160-query template corpus, default model config): template mining
// (SQL2Automaton), ANALYZE, and the whole chain. None of them uses the
// thread pool, so these are single-thread numbers.

struct SetupInputs {
  db::Database imdb = workload::MakeImdbDatabase(42, 0.22);
  std::vector<std::string> corpus;
  std::vector<db::TableStats> stats;

  SetupInputs() {
    workload::ImdbQueryGenerator gen(imdb, 7);
    for (const auto& q : gen.Synthetic(160, 2)) corpus.push_back(q.sql);
    stats = db::StatsCollector().AnalyzeAll(imdb);
  }

  serving::TenantContext::Options TenantOptions() const {
    serving::TenantContext::Options o;
    o.catalog = imdb.catalog();
    o.stats = stats;
    o.corpus = corpus;
    return o;
  }
};

const SetupInputs& Setup() {
  static const SetupInputs* inputs = new SetupInputs();
  return *inputs;
}

void BM_TemplateExtract(benchmark::State& state) {
  const automaton::TemplateExtractor extractor(0.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(Setup().corpus));
  }
}
BENCHMARK(BM_TemplateExtract)->Unit(benchmark::kMillisecond);

void BM_AnalyzeAll(benchmark::State& state) {
  const db::StatsCollector collector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(collector.AnalyzeAll(Setup().imdb));
  }
}
BENCHMARK(BM_AnalyzeAll)->Unit(benchmark::kMillisecond);

void BM_TenantCreate(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    serving::TenantContext::Options options = Setup().TenantOptions();
    state.ResumeTiming();
    benchmark::DoNotOptimize(serving::TenantContext::Create(std::move(options)));
  }
}
BENCHMARK(BM_TenantCreate)->Unit(benchmark::kMillisecond);

// Distinct misses through TryEncodeVectorBatch on the perfbench tenant, B
// queries per call: does a batched miss cost more per query than a single
// one? Every query is new to the encoder (a 1-entry cache never hits a
// stream of distinct SQL), as on serve_miss. Compare items_per_second
// (queries/s) across B.
void BM_EncodeDistinctMisses(benchmark::State& state) {
  static serving::TenantContext* tenant =
      serving::TenantContext::Create(Setup().TenantOptions())
          .value()
          .release();
  static const std::vector<std::string>* stream = [] {
    workload::ImdbQueryGenerator gen(Setup().imdb, 11);
    auto* out = new std::vector<std::string>();
    for (const auto& q : gen.Synthetic(4096, 2)) out->push_back(q.sql);
    return out;
  }();
  const size_t b = static_cast<size_t>(state.range(0));
  tasks::PreqrEncoder::Options options;
  options.cache_capacity = 1;
  options.cache_shards = 1;
  tasks::PreqrEncoder encoder(tenant->model(), options);
  size_t next = 0;
  std::vector<std::string> batch(b);
  for (auto _ : state) {
    for (auto& sql : batch) sql = (*stream)[next++ % stream->size()];
    benchmark::DoNotOptimize(
        encoder.TryEncodeVectorBatch(batch, /*train=*/false));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(b));
}
BENCHMARK(BM_EncodeDistinctMisses)->Arg(1)->Arg(2)->Arg(4);

// --- Parallel tensor kernels -------------------------------------------
// Shapes are sized so the per-row work comfortably exceeds the pool grain;
// with PREQR_NUM_THREADS=1 these run the exact legacy serial path.

// The raw kernel with no Tensor wrapper, tape check, or shape assertion:
// the floor the op-level BM_MatMulForward is measured against.
void BM_MatMulKernel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(10);
  const size_t elems = static_cast<size_t>(n) * static_cast<size_t>(n);
  std::vector<float> a(elems), b(elems), out(elems, 0.0f);
  for (auto& v : a) v = static_cast<float>(rng.NextGaussian());
  for (auto& v : b) v = static_cast<float>(rng.NextGaussian());
  for (auto _ : state) {
    std::fill(out.begin(), out.end(), 0.0f);  // kernel accumulates into out
    nn::kernels::Gemm(a.data(), n, b.data(), n, out.data(), n, n, n, n, {});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_MatMulKernel)->Arg(96)->Arg(192);

// --- Kernel dispatch backends (scalar vs AVX2 vs AVX-512) ----------------
// The same square GEMM through each kernel table directly, so each
// backend's speedup is measured at the kernel floor with no dispatch-table
// indirection in the loop body.

// Pins the global pool to one thread for a benchmark's lifetime, so the
// avx512 variants report single-thread kernel time whatever
// PREQR_NUM_THREADS says.
class SingleThreadPool {
 public:
  SingleThreadPool() { ThreadPool::SetGlobalThreads(1); }
  ~SingleThreadPool() { ThreadPool::SetGlobalThreads(0); }
};

void MatMulImplBench(benchmark::State& state,
                     const nn::kernels::KernelTable& table) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(10);
  const size_t elems = static_cast<size_t>(n) * static_cast<size_t>(n);
  std::vector<float> a(elems), b(elems), out(elems, 0.0f);
  for (auto& v : a) v = static_cast<float>(rng.NextGaussian());
  for (auto& v : b) v = static_cast<float>(rng.NextGaussian());
  for (auto _ : state) {
    std::fill(out.begin(), out.end(), 0.0f);
    table.Gemm(a.data(), n, b.data(), n, out.data(), n, n, n, n, {});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}

void BM_MatMulKernelScalar(benchmark::State& state) {
  MatMulImplBench(state, nn::kernels::ScalarTable());
}
BENCHMARK(BM_MatMulKernelScalar)->Arg(96)->Arg(192);

void BM_MatMulKernelAvx2(benchmark::State& state) {
  if (!nn::kernels::Avx2Supported()) {
    state.SkipWithError("AVX2+FMA unavailable on this host");
    return;
  }
  MatMulImplBench(state, *nn::kernels::Avx2Table());
}
BENCHMARK(BM_MatMulKernelAvx2)->Arg(96)->Arg(192);

void BM_MatMulKernelAvx512(benchmark::State& state) {
  if (!nn::kernels::Avx512Supported()) {
    state.SkipWithError("AVX-512F unavailable on this host");
    return;
  }
  SingleThreadPool single;
  MatMulImplBench(state, *nn::kernels::Avx512Table());
}
BENCHMARK(BM_MatMulKernelAvx512)->Arg(96)->Arg(192);

// A no-grad encode miss under a forced kernel impl: the serving-visible
// form of the same speedup.
void EncodeNoGradImplBench(benchmark::State& state, const char* impl) {
  const char* entry_impl = nn::kernels::ActiveImplName();
  if (!nn::kernels::SetActiveImpl(impl)) {
    state.SkipWithError("kernel impl unavailable on this host");
    return;
  }
  {
    tasks::PreqrEncoder encoder = MissEncoder();
    MissQueries queries;
    for (auto _ : state) {
      benchmark::DoNotOptimize(
          encoder.TryEncodeVector(queries.Next(), /*train=*/false));
    }
  }
  nn::kernels::SetActiveImpl(entry_impl);
}

void BM_EncodeNoGradScalar(benchmark::State& state) {
  EncodeNoGradImplBench(state, "scalar");
}
BENCHMARK(BM_EncodeNoGradScalar);

void BM_EncodeNoGradAvx2(benchmark::State& state) {
  EncodeNoGradImplBench(state, "avx2");
}
BENCHMARK(BM_EncodeNoGradAvx2);

void BM_EncodeNoGradAvx512(benchmark::State& state) {
  SingleThreadPool single;
  EncodeNoGradImplBench(state, "avx512");
}
BENCHMARK(BM_EncodeNoGradAvx512);

// The encode path's GEMM shape: 34 token rows of width 64 against a
// [64, n] weight, n swept over the model's output widths (d_model, the
// schema node count, the FFN width). Runs the active table's kernel, so
// the table's row blocking (64-wide blocks and a masked tail) shows here.
void MatMulRowBench(benchmark::State& state,
                    const nn::kernels::KernelTable& table) {
  const int m = 34, k = 64;
  const int n = static_cast<int>(state.range(0));
  Rng rng(17);
  std::vector<float> a(static_cast<size_t>(m) * k);
  std::vector<float> b(static_cast<size_t>(k) * n);
  std::vector<float> out(static_cast<size_t>(m) * n, 0.0f);
  for (auto& v : a) v = static_cast<float>(rng.NextGaussian());
  for (auto& v : b) v = static_cast<float>(rng.NextGaussian());
  for (auto _ : state) {
    std::fill(out.begin(), out.end(), 0.0f);
    table.Gemm(a.data(), k, b.data(), n, out.data(), n, m, k, n, {});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(table.name);
  state.SetItemsProcessed(state.iterations() * 2LL * m * k * n);
}

void BM_MatMulRow(benchmark::State& state) {
  MatMulRowBench(state, nn::kernels::Active());
}
BENCHMARK(BM_MatMulRow)->Arg(64)->Arg(92)->Arg(128);

void BM_MatMulRowAvx512(benchmark::State& state) {
  if (!nn::kernels::Avx512Supported()) {
    state.SkipWithError("AVX-512F unavailable on this host");
    return;
  }
  SingleThreadPool single;
  MatMulRowBench(state, *nn::kernels::Avx512Table());
}
BENCHMARK(BM_MatMulRowAvx512)->Arg(64)->Arg(92)->Arg(128);

// One Trm_g layer's schema cross attention at the serving shape: a B=1
// batch of T=34 query rows attending over N=92 schema nodes (d=64, 4
// heads), inference mode. "Fresh" projects the schema's keys/values on
// every call (Forward); "Memo" attends to keys/values projected once, as
// PreqrEncoder does (bitwise the same result).
void SchemaCrossAttentionBench(benchmark::State& state, bool memo) {
  const int t = 34, n = 92, d = 64;
  Rng rng(18);
  nn::MultiHeadAttention attn(d, 4, rng);
  attn.set_train(false);
  nn::NoGradGuard no_grad;
  const nn::Tensor q = nn::Tensor::Randn({1, t, d}, rng, 1.0f);
  // The schema branch ends in a ReLU, so about half its entries are zero.
  const nn::Tensor schema = nn::Relu(nn::Tensor::Randn({n, d}, rng, 1.0f));
  const nn::AttentionKv kv = attn.ProjectKv(schema);
  for (auto _ : state) {
    benchmark::DoNotOptimize(memo ? attn.Attend(q, kv)
                                  : attn.Forward(q, schema));
  }
}

void BM_SchemaCrossAttentionFresh(benchmark::State& state) {
  SchemaCrossAttentionBench(state, /*memo=*/false);
}
BENCHMARK(BM_SchemaCrossAttentionFresh);

void BM_SchemaCrossAttentionMemo(benchmark::State& state) {
  SchemaCrossAttentionBench(state, /*memo=*/true);
}
BENCHMARK(BM_SchemaCrossAttentionMemo);

void BM_MatMulForward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(11);
  nn::Tensor a = nn::Tensor::Randn({n, n}, rng, 1.0f);
  nn::Tensor b = nn::Tensor::Randn({n, n}, rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_MatMulForward)->Arg(96)->Arg(192);

void BM_MatMulBackward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(12);
  for (auto _ : state) {
    state.PauseTiming();
    nn::Tensor a = nn::Tensor::Randn({n, n}, rng, 1.0f, true);
    nn::Tensor b = nn::Tensor::Randn({n, n}, rng, 1.0f, true);
    nn::Tensor loss = nn::Sum(nn::MatMul(a, b));
    state.ResumeTiming();
    loss.Backward();
  }
  state.SetItemsProcessed(state.iterations() * 4LL * n * n * n);
}
BENCHMARK(BM_MatMulBackward)->Arg(96)->Arg(192);

void BM_AttentionSoftmaxRows(benchmark::State& state) {
  Rng rng(13);
  nn::Tensor x = nn::Tensor::Randn({512, 512}, rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::SoftmaxLastDim(x));
  }
}
BENCHMARK(BM_AttentionSoftmaxRows);

void BM_MultiHeadAttention(benchmark::State& state) {
  Rng rng(14);
  nn::MultiHeadAttention attn(64, 4, rng);
  nn::Tensor q = nn::Tensor::Randn({128, 64}, rng, 1.0f);
  nn::Tensor kv = nn::Tensor::Randn({128, 64}, rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attn.Forward(q, kv));
  }
}
BENCHMARK(BM_MultiHeadAttention);

void BM_LayerNormRows(benchmark::State& state) {
  Rng rng(15);
  nn::Tensor x = nn::Tensor::Randn({512, 256}, rng, 1.0f);
  nn::Tensor gamma = nn::Tensor::Full({256}, 1.0f);
  nn::Tensor beta = nn::Tensor::Full({256}, 0.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::LayerNormOp(x, gamma, beta));
  }
}
BENCHMARK(BM_LayerNormRows);

void BM_EmbeddingScatterBackward(benchmark::State& state) {
  Rng rng(16);
  std::vector<int> ids;
  ids.reserve(2048);
  for (int i = 0; i < 2048; ++i) ids.push_back(rng.NextInt(0, 512));
  for (auto _ : state) {
    state.PauseTiming();
    nn::Tensor w = nn::Tensor::Randn({512, 64}, rng, 1.0f, true);
    nn::Tensor loss = nn::Sum(nn::Gather(w, ids));
    state.ResumeTiming();
    loss.Backward();
  }
}
BENCHMARK(BM_EmbeddingScatterBackward);

}  // namespace
}  // namespace preqr

BENCHMARK_MAIN();
