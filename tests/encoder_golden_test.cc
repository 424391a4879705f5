// Golden pin for the PreQR encode path: a fixed seeded corpus of 32 queries
// (one malformed, one with no predicates) was encoded through
// PreqrEncoder::TryEncodeVector while the solo (unbatched) SQLBERT forward
// still existed, and the bits recorded as FNV-1a hashes: the inference
// embedding, the train-mode embedding, and the last-layer parameter
// gradients after Sum(v*v).Backward(). The suite asserts the current encode
// path reproduces every one of them exactly. The first pin forces the
// scalar kernel table so it does not depend on the host's SIMD support; the
// second pins the same corpus under the AVX2 table (the serving hot path)
// and skips on hosts without AVX2. A third test replays the AVX2 pins under
// the AVX-512 table, which must match them bit for bit.
//
// Regenerate (only legitimate after an intentional numerics change):
//   PREQR_GOLDEN_REGEN=1 ./build/tests/encoder_golden_test
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "automaton/template_extractor.h"
#include "core/preqr_model.h"
#include "db/stats.h"
#include "nn/kernels_dispatch.h"
#include "nn/ops.h"
#include "schema/schema_graph.h"
#include "tasks/preqr_encoder.h"
#include "text/tokenizer.h"
#include "workload/imdb.h"
#include "workload/query_gen.h"

#ifndef PREQR_GOLDEN_FILE
#define PREQR_GOLDEN_FILE "encoder_golden.txt"
#endif
#ifndef PREQR_GOLDEN_AVX2_FILE
#define PREQR_GOLDEN_AVX2_FILE "encoder_golden_avx2.txt"
#endif

namespace preqr::tasks {
namespace {

uint64_t Fnv1a(const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t HashString(const std::string& s) { return Fnv1a(s.data(), s.size()); }

uint64_t HashFloats(const std::vector<float>& v) {
  return Fnv1a(v.data(), v.size() * sizeof(float));
}

struct Env {
  db::Database imdb = workload::MakeImdbDatabase(5, 0.02);
  std::vector<db::TableStats> stats;
  std::unique_ptr<text::SqlTokenizer> tokenizer;
  automaton::Automaton fa;
  schema::SchemaGraph graph;
  std::vector<std::string> corpus;

  Env() {
    db::StatsCollector collector;
    stats = collector.AnalyzeAll(imdb);
    tokenizer = std::make_unique<text::SqlTokenizer>(imdb.catalog(), stats, 8);
    workload::ImdbQueryGenerator gen(imdb, 13);
    for (const auto& q : gen.Synthetic(30, 2)) corpus.push_back(q.sql);
    automaton::TemplateExtractor extractor(0.2);
    fa = extractor.BuildAutomaton(corpus).value();
    graph = schema::SchemaGraph::Build(imdb.catalog());
    corpus.push_back("SELECT COUNT(*) FROM title");
    corpus.push_back("SELECT FROM WHERE !!! not sql");
  }
};

// One query's pinned encode record. A malformed query records its Status
// text hash in vec_hash and zeros elsewhere.
struct GoldenRow {
  uint64_t sql_hash = 0;
  uint64_t ok = 0;
  uint64_t vec_hash = 0;        // TryEncodeVector(sql, false)
  uint64_t train_vec_hash = 0;  // TryEncodeVector(sql, true)
  uint64_t grad_hash = 0;       // last-layer grads of Sum(v*v)
};

// Hashes every corpus query's encode record.
std::vector<GoldenRow> ComputeRows(const Env& env) {
  core::PreqrModel model(core::PreqrConfig(), env.tokenizer.get(), &env.fa,
                         &env.graph, 29);
  const std::vector<nn::Tensor> params = model.LastLayerParameters();
  PreqrEncoder infer(&model);
  PreqrEncoder train(&model);  // its own cache: computes every prefix again
  std::vector<GoldenRow> rows;
  for (const auto& sql : env.corpus) {
    GoldenRow row;
    row.sql_hash = HashString(sql);
    auto v = infer.TryEncodeVector(sql, /*train=*/false);
    if (!v.ok()) {
      row.vec_hash = HashString(v.status().ToString());
      EXPECT_FALSE(train.TryEncodeVector(sql, /*train=*/true).ok()) << sql;
      rows.push_back(row);
      continue;
    }
    row.ok = 1;
    row.vec_hash = HashFloats(v.value().vec());
    for (auto p : params) p.ZeroGrad();
    auto t = train.TryEncodeVector(sql, /*train=*/true);
    EXPECT_TRUE(t.ok()) << sql;
    if (!t.ok()) {
      rows.push_back(row);
      continue;
    }
    row.train_vec_hash = HashFloats(t.value().vec());
    nn::Sum(nn::Mul(t.value(), t.value())).Backward();
    std::vector<float> grads;
    for (const auto& p : params) {
      grads.insert(grads.end(), p.grad_vec().begin(), p.grad_vec().end());
    }
    row.grad_hash = HashFloats(grads);
    rows.push_back(row);
  }
  return rows;
}

// A golden file holds one line per query: five hex/decimal columns.
std::vector<GoldenRow> LoadGolden(const char* path) {
  std::vector<GoldenRow> rows;
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) return rows;
  GoldenRow r;
  while (std::fscanf(f,
                     "%" SCNx64 " %" SCNu64 " %" SCNx64 " %" SCNx64
                     " %" SCNx64,
                     &r.sql_hash, &r.ok, &r.vec_hash, &r.train_vec_hash,
                     &r.grad_hash) == 5) {
    rows.push_back(r);
  }
  std::fclose(f);
  return rows;
}

void WriteGolden(const char* path, const std::vector<GoldenRow>& rows) {
  FILE* f = std::fopen(path, "w");
  ASSERT_NE(f, nullptr) << "cannot write " << path;
  for (const auto& r : rows) {
    std::fprintf(f,
                 "%016" PRIx64 " %" PRIu64 " %016" PRIx64 " %016" PRIx64
                 " %016" PRIx64 "\n",
                 r.sql_hash, r.ok, r.vec_hash, r.train_vec_hash, r.grad_hash);
  }
  std::fclose(f);
}

bool Regenerating() {
  const char* regen = std::getenv("PREQR_GOLDEN_REGEN");
  return regen != nullptr && regen[0] == '1';
}

// Encodes the corpus under the active kernel table and compares (or, with
// PREQR_GOLDEN_REGEN=1, rewrites) the pinned records in `path`.
void CheckGolden(const char* path) {
  const Env env;
  ASSERT_EQ(env.corpus.size(), 32u);
  const auto rows = ComputeRows(env);

  if (Regenerating()) {
    WriteGolden(path, rows);
    GTEST_SKIP() << "regenerated " << path;
  }

  const auto golden = LoadGolden(path);
  ASSERT_EQ(golden.size(), rows.size())
      << "golden file " << path
      << " missing or stale; regenerate with PREQR_GOLDEN_REGEN=1 only if "
         "the encoder's numerics changed intentionally";
  int ok = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i) + ": " + env.corpus[i]);
    EXPECT_EQ(rows[i].sql_hash, golden[i].sql_hash)
        << "corpus drifted — the seeded generator changed";
    EXPECT_EQ(rows[i].ok, golden[i].ok);
    EXPECT_EQ(rows[i].vec_hash, golden[i].vec_hash);
    EXPECT_EQ(rows[i].train_vec_hash, golden[i].train_vec_hash);
    EXPECT_EQ(rows[i].grad_hash, golden[i].grad_hash);
    ok += static_cast<int>(rows[i].ok);
  }
  // Exactly the malformed query gets a Status.
  EXPECT_EQ(ok, static_cast<int>(rows.size()) - 1);
}

TEST(EncoderGoldenTest, EncodeReproducesPinnedBitsAndGradients) {
  ASSERT_TRUE(nn::kernels::SetActiveImpl("scalar"));
  CheckGolden(PREQR_GOLDEN_FILE);
}

// The serving hot path: the AVX2 table.
TEST(EncoderGoldenTest, Avx2EncodeReproducesPinnedBits) {
  if (!nn::kernels::SetActiveImpl("avx2")) {
    GTEST_SKIP() << "AVX2+FMA not available on this host";
  }
  CheckGolden(PREQR_GOLDEN_AVX2_FILE);
}

// The AVX-512 table is bitwise identical to AVX2 by contract, so it must
// reproduce the AVX2 pins as they are; it never regenerates them.
TEST(EncoderGoldenTest, Avx512ReproducesAvx2PinnedBits) {
  if (!nn::kernels::SetActiveImpl("avx512")) {
    GTEST_SKIP() << "AVX-512F not available on this host";
  }
  if (Regenerating()) GTEST_SKIP() << "the AVX2 pins regenerate under avx2";
  CheckGolden(PREQR_GOLDEN_AVX2_FILE);
}

}  // namespace
}  // namespace preqr::tasks
