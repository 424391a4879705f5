// Grammar-driven SQL fuzzing + concurrent stress harness (ISSUE 6): the
// deterministic fuzz stream, the 10k-query front-door drill over
// lexer/parser/automaton/tokenizer, batch-poisoning checks, fallback metric
// accounting, and encodes racing ReloadModel/InvalidateCache. Re-run under
// ASan and TSan by scripts/check.sh's FUZZ stage; scripts/fuzz.sh scales
// the same suites up via PREQR_FUZZ_QUERIES / PREQR_FUZZ_SEEDS.
#include "workload/sql_fuzz.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "automaton/template_extractor.h"
#include "nn/kernels_dispatch.h"
#include "db/stats.h"
#include "nn/serialize.h"
#include "schema/schema_graph.h"
#include "serving/encoder_service.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "tasks/preqr_encoder.h"
#include "text/tokenizer.h"
#include "workload/imdb.h"
#include "workload/query_gen.h"
#include "test_temp_dir.h"

namespace preqr::workload {
namespace {

std::vector<uint64_t> FuzzSeeds() {
  return SeedsFromEnv("PREQR_FUZZ_SEEDS", {101, 102, 103});
}

uint64_t FuzzQueryBudget(uint64_t default_count) {
  const auto v = SeedsFromEnv("PREQR_FUZZ_QUERIES", {default_count});
  return v.front() == 0 ? default_count : v.front();
}

struct Env {
  db::Database imdb = MakeImdbDatabase(7, 0.02);
  std::vector<db::TableStats> stats;
  std::unique_ptr<text::SqlTokenizer> tokenizer;
  automaton::Automaton fa;
  schema::SchemaGraph graph;
  std::vector<std::string> corpus;

  Env() {
    db::StatsCollector collector;
    stats = collector.AnalyzeAll(imdb);
    tokenizer = std::make_unique<text::SqlTokenizer>(imdb.catalog(), stats, 8);
    ImdbQueryGenerator gen(imdb, 3);
    std::unordered_set<std::string> seen;
    for (const auto& q : gen.Synthetic(16, 2)) {
      if (seen.insert(q.sql).second) corpus.push_back(q.sql);
    }
    automaton::TemplateExtractor extractor(0.2);
    fa = extractor.BuildAutomaton(corpus).value();
    graph = schema::SchemaGraph::Build(imdb.catalog());
  }
  core::PreqrModel MakeModel() {
    core::PreqrConfig config;
    config.d_model = 16;
    config.num_heads = 2;
    config.ffn_hidden = 32;
    config.state_dim = 8;
    config.pos_dim = 8;
    return core::PreqrModel(config, tokenizer.get(), &fa, &graph, 17);
  }
  // Fuzz shapes for the encode-path tests: smaller extremes than the
  // front-door drill so transformer forwards stay cheap.
  SqlFuzzOptions EncodeOptions() const {
    SqlFuzzOptions options;
    options.max_in_list = 12;
    options.max_join_chain = 6;
    options.max_subquery_depth = 2;
    options.max_union_chain = 1;
    return options;
  }
};

Env& E() {
  static Env* env = new Env();
  return *env;
}

// --- The deterministic stream --------------------------------------------

TEST(SqlFuzzerTest, StreamIsBitwiseDeterministicPerSeed) {
  for (uint64_t seed : FuzzSeeds()) {
    SqlFuzzer a(E().imdb.catalog(), seed);
    SqlFuzzer b(E().imdb.catalog(), seed);
    for (int i = 0; i < 500; ++i) {
      const FuzzCase ca = a.Next();
      const FuzzCase cb = b.Next();
      ASSERT_EQ(ca.sql, cb.sql) << "seed=" << seed << " index=" << i;
      ASSERT_EQ(ca.from_grammar, cb.from_grammar)
          << "seed=" << seed << " index=" << i;
    }
  }
}

TEST(SqlFuzzerTest, CaseAtIsRandomAccessIntoTheSameStream) {
  SqlFuzzer stream(E().imdb.catalog(), 99);
  std::vector<FuzzCase> sequential;
  for (int i = 0; i < 64; ++i) sequential.push_back(stream.Next());
  SqlFuzzer random(E().imdb.catalog(), 99);
  // Access out of order: every case is a pure function of (seed, index).
  for (int i = 63; i >= 0; --i) {
    const FuzzCase c = random.CaseAt(static_cast<uint64_t>(i));
    EXPECT_EQ(c.sql, sequential[static_cast<size_t>(i)].sql) << c.Describe();
  }
}

TEST(SqlFuzzerTest, DifferentSeedsDiverge) {
  SqlFuzzer a(E().imdb.catalog(), 1);
  SqlFuzzer b(E().imdb.catalog(), 2);
  int differing = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Next().sql != b.Next().sql) ++differing;
  }
  EXPECT_GT(differing, 40);
}

// Every grammar-generated (non-mutated) case must parse: the generator
// follows the parser's grammar exactly, including mixed-case keywords,
// pathological whitespace, deep join chains, and huge IN lists.
TEST(SqlFuzzerTest, GrammarCasesAlwaysParse) {
  for (uint64_t seed : FuzzSeeds()) {
    SqlFuzzer fuzzer(E().imdb.catalog(), seed);
    int grammar_cases = 0;
    for (int i = 0; i < 300; ++i) {
      const FuzzCase c = fuzzer.Next();
      if (!c.from_grammar) continue;
      ++grammar_cases;
      auto parsed = sql::Parse(c.sql);
      ASSERT_TRUE(parsed.ok())
          << parsed.status().ToString() << "\n  " << c.Describe();
    }
    EXPECT_GT(grammar_cases, 100) << "seed=" << seed;
  }
}

// The generator reaches the extremes it promises (deep joins, huge IN
// lists, mutated garbage) — otherwise the whole harness fuzzes a toy
// distribution and the stress results mean nothing.
TEST(SqlFuzzerTest, StreamCoversTheExtremes) {
  SqlFuzzer fuzzer(E().imdb.catalog(), 7);
  size_t max_tables = 0, max_in = 0;
  int mutated = 0, grammar = 0, parse_failures = 0;
  for (int i = 0; i < 2000; ++i) {
    const FuzzCase c = fuzzer.Next();
    c.from_grammar ? ++grammar : ++mutated;
    auto parsed = sql::Parse(c.sql);
    if (!parsed.ok()) {
      ++parse_failures;
      continue;
    }
    max_tables = std::max(max_tables, parsed.value().tables.size());
    for (const auto& p : parsed.value().predicates) {
      max_in = std::max(max_in, p.values.size());
    }
  }
  EXPECT_GE(max_tables, 8u);
  EXPECT_GE(max_in, 40u);
  EXPECT_GT(mutated, 500);
  EXPECT_GT(grammar, 500);
  // Mutations must actually break queries some of the time.
  EXPECT_GT(parse_failures, 200);
}

// --- Front-door drill: tokenizer, parser, automaton ----------------------

// The 10k-query mixed valid/mutated run (PREQR_FUZZ_QUERIES scales it up
// for scripts/fuzz.sh long runs): lexer, parser, structural symbols,
// template normalization, automaton match, and the schema-aware tokenizer
// must never crash; every failure surfaces as a Status; grammar cases
// tokenize end to end.
TEST(FuzzFrontDoorTest, TenThousandQueriesNeverCrashThePipeline) {
  const uint64_t budget = FuzzQueryBudget(10000);
  const auto seeds = FuzzSeeds();
  const uint64_t per_seed = budget / seeds.size() + 1;
  uint64_t ran = 0, lex_errors = 0, parse_errors = 0;
  for (uint64_t seed : seeds) {
    SqlFuzzer fuzzer(E().imdb.catalog(), seed);
    for (uint64_t i = 0; i < per_seed; ++i) {
      const FuzzCase c = fuzzer.Next();
      ++ran;
      auto lexed = sql::Lex(c.sql);
      auto parsed = sql::Parse(c.sql);
      auto tokenized = E().tokenizer->Tokenize(c.sql);
      if (!lexed.ok()) {
        ++lex_errors;
        // A lex failure must carry a message and imply parse/tokenize
        // failure — never a crash, never a silent success downstream.
        ASSERT_FALSE(lexed.status().message().empty()) << c.Describe();
        ASSERT_FALSE(parsed.ok()) << c.Describe();
        ASSERT_FALSE(tokenized.ok()) << c.Describe();
      } else {
        // Lex-ok inputs feed the automaton channel unconditionally (the
        // serving path symbolizes before parsing).
        const auto symbols = automaton::StructuralSymbols(lexed.value());
        ASSERT_EQ(symbols.size(), lexed.value().size()) << c.Describe();
        const auto match = E().fa.Match(symbols);
        ASSERT_EQ(match.states.size(), symbols.size()) << c.Describe();
        const auto norm = automaton::NormalizeForTemplate(c.sql);
        ASSERT_TRUE(norm.ok()) << norm.status().ToString() << c.Describe();
        const double self =
            automaton::TemplateDistance(norm.value(), norm.value());
        ASSERT_GE(self, 0.0) << c.Describe();
        ASSERT_LE(self, 1.0) << c.Describe();
      }
      if (!parsed.ok()) {
        ++parse_errors;
        ASSERT_FALSE(parsed.status().message().empty()) << c.Describe();
        ASSERT_FALSE(tokenized.ok()) << c.Describe();
      } else {
        ASSERT_TRUE(tokenized.ok())
            << tokenized.status().ToString() << "\n  " << c.Describe();
        // Aligned channels: one symbol/quantile per token, [CLS] first.
        const auto& t = tokenized.value();
        ASSERT_EQ(t.tokens.size(), t.ids.size()) << c.Describe();
        ASSERT_EQ(t.tokens.size(), t.symbols.size()) << c.Describe();
        ASSERT_EQ(t.tokens.size(), t.quantiles.size()) << c.Describe();
        ASSERT_EQ(t.tokens.front(), "[CLS]") << c.Describe();
      }
      if (c.from_grammar) {
        ASSERT_TRUE(parsed.ok())
            << parsed.status().ToString() << "\n  " << c.Describe();
      }
    }
  }
  EXPECT_GE(ran, budget);
  // The mix actually mixes: both healthy and broken inputs ran.
  EXPECT_GT(parse_errors, ran / 10);
  EXPECT_LT(parse_errors, ran);
  EXPECT_GT(lex_errors, 0u);
  std::printf("[fuzz] front door: %llu queries, %llu lex errors, %llu parse "
              "errors\n",
              static_cast<unsigned long long>(ran),
              static_cast<unsigned long long>(lex_errors),
              static_cast<unsigned long long>(parse_errors));
}

// Regression shapes for the parser hardening that fuzzing motivated: deep
// nesting is a Status (not a stack overflow), out-of-int64 literals are a
// Status (not undefined behavior), and both keep the message actionable.
TEST(FuzzFrontDoorTest, HostileShapesReturnStatusNotCrash) {
  // 400 nested IN-subqueries: far past the parser's depth limit.
  std::string deep = "SELECT a FROM t WHERE x IN (";
  for (int i = 0; i < 399; ++i) deep += "SELECT a FROM t WHERE x IN (";
  deep += "SELECT a FROM t";
  for (int i = 0; i < 400; ++i) deep += ")";
  auto nested = sql::Parse(deep);
  ASSERT_FALSE(nested.ok());
  EXPECT_NE(nested.status().message().find("depth"), std::string::npos);

  // 400-branch UNION chain recurses just like subqueries.
  std::string unions = "SELECT a FROM t";
  for (int i = 0; i < 400; ++i) unions += " UNION SELECT a FROM t";
  auto chained = sql::Parse(unions);
  ASSERT_FALSE(chained.ok());
  EXPECT_NE(chained.status().message().find("depth"), std::string::npos);

  // Out-of-range integer literals in every literal position.
  for (const char* sql :
       {"SELECT a FROM t WHERE x = 99999999999999999999",
        "SELECT a FROM t WHERE x IN (1, 99999999999999999999)",
        "SELECT a FROM t WHERE x BETWEEN 1 AND 99999999999999999999",
        "SELECT a FROM t LIMIT 99999999999999999999"}) {
    auto parsed = sql::Parse(sql);
    ASSERT_FALSE(parsed.ok()) << sql;
    EXPECT_NE(parsed.status().message().find("int64"), std::string::npos)
        << sql;
  }
  // Depth *under* the limit still parses — the cap only rejects hostile
  // nesting, not deep-but-legal workloads.
  std::string legal = "SELECT a FROM t";
  for (int i = 0; i < 30; ++i) legal += " UNION SELECT a FROM t";
  EXPECT_TRUE(sql::Parse(legal).ok());
}

// --- Minimizer ------------------------------------------------------------

TEST(FuzzMinimizeTest, MinimizerShrinksWhilePreservingTheFailure) {
  const std::string original =
      "SELECT title.id, COUNT( * ) FROM title , movie_info WHERE "
      "title.production_year = 99999999999999999999 AND title.id = "
      "movie_info.movie_id ORDER BY title.id DESC LIMIT 5";
  auto fails_int64 = [](const std::string& candidate) {
    auto parsed = sql::Parse(candidate);
    return !parsed.ok() &&
           parsed.status().message().find("int64") != std::string::npos;
  };
  ASSERT_TRUE(fails_int64(original));
  const std::string minimized = SqlFuzzer::Minimize(original, fails_int64);
  EXPECT_TRUE(fails_int64(minimized));
  EXPECT_LT(minimized.size(), original.size() / 2)
      << "minimized to: " << minimized;
  // A predicate nothing satisfies leaves the input untouched.
  EXPECT_EQ(SqlFuzzer::Minimize("SELECT 1", [](const std::string&) {
              return false;
            }),
            "SELECT 1");
}

// --- Encode path: batches, fallbacks, metrics -----------------------------

void ExpectBitwiseEqual(const std::vector<float>& a,
                        const std::vector<float>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (a.empty()) return;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what << ": bitwise mismatch";
}

// Malformed batch members must never poison neighbors: every valid slot of
// a hostile mixed batch is bitwise-identical to encoding it alone.
TEST(FuzzEncodeTest, MixedBatchesNeverPoisonNeighbors) {
  auto model = E().MakeModel();
  tasks::PreqrEncoder reference(&model);
  tasks::PreqrEncoder wrapped(&model);
  serving::EncoderService service(&wrapped);

  SqlFuzzer fuzzer(E().imdb.catalog(), 11, E().EncodeOptions());
  std::vector<FuzzCase> cases;
  for (int i = 0; i < 48; ++i) cases.push_back(fuzzer.Next());
  std::vector<std::string> sqls;
  for (const auto& c : cases) sqls.push_back(c.sql);

  auto batched = service.EncodeBatch(sqls);
  ASSERT_EQ(batched.size(), sqls.size());
  int ok_slots = 0, error_slots = 0;
  for (size_t i = 0; i < sqls.size(); ++i) {
    auto solo = reference.TryEncodeVector(sqls[i], /*train=*/false);
    ASSERT_EQ(batched[i].ok(), solo.ok()) << cases[i].Describe();
    if (solo.ok()) {
      ++ok_slots;
      ExpectBitwiseEqual(solo.value().vec(), batched[i].value().vec(),
                         cases[i].Describe());
    } else {
      ++error_slots;
      EXPECT_FALSE(batched[i].status().message().empty())
          << cases[i].Describe();
    }
  }
  // The stream mixed healthy and broken slots in one batch.
  EXPECT_GT(ok_slots, 0);
  EXPECT_GT(error_slots, 0);
  EXPECT_EQ(service.metrics().errors.value(),
            static_cast<uint64_t>(error_slots));
}

// encode_fallback_total accounts for every query the legacy zero-vector
// path sheds, and the padded-batch occupancy stats keep moving.
TEST(FuzzEncodeTest, FallbackMetricsAccountForEveryShedQuery) {
  auto model = E().MakeModel();
  tasks::PreqrEncoder encoder(&model);

  SqlFuzzer fuzzer(E().imdb.catalog(), 13, E().EncodeOptions());
  std::vector<std::string> sqls;
  int malformed = 0;
  for (int i = 0; i < 40; ++i) {
    const FuzzCase c = fuzzer.Next();
    sqls.push_back(c.sql);
    if (!sql::Parse(c.sql).ok()) ++malformed;
  }
  ASSERT_GT(malformed, 0);

  const auto before = serving::GlobalEncodePathStats();
  auto vectors = encoder.EncodeVectorBatch(sqls, /*train=*/false);
  const auto after = serving::GlobalEncodePathStats();
  ASSERT_EQ(vectors.size(), sqls.size());
  // Exactly the unparseable queries fell back; each still produced a
  // correctly-shaped vector so downstream task loops keep working.
  EXPECT_EQ(after.fallback_total - before.fallback_total,
            static_cast<uint64_t>(malformed));
  for (const auto& v : vectors) {
    EXPECT_EQ(static_cast<int>(v.size()), encoder.dim());
  }
  EXPECT_GT(after.padded_batches, before.padded_batches);
  EXPECT_GE(after.valid_tokens, before.valid_tokens);
  EXPECT_GE(after.Occupancy(), 0.0);
  EXPECT_LE(after.Occupancy(), 1.0);
}

// --- Kernel-path drill: scalar vs AVX2 vs AVX-512 --------------------------

// Replays the checked-in fuzz corpus plus a deterministic fuzz stream
// through every kernel path the encoder can take: the scalar table and the
// AVX2 and AVX-512 tables (when the host supports them). Invariants:
// per-slot Status parity across paths (the accept/reject decision must not
// depend on the kernel impl) and same-impl reruns are bitwise identical
// (the determinism contract).
TEST(FuzzKernelPathTest, CorpusAndFuzzStreamAgreeAcrossKernelPaths) {
  const char* entry_impl = nn::kernels::ActiveImplName();

  // Inputs: every corpus file + a capped fuzz stream (PREQR_FUZZ_QUERIES
  // scales it; scripts/fuzz.sh long runs push it to the full 2k+).
  std::vector<std::string> sqls;
  {
    const std::filesystem::path dir(PREQR_FUZZ_CORPUS_DIR);
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() != ".sql") continue;
      std::ifstream in(entry.path());
      std::string sql((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
      while (!sql.empty() && (sql.back() == '\n' || sql.back() == '\r')) {
        sql.pop_back();
      }
      if (!sql.empty()) sqls.push_back(std::move(sql));
    }
    ASSERT_GT(sqls.size(), 5u) << "corpus missing under "
                               << PREQR_FUZZ_CORPUS_DIR;
    SqlFuzzer fuzzer(E().imdb.catalog(), 77, E().EncodeOptions());
    const uint64_t budget = FuzzQueryBudget(2000);
    for (uint64_t i = 0; i < budget; ++i) sqls.push_back(fuzzer.Next().sql);
  }

  auto model = E().MakeModel();
  // Encodes the whole input set in padded batches under the *current*
  // kernel impl with a fresh encoder (fresh cache) and returns per-slot
  // results.
  auto encode_all = [&] {
    tasks::PreqrEncoder encoder(&model);
    std::vector<StatusOr<nn::Tensor>> results;
    results.reserve(sqls.size());
    constexpr size_t kBatch = 32;
    for (size_t at = 0; at < sqls.size(); at += kBatch) {
      const size_t n = std::min(kBatch, sqls.size() - at);
      std::vector<std::string> chunk(sqls.begin() + at,
                                     sqls.begin() + at + n);
      auto part = encoder.TryEncodeVectorBatch(chunk, /*train=*/false);
      for (auto& r : part) results.push_back(std::move(r));
    }
    return results;
  };

  ASSERT_TRUE(nn::kernels::SetActiveImpl("scalar"));
  const auto scalar_a = encode_all();
  const auto scalar_b = encode_all();
  ASSERT_EQ(scalar_a.size(), sqls.size());

  int ok_slots = 0, error_slots = 0;
  for (size_t i = 0; i < sqls.size(); ++i) {
    // Same impl, fresh cache: bitwise identical, slot by slot.
    ASSERT_EQ(scalar_a[i].ok(), scalar_b[i].ok()) << sqls[i];
    if (scalar_a[i].ok()) {
      ++ok_slots;
      ExpectBitwiseEqual(scalar_a[i].value().vec(), scalar_b[i].value().vec(),
                         "scalar rerun: " + sqls[i]);
    } else {
      ++error_slots;
      EXPECT_EQ(scalar_a[i].status().code(), scalar_b[i].status().code())
          << sqls[i];
    }
  }
  // The drill actually mixed healthy and broken inputs.
  EXPECT_GT(ok_slots, 0);
  EXPECT_GT(error_slots, 0);

  if (nn::kernels::Avx2Supported()) {
    ASSERT_TRUE(nn::kernels::SetActiveImpl("avx2"));
    const auto avx_a = encode_all();
    const auto avx_b = encode_all();
    for (size_t i = 0; i < sqls.size(); ++i) {
      // The accept/reject decision is impl-independent...
      ASSERT_EQ(avx_a[i].ok(), scalar_a[i].ok())
          << "avx2 Status parity: " << sqls[i];
      if (!avx_a[i].ok()) {
        EXPECT_EQ(avx_a[i].status().code(), scalar_a[i].status().code())
            << sqls[i];
        continue;
      }
      // ...avx2 is bitwise self-consistent across reruns...
      ExpectBitwiseEqual(avx_a[i].value().vec(), avx_b[i].value().vec(),
                         "avx2 rerun: " + sqls[i]);
      // ...and tracks scalar within float low-bit tolerance (FMA
      // contraction + the polynomial exp differ legitimately).
      const auto& s = scalar_a[i].value().vec();
      const auto& v = avx_a[i].value().vec();
      ASSERT_EQ(s.size(), v.size());
      for (size_t j = 0; j < s.size(); ++j) {
        EXPECT_NEAR(v[j], s[j], 1e-3 * std::max(1.0f, std::abs(s[j])))
            << "slot " << i << " dim " << j << ": " << sqls[i];
      }
    }
    // The avx512 table's contract is stronger: the avx2 bits exactly.
    if (nn::kernels::Avx512Supported()) {
      ASSERT_TRUE(nn::kernels::SetActiveImpl("avx512"));
      const auto wide = encode_all();
      for (size_t i = 0; i < sqls.size(); ++i) {
        ASSERT_EQ(wide[i].ok(), avx_a[i].ok())
            << "avx512 Status parity: " << sqls[i];
        if (!wide[i].ok()) continue;
        ExpectBitwiseEqual(wide[i].value().vec(), avx_a[i].value().vec(),
                           "avx512 vs avx2: " + sqls[i]);
      }
    }
  }
  std::printf("[fuzz] kernel paths: %zu queries (%d ok, %d rejected), "
              "avx2 %s, avx512 %s\n",
              sqls.size(), ok_slots, error_slots,
              nn::kernels::Avx2Supported() ? "exercised" : "unavailable",
              nn::kernels::Avx512Supported() ? "exercised" : "unavailable");
  ASSERT_TRUE(nn::kernels::SetActiveImpl(entry_impl));
}

// --- The concurrent stress drill ------------------------------------------

// The drills' invariant violations, counted per invariant with the first
// offending Status (or detail) of each, so a failing drill names what
// broke instead of reporting a bare total.
class InvariantLog {
 public:
  void Violate(const std::string& invariant, const std::string& detail) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& entry = by_invariant_[invariant];
    if (entry.count++ == 0) entry.first = detail;
  }
  void Violate(const std::string& invariant, const Status& status) {
    Violate(invariant, status.ToString());
  }

  int total() const {
    std::lock_guard<std::mutex> lock(mu_);
    int n = 0;
    for (const auto& [name, entry] : by_invariant_) n += entry.count;
    return n;
  }

  // One line per broken invariant: "<invariant>: <count> (first: <detail>)".
  std::string Report() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    for (const auto& [name, entry] : by_invariant_) {
      out += name + ": " + std::to_string(entry.count) +
             " (first: " + entry.first + ")\n";
    }
    return out;
  }

 private:
  struct Entry {
    int count = 0;
    std::string first;
  };
  mutable std::mutex mu_;
  std::map<std::string, Entry> by_invariant_;
};

// Mixed valid/mutated streams fired at EncoderService from 4 threads while
// a fifth hot-reloads the model (including failing reloads) and a sixth
// invalidates the cache. Invariants: no crash, every failure is a Status,
// valid grammar queries always encode, request accounting stays exact, and
// the service still serves correct bits afterwards. scripts/check.sh runs
// this under both ASan and TSan.
TEST(FuzzStressTest, EncodesRacingReloadAndInvalidateStayStatusClean) {
  auto model = E().MakeModel();
  tasks::PreqrEncoder encoder(&model);
  serving::EncoderService service(&encoder);
  service.AttachModel(&model);

  // A reload source: the same architecture with different weights.
  const std::string path = test::TempPath("fuzz_reload.prm1");
  {
    auto donor = E().MakeModel();
    ASSERT_TRUE(nn::SaveModule(donor, path).ok());
  }

  constexpr int kEncodeThreads = 4;
  constexpr int kCasesPerThread = 80;
  std::atomic<uint64_t> issued{0};
  std::atomic<uint64_t> ok_results{0};
  std::atomic<uint64_t> error_results{0};
  InvariantLog violations;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kEncodeThreads; ++t) {
    threads.emplace_back([&, t] {
      // Overlapping seeds across threads: duplicates force cache hits and
      // coalesced batches alongside fresh encodes.
      SqlFuzzer fuzzer(E().imdb.catalog(), 200 + static_cast<uint64_t>(t / 2),
                       E().EncodeOptions());
      for (int i = 0; i < kCasesPerThread; ++i) {
        const FuzzCase c = fuzzer.Next();
        if (i % 3 == 0) {
          // Small client-side batches exercise EncodeBatch under the races.
          std::vector<std::string> batch = {c.sql, fuzzer.Next().sql};
          auto results = service.EncodeBatch(batch);
          issued += batch.size();
          for (const auto& r : results) {
            r.ok() ? ++ok_results : ++error_results;
            if (!r.ok()) {
              if (r.status().message().empty()) {
                violations.Violate("batch error has a message", r.status());
              }
              // The drill configures no deadlines and never fills the
              // ring, so the only legal failures are input rejections —
              // a shed/deadline/unavailable code here is a mis-coding.
              if (r.status().code() != StatusCode::kParseError &&
                  r.status().code() != StatusCode::kInvalidArgument) {
                violations.Violate("batch error is an input rejection",
                                   r.status());
              }
            }
          }
          continue;
        }
        auto result = service.Encode(c.sql);
        ++issued;
        result.ok() ? ++ok_results : ++error_results;
        if (result.ok()) {
          if (static_cast<int>(result.value().size()) != service.dim()) {
            violations.Violate("embedding has the service dim",
                               std::to_string(result.value().size()));
          }
        } else {
          if (result.status().message().empty()) {
            violations.Violate("error has a message", result.status());
          }
          if (c.from_grammar) {
            violations.Violate("grammar-valid SQL encodes", result.status());
          }
          if (result.status().code() != StatusCode::kParseError &&
              result.status().code() != StatusCode::kInvalidArgument) {
            // exact canonical code or bust
            violations.Violate("error is an input rejection",
                               result.status());
          }
        }
      }
    });
  }
  std::thread reloader([&] {
    int reloads = 0;
    while (!stop.load() && reloads < 64) {
      Status s = service.ReloadModel(path);
      // The file is always loadable.
      if (!s.ok()) violations.Violate("good reload succeeds", s);
      // A failing reload must leave serving untouched.
      Status bad = service.ReloadModel("/nonexistent/fuzz.prc1");
      if (bad.ok()) violations.Violate("missing-file reload fails", bad);
      ++reloads;
      std::this_thread::yield();
    }
  });
  std::thread invalidator([&] {
    while (!stop.load()) {
      service.InvalidateCache();
      std::this_thread::yield();
    }
  });
  for (auto& th : threads) th.join();
  stop.store(true);
  reloader.join();
  invalidator.join();

  EXPECT_EQ(violations.total(), 0) << violations.Report();
  // Every third iteration issues a 2-query batch instead of one encode, so
  // the issued total exceeds the iteration count; what must hold exactly is
  // the issued-vs-metrics accounting below.
  EXPECT_GE(issued.load(),
            static_cast<uint64_t>(kEncodeThreads) * kCasesPerThread);
  const auto& m = service.metrics();
  EXPECT_EQ(m.requests.value(), issued.load());
  EXPECT_EQ(m.errors.value(), error_results.load());
  EXPECT_EQ(m.cache_hits.value() + m.cache_misses.value(), m.requests.value());
  EXPECT_GT(ok_results.load(), 0u);
  EXPECT_GT(error_results.load(), 0u);
  EXPECT_GT(m.reloads.value(), 0u);
  EXPECT_GT(m.reload_failures.value(), 0u);
  EXPECT_GT(m.invalidations.value(), 0u);

  // The service survived: a clean encode still matches a fresh encoder
  // over whatever weights the last reload installed.
  service.InvalidateCache();
  const std::string& probe = E().corpus.front();
  auto after = service.Encode(probe);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  tasks::PreqrEncoder fresh(&model);
  ExpectBitwiseEqual(fresh.EncodeVector(probe, /*train=*/false).vec(),
                     after.value().vec(), "post-stress encode");
  std::remove(path.c_str());
}

// --- The multi-tenant stress drill ----------------------------------------

// Fuzz streams race across three tenants of one service while a reloader
// hot-swaps each tenant's weights independently and a churner
// deregisters/re-registers the third tenant mid-drill. Invariants: no
// crash, every failure carries a canonical Status, steady tenants never
// see a kNotFound, request accounting stays exact
// (requests == hits + misses + tenant_not_found), every response names
// its tenant, and each tenant still serves solo-encoder bits afterwards.
// scripts/check.sh runs this under both ASan and TSan.
TEST(FuzzStressTest, MultiTenantEncodesRacingReloadAndDeregisterStayIsolated) {
  core::PreqrConfig config;
  config.d_model = 16;
  config.num_heads = 2;
  config.ffn_hidden = 32;
  config.state_dim = 8;
  config.pos_dim = 8;
  auto make_model = [&](uint64_t seed) {
    return core::PreqrModel(config, E().tokenizer.get(), &E().fa, &E().graph,
                            seed);
  };
  // Distinct seeds give distinct weights: a cross-tenant cache or weight
  // leak shows up as a bitwise mismatch in the post-drill probes.
  auto model_a = make_model(31);
  auto model_b = make_model(32);
  auto model_c = make_model(33);
  tasks::PreqrEncoder enc_a(&model_a);
  tasks::PreqrEncoder enc_b(&model_b);
  tasks::PreqrEncoder enc_c(&model_c);

  serving::EncoderServiceOptions options;
  options.ring_capacity = 1024;
  options.per_client_quota = 1024;
  serving::EncoderService service(options);
  ASSERT_TRUE(service.RegisterTenant("a", &enc_a, &model_a).ok());
  ASSERT_TRUE(service.RegisterTenant("b", &enc_b, &model_b).ok());
  ASSERT_TRUE(service.RegisterTenant("c", &enc_c, &model_c).ok());
  const int expected_dim = enc_a.dim();

  // Per-tenant reload donors: same architecture, fresh weights.
  const std::string path_a = test::TempPath("fuzz_tenant_a.prm1");
  const std::string path_b = test::TempPath("fuzz_tenant_b.prm1");
  {
    auto donor_a = make_model(41);
    auto donor_b = make_model(42);
    ASSERT_TRUE(nn::SaveModule(donor_a, path_a).ok());
    ASSERT_TRUE(nn::SaveModule(donor_b, path_b).ok());
  }

  constexpr int kCasesPerTenant = 70;
  std::atomic<uint64_t> issued{0};
  std::atomic<uint64_t> ok_results{0};
  std::atomic<uint64_t> error_results{0};      // kParseError / kInvalidArgument
  std::atomic<uint64_t> not_found_results{0};  // churn-tenant kNotFound only
  InvariantLog violations;
  std::atomic<bool> stop{false};

  auto account = [&](const StatusOr<serving::EncodeResponse>& r,
                     const std::string& tenant, bool churn,
                     bool from_grammar) {
    if (r.ok()) {
      ++ok_results;
      if (r.value().tenant_id != tenant) {
        violations.Violate("response names its tenant",
                           tenant + " got " + r.value().tenant_id);
      }
      if (static_cast<int>(r.value().embedding.size()) != expected_dim) {
        violations.Violate("embedding has the tenant dim",
                           std::to_string(r.value().embedding.size()));
      }
      return;
    }
    if (r.status().message().empty()) {
      violations.Violate("error has a message", r.status());
    }
    if (r.status().code() == StatusCode::kNotFound) {
      // Only the churn tenant may be mid-deregistration; a kNotFound for a
      // steady tenant is an isolation breach.
      ++not_found_results;
      if (!churn) {
        violations.Violate("steady tenant is never kNotFound",
                           tenant + ": " + r.status().ToString());
      }
      return;
    }
    ++error_results;
    // Grammar-valid SQL must encode whenever the tenant exists; malformed
    // SQL must fail with an input-rejection code, never a shed/deadline
    // mis-code (the drill configures no deadlines and never fills the
    // ring).
    if (from_grammar) {
      violations.Violate("grammar-valid SQL encodes", r.status());
    }
    if (r.status().code() != StatusCode::kParseError &&
        r.status().code() != StatusCode::kInvalidArgument) {
      violations.Violate("error is an input rejection", r.status());
    }
  };

  std::vector<std::thread> threads;
  const std::vector<std::string> tenants = {"a", "b", "c"};
  for (size_t t = 0; t < tenants.size(); ++t) {
    threads.emplace_back([&, t] {
      const std::string tenant = tenants[t];
      const bool churn = tenant == "c";
      // Overlapping seeds across tenants: the same SQL lands in several
      // partitions, so any cross-tenant cache sharing gets exercised hard.
      SqlFuzzer fuzzer(E().imdb.catalog(), 300 + static_cast<uint64_t>(t / 2),
                       E().EncodeOptions());
      for (int i = 0; i < kCasesPerTenant; ++i) {
        const FuzzCase c = fuzzer.Next();
        serving::EncodeRequest request;
        request.tenant_id = tenant;
        request.sql = c.sql;
        if (i % 3 == 0) {
          // The synchronous batch path groups per tenant internally.
          const FuzzCase c2 = fuzzer.Next();
          serving::EncodeRequest second;
          second.tenant_id = tenant;
          second.sql = c2.sql;
          auto results = service.EncodeBatch(
              std::vector<serving::EncodeRequest>{request, second});
          issued += results.size();
          account(results[0], tenant, churn, c.from_grammar);
          account(results[1], tenant, churn, c2.from_grammar);
          continue;
        }
        auto result = service.Encode(request);
        ++issued;
        account(result, tenant, churn, c.from_grammar);
      }
    });
  }
  std::thread reloader([&] {
    int reloads = 0;
    while (!stop.load() && reloads < 48) {
      // Steady tenants reload independently; each drain must park only its
      // own tenant's admissions.
      Status sa = service.ReloadModel("a", path_a);
      if (!sa.ok()) violations.Violate("tenant a reload succeeds", sa);
      Status sb = service.ReloadModel("b", path_b);
      if (!sb.ok()) violations.Violate("tenant b reload succeeds", sb);
      // The churn tenant may be deregistered at this instant: ok and
      // kNotFound are the only legal outcomes.
      Status sc = service.ReloadModel("c", path_a);
      if (!sc.ok() && sc.code() != StatusCode::kNotFound) {
        violations.Violate("tenant c reload is ok or kNotFound", sc);
      }
      // Failing reloads and ghost tenants must not disturb serving.
      Status bad = service.ReloadModel("a", "/nonexistent/fuzz.prc1");
      if (bad.ok()) violations.Violate("missing-file reload fails", bad);
      Status ghost = service.ReloadModel("ghost", path_a);
      if (ghost.code() != StatusCode::kNotFound) {
        violations.Violate("ghost tenant reload is kNotFound", ghost);
      }
      ++reloads;
      std::this_thread::yield();
    }
  });
  std::thread churner([&] {
    while (!stop.load()) {
      Status out = service.DeregisterTenant("c");
      if (!out.ok()) violations.Violate("deregistration succeeds", out);
      std::this_thread::yield();
      Status in = service.RegisterTenant("c", &enc_c, &model_c);
      if (!in.ok()) violations.Violate("re-registration succeeds", in);
      std::this_thread::yield();
    }
  });
  for (auto& th : threads) th.join();
  stop.store(true);
  reloader.join();
  churner.join();
  ASSERT_TRUE(service.HasTenant("c"));  // the churner always re-registers

  EXPECT_EQ(violations.total(), 0) << violations.Report();
  const auto& m = service.metrics();
  EXPECT_EQ(m.requests.value(), issued.load());
  // Exact admission accounting: every request resolved as a hit, a miss,
  // or a pre-probe unknown-tenant rejection. (Closing-window rejections
  // count as misses, so tenant_not_found alone undercounts kNotFound.)
  EXPECT_EQ(m.requests.value(), m.cache_hits.value() +
                                    m.cache_misses.value() +
                                    m.tenant_not_found.value());
  EXPECT_LE(m.tenant_not_found.value(), not_found_results.load());
  EXPECT_EQ(issued.load(),
            ok_results.load() + error_results.load() + not_found_results.load());
  EXPECT_EQ(m.errors.value(), error_results.load());
  EXPECT_GT(ok_results.load(), 0u);
  EXPECT_GT(error_results.load(), 0u);
  EXPECT_GT(m.reloads.value(), 0u);
  EXPECT_GT(m.reload_failures.value(), 0u);
  EXPECT_GE(m.tenant_registrations.value(), 4u);  // 3 initial + churn cycles
  EXPECT_GT(m.tenant_deregistrations.value(), 0u);

  // Every tenant still serves bits identical to a fresh solo encoder over
  // whatever weights its last reload installed.
  service.InvalidateCache();
  const std::string& probe = E().corpus.front();
  core::PreqrModel* models[] = {&model_a, &model_b, &model_c};
  for (size_t t = 0; t < tenants.size(); ++t) {
    serving::EncodeRequest request;
    request.tenant_id = tenants[t];
    request.sql = probe;
    auto after = service.Encode(request);
    ASSERT_TRUE(after.ok()) << tenants[t] << ": " << after.status().ToString();
    tasks::PreqrEncoder fresh(models[t]);
    ExpectBitwiseEqual(fresh.EncodeVector(probe, /*train=*/false).vec(),
                       after.value().embedding.vec(),
                       "post-stress tenant " + tenants[t]);
  }
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

}  // namespace
}  // namespace preqr::workload
