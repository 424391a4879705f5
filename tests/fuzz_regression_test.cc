// Replays the checked-in fuzz corpus (tests/fuzz_corpus/): every minimized
// input that ever broke the front door stays fixed. Naming convention is
// the contract — `err_*.sql` must fail with a non-empty Status (and must
// NOT crash), `ok_*.sql` must parse and tokenize end to end. New fuzz
// findings are minimized with SqlFuzzer::Minimize and added here, so the
// corpus only ever ratchets forward.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "automaton/symbol.h"
#include "automaton/template_extractor.h"
#include "db/stats.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "text/tokenizer.h"
#include "workload/imdb.h"
#include "workload/sql_fuzz.h"

#ifndef PREQR_FUZZ_CORPUS_DIR
#error "build must define PREQR_FUZZ_CORPUS_DIR (see tests/CMakeLists.txt)"
#endif

namespace preqr {
namespace {

struct CorpusEntry {
  std::string name;  // file name, e.g. "err_int_literal_overflow.sql"
  std::string sql;
};

std::vector<CorpusEntry> LoadCorpus() {
  std::vector<CorpusEntry> entries;
  const std::filesystem::path dir(PREQR_FUZZ_CORPUS_DIR);
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    if (file.path().extension() != ".sql") continue;
    std::ifstream in(file.path());
    std::ostringstream body;
    body << in.rdbuf();
    std::string sql = body.str();
    // Strip exactly one trailing newline (editors add it); the byte content
    // otherwise replays exactly as the fuzzer produced it.
    if (!sql.empty() && sql.back() == '\n') sql.pop_back();
    entries.push_back({file.path().filename().string(), std::move(sql)});
  }
  std::sort(entries.begin(), entries.end(),
            [](const CorpusEntry& a, const CorpusEntry& b) {
              return a.name < b.name;
            });
  return entries;
}

struct Env {
  db::Database imdb = workload::MakeImdbDatabase(7, 0.02);
  std::vector<db::TableStats> stats;
  std::unique_ptr<text::SqlTokenizer> tokenizer;

  Env() {
    db::StatsCollector collector;
    stats = collector.AnalyzeAll(imdb);
    tokenizer = std::make_unique<text::SqlTokenizer>(imdb.catalog(), stats, 8);
  }
};

Env& E() {
  static Env* env = new Env();
  return *env;
}

TEST(FuzzCorpusTest, CorpusIsNotEmpty) {
  const auto entries = LoadCorpus();
  ASSERT_FALSE(entries.empty())
      << "no *.sql files under " << PREQR_FUZZ_CORPUS_DIR;
  int err = 0, ok = 0;
  for (const auto& e : entries) {
    if (e.name.rfind("err_", 0) == 0) ++err;
    else if (e.name.rfind("ok_", 0) == 0) ++ok;
    else FAIL() << "corpus file '" << e.name
                << "' must start with err_ or ok_";
  }
  EXPECT_GT(err, 0) << "corpus needs at least one failing input";
  EXPECT_GT(ok, 0) << "corpus needs at least one extreme-but-valid input";
}

// Every corpus entry runs through the whole front door — lexer, structural
// symbols, template normalizer, parser, schema-aware tokenizer — without
// crashing, whatever its expected verdict is.
TEST(FuzzCorpusTest, EveryEntryRunsTheFullFrontDoorWithoutCrashing) {
  for (const auto& e : LoadCorpus()) {
    auto lexed = sql::Lex(e.sql);
    const auto norm = automaton::NormalizeForTemplate(e.sql);
    if (lexed.ok()) {
      const auto symbols = automaton::StructuralSymbols(lexed.value());
      EXPECT_EQ(symbols.size(), lexed.value().size()) << e.name;
      ASSERT_TRUE(norm.ok()) << e.name << ": " << norm.status().ToString();
      (void)automaton::TemplateDistance(norm.value(), norm.value());
    } else {
      EXPECT_FALSE(lexed.status().message().empty()) << e.name;
      // The normalizer refuses the same input with a Status.
      ASSERT_FALSE(norm.ok()) << e.name;
      EXPECT_EQ(norm.status().code(), StatusCode::kInvalidArgument) << e.name;
    }
    (void)sql::Parse(e.sql);
    (void)E().tokenizer->Tokenize(e.sql);
  }
}

TEST(FuzzCorpusTest, ErrEntriesFailWithStatusAndOkEntriesTokenize) {
  for (const auto& e : LoadCorpus()) {
    auto parsed = sql::Parse(e.sql);
    auto tokenized = E().tokenizer->Tokenize(e.sql);
    if (e.name.rfind("err_", 0) == 0) {
      ASSERT_FALSE(parsed.ok())
          << e.name << ": expected a parse failure, got success";
      EXPECT_FALSE(parsed.status().message().empty()) << e.name;
      EXPECT_FALSE(tokenized.ok()) << e.name;
    } else {
      ASSERT_TRUE(parsed.ok())
          << e.name << ": " << parsed.status().ToString();
      ASSERT_TRUE(tokenized.ok())
          << e.name << ": " << tokenized.status().ToString();
      EXPECT_GT(tokenized.value().tokens.size(), 2u) << e.name;
    }
  }
}

// FNV-1a of every corpus and fuzz-stream tokenization, recorded while
// Tokenize still lexed each query twice.
constexpr uint64_t kPinnedTokenizeHash = 0x9811460e4e6ca381ull;

uint64_t Fnv1a(const void* data, size_t len, uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// Tokenize lexes once and parses the lexed tokens (Parse(sql) is Lex plus
// the token overload). Over the corpus and a fuzz stream, both Parse entry
// points agree (same statement text, or the same Status), and every
// tokenization — ids, structural symbols, quantile bits, or the error —
// hashes to the value pinned when Tokenize still lexed twice.
TEST(FuzzCorpusTest, ParseOfLexedTokensMatchesParseOfTextAndIdsArePinned) {
  std::vector<std::string> inputs;
  for (const auto& e : LoadCorpus()) inputs.push_back(e.sql);
  workload::SqlFuzzer fuzzer(E().imdb.catalog(), 17);
  for (int i = 0; i < 300; ++i) inputs.push_back(fuzzer.Next().sql);
  uint64_t h = 1469598103934665603ull;
  int parsed_ok = 0;
  for (const auto& sql : inputs) {
    const auto from_text = sql::Parse(sql);
    const auto lexed = sql::Lex(sql);
    if (lexed.ok()) {
      const auto from_tokens = sql::Parse(lexed.value());
      ASSERT_EQ(from_text.ok(), from_tokens.ok()) << sql;
      if (from_text.ok()) {
        ++parsed_ok;
        EXPECT_EQ(sql::ToSql(from_text.value()),
                  sql::ToSql(from_tokens.value()))
            << sql;
      } else {
        EXPECT_EQ(from_text.status().ToString(),
                  from_tokens.status().ToString())
            << sql;
      }
    } else {
      EXPECT_FALSE(from_text.ok()) << sql;
    }
    const auto tok = E().tokenizer->Tokenize(sql);
    if (!tok.ok()) {
      const std::string msg = tok.status().ToString();
      h = Fnv1a(msg.data(), msg.size(), h);
      continue;
    }
    const auto& t = tok.value();
    h = Fnv1a(t.ids.data(), t.ids.size() * sizeof(int), h);
    for (const auto s : t.symbols) {
      const int v = static_cast<int>(s);
      h = Fnv1a(&v, sizeof(v), h);
    }
    h = Fnv1a(t.quantiles.data(), t.quantiles.size() * sizeof(float), h);
  }
  EXPECT_GT(parsed_ok, 100);
  EXPECT_EQ(h, kPinnedTokenizeHash) << std::hex << h;
  // A stream without its kEnd token is rejected, not read past.
  auto tokens = sql::Lex("SELECT COUNT(*) FROM title").value();
  tokens.pop_back();
  EXPECT_FALSE(sql::Parse(tokens).ok());
  EXPECT_FALSE(sql::Parse(std::vector<sql::Token>{}).ok());
}

}  // namespace
}  // namespace preqr
