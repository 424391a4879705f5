#include "text/tokenizer.h"

#include <algorithm>
#include <functional>
#include <map>

#include "common/check.h"
#include "common/string_util.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace preqr::text {

namespace {

constexpr const char* kKeywords[] = {
    "SELECT", "FROM", "WHERE",  "AND",   "OR",    "NOT",      "IN",
    "BETWEEN", "LIKE", "UNION", "GROUP", "BY",    "ORDER",    "HAVING",
    "AS",      "JOIN", "ON",    "INNER", "LEFT",  "RIGHT",    "COUNT",
    "SUM",     "AVG",  "MIN",   "MAX",   "DISTINCT", "LIMIT", "ASC",
    "DESC",    "IS",   "NULL"};

constexpr const char* kSymbols[] = {"(", ")", ",", ".", "*", "=",
                                    "<>", "<", "<=", ">", ">=", ";"};

// Collects binding-name -> table-name over the whole statement tree
// (top-level FROM, UNION branches, IN-subqueries).
void CollectBindings(const sql::SelectStatement& stmt,
                     std::map<std::string, std::string>* bindings) {
  for (const auto& t : stmt.tables) {
    (*bindings)[t.BindingName()] = t.table;
    (*bindings)[t.table] = t.table;
  }
  for (const auto& p : stmt.predicates) {
    if (p.subquery) CollectBindings(*p.subquery, bindings);
  }
  if (stmt.union_next) CollectBindings(*stmt.union_next, bindings);
}

}  // namespace

SqlTokenizer::SqlTokenizer(const sql::Catalog& catalog,
                           const std::vector<db::TableStats>& stats,
                           int num_value_buckets)
    : catalog_(catalog), num_value_buckets_(num_value_buckets) {
  for (const char* kw : kKeywords) vocab_.Add(kw);
  for (const char* s : kSymbols) vocab_.Add(s);
  vocab_.Add("[NUM]");
  vocab_.Add("[STR]");

  buckets_.resize(catalog.tables().size());
  for (size_t t = 0; t < catalog.tables().size(); ++t) {
    const auto& table = catalog.tables()[t];
    vocab_.Add(table.name);
    for (const auto& piece : SplitAny(ToLower(table.name), "_")) {
      vocab_.Add(piece);
    }
    buckets_[t].resize(table.columns.size());
    for (size_t c = 0; c < table.columns.size(); ++c) {
      const auto& col = table.columns[c];
      vocab_.Add(table.name + "." + col.name);
      vocab_.Add(col.name);
      for (const auto& piece : SplitAny(ToLower(col.name), "_")) {
        vocab_.Add(piece);
      }
      // Range tokens for numeric columns; hashed buckets for strings.
      if (col.type == sql::ColumnType::kString) {
        for (int b = 0; b < num_value_buckets_; ++b) {
          vocab_.Add(table.name + "." + col.name + "#s" + std::to_string(b));
        }
      } else {
        for (int b = 0; b < num_value_buckets_; ++b) {
          vocab_.Add(table.name + "." + col.name + "#" + std::to_string(b));
        }
      }
      // Bucket cut points from the stats histogram (equi-depth).
      if (t < stats.size() && c < stats[t].columns.size()) {
        const auto& cs = stats[t].columns[c];
        if (!cs.histogram_bounds.empty()) {
          auto& bk = buckets_[t][c];
          bk.cdf = cs.histogram_bounds;
          for (int b = 1; b < num_value_buckets_; ++b) {
            const size_t idx = static_cast<size_t>(
                static_cast<double>(b) / num_value_buckets_ *
                static_cast<double>(cs.histogram_bounds.size() - 1));
            bk.bounds.push_back(cs.histogram_bounds[idx]);
          }
        }
        // String MCVs become first-class value tokens.
        for (const auto& [v, freq] : cs.mcv_string) {
          vocab_.Add("v:" + v);
        }
      }
    }
  }
}

std::string SqlTokenizer::RangeToken(const std::string& table,
                                     const std::string& column,
                                     double value) const {
  const int t = catalog_.TableIndex(table);
  if (t < 0) return "[NUM]";
  const int c = catalog_.tables()[static_cast<size_t>(t)].ColumnIndex(column);
  if (c < 0) return "[NUM]";
  const auto& bounds = buckets_[static_cast<size_t>(t)][static_cast<size_t>(c)]
                           .bounds;
  int bucket = 0;
  for (double b : bounds) {
    if (value > b) ++bucket;
  }
  bucket = std::min(bucket, num_value_buckets_ - 1);
  return table + "." + column + "#" + std::to_string(bucket);
}

float SqlTokenizer::ValueQuantile(const std::string& table,
                                  const std::string& column,
                                  double value) const {
  const int t = catalog_.TableIndex(table);
  if (t < 0) return 0.0f;
  const int c = catalog_.tables()[static_cast<size_t>(t)].ColumnIndex(column);
  if (c < 0) return 0.0f;
  const auto& cdf =
      buckets_[static_cast<size_t>(t)][static_cast<size_t>(c)].cdf;
  if (cdf.size() < 2) return 0.5f;
  // Fraction of equi-depth bounds below the value, interpolated.
  size_t below = 0;
  while (below < cdf.size() && cdf[below] < value) ++below;
  float q = static_cast<float>(below) / static_cast<float>(cdf.size() - 1);
  if (below > 0 && below < cdf.size() && cdf[below] > cdf[below - 1]) {
    const float frac = static_cast<float>(
        (value - cdf[below - 1]) / (cdf[below] - cdf[below - 1]));
    q = (static_cast<float>(below - 1) + frac) /
        static_cast<float>(cdf.size() - 1);
  }
  return std::clamp(q, 0.0f, 1.0f);
}

std::string SqlTokenizer::StringToken(const std::string& table,
                                      const std::string& column,
                                      const std::string& value) const {
  const std::string mcv = "v:" + value;
  if (vocab_.Contains(mcv)) return mcv;
  const size_t h =
      std::hash<std::string>{}(value) % static_cast<size_t>(num_value_buckets_);
  const std::string bucket =
      table + "." + column + "#s" + std::to_string(h);
  return vocab_.Contains(bucket) ? bucket : "[STR]";
}

StatusOr<SqlTokenizer::Tokenized> SqlTokenizer::Tokenize(
    const std::string& sql) const {
  auto lexed = sql::Lex(sql);
  if (!lexed.ok()) return lexed.status();
  const auto& tokens = lexed.value();
  auto parsed = sql::Parse(tokens);
  if (!parsed.ok()) return parsed.status();
  const auto symbols = automaton::StructuralSymbols(tokens);

  std::map<std::string, std::string> bindings;
  CollectBindings(parsed.value(), &bindings);

  auto resolve_table = [&](const std::string& name) -> std::string {
    auto it = bindings.find(name);
    if (it != bindings.end()) return it->second;
    return catalog_.TableIndex(name) >= 0 ? name : "";
  };
  // Unique table owning an unqualified column name, or "".
  auto owner_of_column = [&](const std::string& column) -> std::string {
    std::string owner;
    for (const auto& [binding, table] : bindings) {
      const sql::TableDef* def = catalog_.FindTable(table);
      if (def != nullptr && def->ColumnIndex(column) >= 0) {
        if (!owner.empty() && owner != table) return "";
        owner = table;
      }
    }
    return owner;
  };

  Tokenized out;
  out.tokens.push_back("[CLS]");
  out.symbols.push_back(automaton::Symbol::kStart);
  out.quantiles.push_back(0.0f);

  // Alignment: one output token per lexer token.
  std::string pending_qualifier;  // alias seen before a '.'
  std::string last_table, last_column;  // governs literal bucketing
  for (size_t i = 0; i < tokens.size(); ++i) {
    const sql::Token& tok = tokens[i];
    const automaton::Symbol sym = symbols[i];
    float quantile = 0.0f;
    switch (tok.type) {
      case sql::TokenType::kEnd:
        out.tokens.push_back("[END]");
        break;
      case sql::TokenType::kKeyword:
      case sql::TokenType::kSymbol:
        out.tokens.push_back(tok.text);
        break;
      case sql::TokenType::kNumber: {
        if (!last_table.empty()) {
          out.tokens.push_back(RangeToken(last_table, last_column, tok.number));
          quantile = ValueQuantile(last_table, last_column, tok.number);
        } else {
          out.tokens.push_back("[NUM]");
          quantile = 0.5f;
        }
        break;
      }
      case sql::TokenType::kString: {
        if (!last_table.empty()) {
          out.tokens.push_back(StringToken(last_table, last_column, tok.text));
        } else {
          out.tokens.push_back("[STR]");
        }
        break;
      }
      case sql::TokenType::kIdentifier: {
        const bool qualified =
            i > 0 && tokens[i - 1].IsSymbol(".") && !pending_qualifier.empty();
        if (qualified) {
          const std::string table = resolve_table(pending_qualifier);
          pending_qualifier.clear();
          const sql::TableDef* def =
              table.empty() ? nullptr : catalog_.FindTable(table);
          if (def != nullptr && def->ColumnIndex(tok.text) >= 0) {
            out.tokens.push_back(table + "." + tok.text);
            last_table = table;
            last_column = tok.text;
          } else {
            out.tokens.push_back(tok.text);
          }
          break;
        }
        // Is the next token a '.'? Then this is a qualifier.
        if (i + 1 < tokens.size() && tokens[i + 1].IsSymbol(".")) {
          pending_qualifier = tok.text;
          const std::string table = resolve_table(tok.text);
          out.tokens.push_back(table.empty() ? tok.text : table);
          break;
        }
        // Table name / alias in a FROM region?
        const std::string table = resolve_table(tok.text);
        if (sym == automaton::Symbol::kTable && !table.empty()) {
          out.tokens.push_back(table);
          break;
        }
        // Unqualified column.
        const std::string owner = owner_of_column(tok.text);
        if (!owner.empty()) {
          out.tokens.push_back(owner + "." + tok.text);
          last_table = owner;
          last_column = tok.text;
        } else if (!table.empty()) {
          out.tokens.push_back(table);
        } else {
          out.tokens.push_back(ToLower(tok.text));
        }
        break;
      }
    }
    out.symbols.push_back(sym);
    out.quantiles.push_back(quantile);
  }
  out.ids.reserve(out.tokens.size());
  for (const auto& t : out.tokens) out.ids.push_back(vocab_.Id(t));
  return out;
}

SqlTokenizer::TokenizedBatch SqlTokenizer::Collate(
    const std::vector<const Tokenized*>& items, int max_len) {
  PREQR_CHECK_GT(max_len, 0);
  TokenizedBatch batch;
  batch.batch_size = static_cast<int>(items.size());
  batch.lengths.reserve(items.size());
  batch.symbols.reserve(items.size());
  for (const Tokenized* item : items) {
    PREQR_CHECK(item != nullptr);
    const int len =
        std::min(static_cast<int>(item->ids.size()), max_len);
    batch.lengths.push_back(len);
    batch.t_max = std::max(batch.t_max, len);
    batch.symbols.push_back(item->symbols);
  }
  const size_t stride = static_cast<size_t>(batch.t_max);
  const size_t total = static_cast<size_t>(batch.batch_size) * stride;
  batch.ids.assign(total, Vocab::kPadId);
  batch.quantiles.assign(total, 0.0f);
  batch.mask.assign(total, 0.0f);
  for (size_t b = 0; b < items.size(); ++b) {
    const Tokenized& item = *items[b];
    const size_t len = static_cast<size_t>(batch.lengths[b]);
    const size_t off = b * stride;
    std::copy(item.ids.begin(), item.ids.begin() + static_cast<long>(len),
              batch.ids.begin() + static_cast<long>(off));
    std::copy(item.quantiles.begin(),
              item.quantiles.begin() + static_cast<long>(len),
              batch.quantiles.begin() + static_cast<long>(off));
    std::fill(batch.mask.begin() + static_cast<long>(off),
              batch.mask.begin() + static_cast<long>(off + len), 1.0f);
  }
  return batch;
}

SqlTokenizer::TokenizedBatch SqlTokenizer::Collate(
    const std::vector<Tokenized>& items, int max_len) {
  std::vector<const Tokenized*> ptrs;
  ptrs.reserve(items.size());
  for (const Tokenized& item : items) ptrs.push_back(&item);
  return Collate(ptrs, max_len);
}

}  // namespace preqr::text
