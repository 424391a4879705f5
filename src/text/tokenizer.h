#ifndef PREQR_TEXT_TOKENIZER_H_
#define PREQR_TEXT_TOKENIZER_H_

#include <string>
#include <vector>

#include "automaton/symbol.h"
#include "common/status.h"
#include "db/stats.h"
#include "text/vocab.h"

namespace preqr::text {

// Database-specific SQL tokenizer (Section 3.3.2):
//  * the vocabulary holds SQL keywords/symbols, schema tokens (table names
//    and qualified column names), string MCVs, and per-column range tokens;
//  * aliases are resolved to their table tokens, qualified column refs to
//    their `table.column` token (schema linking at the lexical level);
//  * literal values are replaced by per-column *range tokens*
//    (`table.column#<bucket>`), so the model sees each column's own value
//    distribution instead of a globally normalized float (Figure 1's third
//    drawback).
class SqlTokenizer {
 public:
  // `stats` must be aligned with catalog.tables(). `num_value_buckets` is
  // the number of equi-depth ranges per numeric column.
  SqlTokenizer(const sql::Catalog& catalog,
               const std::vector<db::TableStats>& stats,
               int num_value_buckets = 8);

  struct Tokenized {
    // Aligned sequences, starting with [CLS] and ending with [END].
    std::vector<std::string> tokens;
    std::vector<int> ids;
    // Structural symbols per position (kStart for [CLS]).
    std::vector<automaton::Symbol> symbols;
    // Per-position continuous channel: for numeric literals, the value's
    // empirical quantile in its column's distribution (the continuous
    // refinement of the range token); 0 elsewhere.
    std::vector<float> quantiles;
  };

  // Tokenizes a query. Parse failures propagate as errors.
  StatusOr<Tokenized> Tokenize(const std::string& sql) const;

  // A padded batch of tokenized queries in [B, T_max] row-major layout:
  // example b is valid at positions [0, lengths[b]) and padded with kPadId
  // (ids) / 0 (quantiles, mask) above. Lengths are clipped to max_len, and
  // t_max is the longest clipped length in the batch — so padding adapts to
  // the batch, never to a global maximum.
  struct TokenizedBatch {
    int batch_size = 0;
    int t_max = 0;
    std::vector<int> lengths;      // clipped length per example
    std::vector<int> ids;          // [B * t_max]
    std::vector<float> quantiles;  // [B * t_max]
    std::vector<float> mask;       // [B * t_max], 1 = valid, 0 = pad
    // Full (unclipped) symbol sequence per example: the automaton state
    // channel must see the whole sequence, exactly as the single-query
    // path does.
    std::vector<std::vector<automaton::Symbol>> symbols;
  };

  // Collates tokenized queries into a padded batch, clipping each example
  // to max_len positions. Pure repacking — no floats are touched, so the
  // batch carries exactly the per-example values Tokenize produced.
  static TokenizedBatch Collate(const std::vector<const Tokenized*>& items,
                                int max_len);
  static TokenizedBatch Collate(const std::vector<Tokenized>& items,
                                int max_len);

  // The catalog this tokenizer was built against (non-owned reference:
  // whoever bundles a tokenizer must keep its catalog alive, which is
  // exactly what serving::TenantContext checks).
  const sql::Catalog& catalog() const { return catalog_; }
  const Vocab& vocab() const { return vocab_; }
  int num_value_buckets() const { return num_value_buckets_; }

  // Range token for a numeric value of a column, e.g.
  // "title.production_year#3".
  std::string RangeToken(const std::string& table, const std::string& column,
                         double value) const;
  // Empirical quantile of `value` in the column's distribution, in [0, 1].
  float ValueQuantile(const std::string& table, const std::string& column,
                      double value) const;
  // Token for a string literal: the MCV token when frequent, otherwise a
  // hashed bucket token "table.column#s<h>".
  std::string StringToken(const std::string& table, const std::string& column,
                          const std::string& value) const;

 private:
  struct ColumnBuckets {
    std::vector<double> bounds;  // ascending, size num_buckets-1 cut points
    std::vector<double> cdf;     // full equi-depth histogram bounds
  };

  const sql::Catalog& catalog_;
  Vocab vocab_;
  int num_value_buckets_;
  // (table index, column index) -> bucket cut points.
  std::vector<std::vector<ColumnBuckets>> buckets_;
};

}  // namespace preqr::text

#endif  // PREQR_TEXT_TOKENIZER_H_
