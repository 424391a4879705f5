#ifndef PREQR_NEUROCARD_NEUROCARD_H_
#define PREQR_NEUROCARD_NEUROCARD_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "db/database.h"
#include "sql/ast.h"

namespace preqr::neurocard {

// Data-driven join-cardinality estimator standing in for NeuroCard
// (Yang et al., VLDB'21). NeuroCard learns a density over the full outer
// join of the database and answers queries with progressive sampling; our
// substitute materializes a *correlated sample of the join universe*
// (sampled root rows with all their satellite matches) and estimates by
// scaled counting over that sample. It shares NeuroCard's defining traits:
// query-independent (trained on data, not workloads), captures cross-table
// correlation exactly within the sample, and degrades on highly selective
// predicates / unseen regions where the sample is thin (the paper's Scale
// and Synthetic weaknesses).
class NeuroCard {
 public:
  // Samples `sample_size` rows of `root_table` (the join-universe root,
  // `title` for IMDB) together with their satellite fan-out.
  NeuroCard(const db::Database& db, const std::string& root_table,
            int sample_size, uint64_t seed = 17);

  // Estimates the cardinality of a tree-join COUNT query rooted at the
  // root table (or a single-table query on any table, handled by uniform
  // row sampling).
  StatusOr<double> EstimateCardinality(const sql::SelectStatement& stmt) const;

  int sample_size() const { return sample_size_; }

 private:
  const db::Database& db_;
  std::string root_;
  int sample_size_;
  std::vector<int> root_rows_;  // sampled root row ids
  // For each table with an FK to root: per sampled root row, the matching
  // row ids. Key: table name -> [sample index][matching rows].
  std::map<std::string, std::vector<std::vector<int>>> fanout_;
};

}  // namespace preqr::neurocard

#endif  // PREQR_NEUROCARD_NEUROCARD_H_
