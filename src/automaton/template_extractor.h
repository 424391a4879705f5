#ifndef PREQR_AUTOMATON_TEMPLATE_EXTRACTOR_H_
#define PREQR_AUTOMATON_TEMPLATE_EXTRACTOR_H_

#include <string>
#include <vector>

#include "automaton/fa.h"
#include "automaton/symbol.h"
#include "common/status.h"

namespace preqr::automaton {

// Clause-wise normalized representation of a query used for the hybrid
// clustering distance: column/table names are replaced with placeholder
// tokens, and string/number/category values with typed variations
// (Section 3.3.1).
struct NormalizedQuery {
  std::string select_clause;
  std::string from_clause;
  std::string where_clause;
  std::string tail_clause;  // GROUP BY / ORDER BY / LIMIT / UNION marker
};

// Lex + normalize. kInvalidArgument naming the lex error if the query does
// not lex.
StatusOr<NormalizedQuery> NormalizeForTemplate(const std::string& sql);

// Hybrid distance in [0,1]: per-clause edit-similarities merged with a
// cosine-style weighting. 0 = structurally identical. A pure function,
// symmetric bit for bit: each clause's edit distance is symmetric and its
// denominator is a max.
double TemplateDistance(const NormalizedQuery& a, const NormalizedQuery& b);

// Clusters a workload's queries by template and extracts one collapsed
// symbol sequence per cluster (the cluster medoid). Deterministic
// leader-style agglomeration with distance threshold `epsilon`. Each query
// is lexed once; distances are computed once per pair of distinct
// normalized forms (DESIGN.md §5a).
class TemplateExtractor {
 public:
  explicit TemplateExtractor(double epsilon = 0.2) : epsilon_(epsilon) {}

  struct Extraction {
    // One collapsed symbol sequence per template.
    std::vector<std::vector<Symbol>> templates;
    // Cluster id for each input query (index into `templates`).
    std::vector<int> assignment;
  };

  // kInvalidArgument naming the first query index that does not lex.
  StatusOr<Extraction> Extract(const std::vector<std::string>& queries) const;

  // Convenience: extract templates and build the merged automaton.
  StatusOr<Automaton> BuildAutomaton(
      const std::vector<std::string>& queries) const;

 private:
  double epsilon_;
};

}  // namespace preqr::automaton

#endif  // PREQR_AUTOMATON_TEMPLATE_EXTRACTOR_H_
