#include "automaton/template_extractor.h"

#include <cmath>
#include <limits>
#include <map>
#include <tuple>

#include "common/string_util.h"
#include "sql/lexer.h"

namespace preqr::automaton {

namespace {

// Splits a query's structural symbols into its clauses.
NormalizedQuery NormalizeSymbols(const std::vector<Symbol>& symbols) {
  NormalizedQuery out;
  std::string* cur = &out.select_clause;
  for (size_t i = 0; i < symbols.size(); ++i) {
    const Symbol s = symbols[i];
    switch (s) {
      case Symbol::kSelect:
        cur = &out.select_clause;
        break;
      case Symbol::kFrom:
      case Symbol::kJoin:
        if (s == Symbol::kFrom) cur = &out.from_clause;
        break;
      case Symbol::kWhere:
        cur = &out.where_clause;
        break;
      case Symbol::kGroupBy:
      case Symbol::kOrderBy:
      case Symbol::kLimit:
      case Symbol::kUnion:
        cur = &out.tail_clause;
        break;
      default:
        break;
    }
    if (!cur->empty()) *cur += " ";
    *cur += SymbolName(s);
  }
  return out;
}

}  // namespace

StatusOr<NormalizedQuery> NormalizeForTemplate(const std::string& sql) {
  auto tokens = sql::Lex(sql);
  if (!tokens.ok()) {
    return Status::InvalidArgument("query does not lex: " +
                                   tokens.status().message());
  }
  return NormalizeSymbols(StructuralSymbols(tokens.value()));
}

double TemplateDistance(const NormalizedQuery& a, const NormalizedQuery& b) {
  // Per-clause similarities weighted by the paper's emphasis: selection and
  // join structure matter most, then projections, then the tail.
  const double s_sel = StringSimilarity(a.select_clause, b.select_clause);
  const double s_from = StringSimilarity(a.from_clause, b.from_clause);
  const double s_where = StringSimilarity(a.where_clause, b.where_clause);
  const double s_tail = StringSimilarity(a.tail_clause, b.tail_clause);
  // Cosine-style merge: treat similarities as a vector against the ideal
  // (1,1,1,1), weighted.
  const double w_sel = 0.2, w_from = 0.3, w_where = 0.4, w_tail = 0.1;
  const double sim =
      w_sel * s_sel + w_from * s_from + w_where * s_where + w_tail * s_tail;
  return 1.0 - sim;
}

StatusOr<TemplateExtractor::Extraction> TemplateExtractor::Extract(
    const std::vector<std::string>& queries) const {
  Extraction out;
  out.assignment.assign(queries.size(), -1);
  // One lex per query. Its symbols give the normalized form, interned to a
  // distinct-form id in first-seen order, and later the medoid's template.
  std::vector<std::vector<Symbol>> symbols;
  symbols.reserve(queries.size());
  std::vector<NormalizedQuery> forms;
  std::vector<size_t> form_of;
  form_of.reserve(queries.size());
  const auto less = [](const NormalizedQuery& a, const NormalizedQuery& b) {
    return std::tie(a.select_clause, a.from_clause, a.where_clause,
                    a.tail_clause) < std::tie(b.select_clause, b.from_clause,
                                              b.where_clause, b.tail_clause);
  };
  std::map<NormalizedQuery, size_t, decltype(less)> form_ids(less);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto tokens = sql::Lex(queries[i]);
    if (!tokens.ok()) {
      return Status::InvalidArgument("query " + std::to_string(i) +
                                     " does not lex: " +
                                     tokens.status().message());
    }
    symbols.push_back(StructuralSymbols(tokens.value()));
    NormalizedQuery form = NormalizeSymbols(symbols.back());
    const auto [it, inserted] =
        form_ids.try_emplace(std::move(form), forms.size());
    if (inserted) forms.push_back(it->first);
    form_of.push_back(it->second);
  }
  // Distances between distinct forms, filled on first use (NaN: not yet;
  // no distance is NaN). Workloads repeat forms, so most lookups skip the
  // edit-distance DPs, and TemplateDistance is symmetric bit for bit, so
  // one call fills both halves.
  const size_t n = forms.size();
  std::vector<double> memo(n * n, std::numeric_limits<double>::quiet_NaN());
  const auto distance = [&](int i, int j) {
    const size_t a = form_of[static_cast<size_t>(i)];
    const size_t b = form_of[static_cast<size_t>(j)];
    double& dist = memo[a * n + b];
    if (std::isnan(dist)) {
      dist = TemplateDistance(forms[a], forms[b]);
      memo[b * n + a] = dist;
    }
    return dist;
  };

  // Leader clustering: first member of each cluster is its leader.
  std::vector<int> leaders;
  std::vector<std::vector<int>> members;
  for (size_t i = 0; i < queries.size(); ++i) {
    int best = -1;
    double best_d = std::numeric_limits<double>::max();
    for (size_t c = 0; c < leaders.size(); ++c) {
      const double d = distance(static_cast<int>(i), leaders[c]);
      if (d < best_d) {
        best_d = d;
        best = static_cast<int>(c);
      }
    }
    if (best >= 0 && best_d <= epsilon_) {
      out.assignment[i] = best;
      members[static_cast<size_t>(best)].push_back(static_cast<int>(i));
    } else {
      out.assignment[i] = static_cast<int>(leaders.size());
      leaders.push_back(static_cast<int>(i));
      members.push_back({static_cast<int>(i)});
    }
  }

  // Medoid per cluster: the member minimizing total distance to the others.
  for (const auto& cluster : members) {
    int medoid = cluster[0];
    if (cluster.size() > 2) {
      double best_total = std::numeric_limits<double>::max();
      for (int i : cluster) {
        double total = 0;
        for (int j : cluster) {
          if (i != j) total += distance(i, j);
        }
        if (total < best_total) {
          best_total = total;
          medoid = i;
        }
      }
    }
    out.templates.push_back(Collapse(symbols[static_cast<size_t>(medoid)]));
  }
  return out;
}

StatusOr<Automaton> TemplateExtractor::BuildAutomaton(
    const std::vector<std::string>& queries) const {
  auto extraction = Extract(queries);
  if (!extraction.ok()) return extraction.status();
  AutomatonBuilder builder;
  for (const auto& t : extraction.value().templates) builder.AddTemplate(t);
  return builder.Build();
}

}  // namespace preqr::automaton
