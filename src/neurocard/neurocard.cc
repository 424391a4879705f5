#include "neurocard/neurocard.h"

#include <algorithm>
#include <unordered_set>

#include "common/rng.h"
#include "db/executor.h"

namespace preqr::neurocard {

namespace {
using sql::ColumnRef;
using sql::Predicate;
using sql::SelectStatement;

// Resolves a binding name to its table within the statement.
std::string TableOf(const SelectStatement& stmt, const std::string& binding) {
  return stmt.ResolveTable(binding);
}
}  // namespace

NeuroCard::NeuroCard(const db::Database& db, const std::string& root_table,
                     int sample_size, uint64_t seed)
    : db_(db), root_(root_table), sample_size_(sample_size) {
  const db::Table* root = db.FindTable(root_table);
  PREQR_CHECK(root != nullptr);
  Rng rng(seed);
  const size_t n = root->num_rows();
  std::unordered_set<int> chosen;
  while (static_cast<int>(chosen.size()) <
             std::min<int>(sample_size_, static_cast<int>(n)) &&
         n > 0) {
    chosen.insert(static_cast<int>(rng.NextUint64(n)));
  }
  root_rows_.assign(chosen.begin(), chosen.end());
  std::sort(root_rows_.begin(), root_rows_.end());

  // root id value -> sample slot.
  const int pk = root->def().PrimaryKeyIndex();
  std::unordered_map<int64_t, int> slot;
  for (size_t s = 0; s < root_rows_.size(); ++s) {
    slot[root->column(pk).ints[static_cast<size_t>(root_rows_[s])]] =
        static_cast<int>(s);
  }

  // Materialize satellite fan-out for every table with an FK to the root.
  for (const auto& fk : db.catalog().foreign_keys()) {
    if (fk.to_table != root_table) continue;
    const db::Table* sat = db.FindTable(fk.from_table);
    if (sat == nullptr) continue;
    auto& lists = fanout_[fk.from_table];
    if (lists.empty()) lists.resize(root_rows_.size());
    const int fk_col = sat->def().ColumnIndex(fk.from_column);
    const auto& vals = sat->column(fk_col).ints;
    for (size_t r = 0; r < vals.size(); ++r) {
      auto it = slot.find(vals[r]);
      if (it != slot.end()) {
        lists[static_cast<size_t>(it->second)].push_back(static_cast<int>(r));
      }
    }
  }
}

StatusOr<double> NeuroCard::EstimateCardinality(
    const SelectStatement& stmt) const {
  // Collect per-binding filters (predicates with literals).
  struct Bind {
    std::string table;
    const db::Table* tab = nullptr;
    std::vector<std::pair<int, const Predicate*>> filters;  // (col, pred)
  };
  std::vector<Bind> binds;
  for (const auto& tref : stmt.tables) {
    Bind b;
    b.table = tref.table;
    b.tab = db_.FindTable(tref.table);
    if (b.tab == nullptr) return Status::NotFound("unknown table");
    binds.push_back(b);
  }
  auto bind_of = [&](const ColumnRef& ref) -> int {
    const std::string table = TableOf(stmt, ref.qualifier.empty()
                                                ? ref.column
                                                : ref.qualifier);
    if (!ref.qualifier.empty()) {
      for (size_t i = 0; i < binds.size(); ++i) {
        if (binds[i].table == table) return static_cast<int>(i);
      }
      return -1;
    }
    for (size_t i = 0; i < binds.size(); ++i) {
      if (binds[i].tab->def().ColumnIndex(ref.column) >= 0) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  struct Join {
    int a, b;
    int col_a, col_b;
  };
  std::vector<Join> joins;
  for (const auto& pred : stmt.predicates) {
    if (pred.subquery) {
      return Status::InvalidArgument("NeuroCard: subqueries unsupported");
    }
    if (pred.IsJoin()) {
      Join j;
      j.a = bind_of(pred.lhs);
      j.b = bind_of(pred.rhs_column);
      if (j.a < 0 || j.b < 0) return Status::NotFound("join column");
      j.col_a = binds[static_cast<size_t>(j.a)].tab->def().ColumnIndex(
          pred.lhs.column);
      j.col_b = binds[static_cast<size_t>(j.b)].tab->def().ColumnIndex(
          pred.rhs_column.column);
      joins.push_back(j);
    } else {
      const int b = bind_of(pred.lhs);
      if (b < 0) return Status::NotFound("filter column");
      const int col = binds[static_cast<size_t>(b)].tab->def().ColumnIndex(
          pred.lhs.column);
      binds[static_cast<size_t>(b)].filters.emplace_back(col, &pred);
    }
  }

  auto row_passes = [&](const Bind& b, size_t row) {
    for (const auto& [col, pred] : b.filters) {
      if (!db::PredicatePasses(*b.tab, col, *pred, row)) return false;
    }
    return true;
  };

  // Single-table query: uniform sampling over that table.
  if (binds.size() == 1) {
    const Bind& b = binds[0];
    Rng rng(31);
    const size_t n = b.tab->num_rows();
    const int s = std::min<int>(sample_size_ * 4, static_cast<int>(n));
    if (n == 0) return 1.0;
    int pass = 0;
    for (int i = 0; i < s; ++i) {
      if (row_passes(b, rng.NextUint64(n))) ++pass;
    }
    return std::max(1.0, static_cast<double>(pass) / s *
                             static_cast<double>(n));
  }

  // Join queries must be rooted at the sampled root table (binding 0).
  if (binds[0].table != root_) {
    return Status::InvalidArgument("join query not rooted at " + root_);
  }
  const db::Table* root = binds[0].tab;

  // Identify, per level-1 satellite binding, the level-2 dimension lookups
  // hanging off it (dim joined by its PK => multiplicity <= 1).
  struct DimLookup {
    int sat_col;           // FK column on the satellite
    const Bind* dim;       // dimension binding
    int dim_pk;            // PK column of the dimension
  };
  struct SatNode {
    const Bind* bind;
    const std::vector<std::vector<int>>* lists;
    std::vector<DimLookup> dims;
  };
  std::vector<SatNode> sats;
  std::vector<DimLookup> root_dims;  // dimensions joined directly to root
  std::vector<char> used(binds.size(), 0);
  used[0] = 1;
  // Level 1: joins touching binding 0 through the FK universe we sampled.
  for (const auto& j : joins) {
    const int other = j.a == 0 ? j.b : (j.b == 0 ? j.a : -1);
    if (other < 0) continue;
    const Bind& ob = binds[static_cast<size_t>(other)];
    auto it = fanout_.find(ob.table);
    if (it != fanout_.end()) {
      SatNode node;
      node.bind = &ob;
      node.lists = &it->second;
      sats.push_back(node);
      used[static_cast<size_t>(other)] = 1;
    } else {
      // Dimension of the root (e.g. kind_type): root.col -> dim.pk.
      DimLookup dl;
      dl.sat_col = j.a == 0 ? j.col_a : j.col_b;
      dl.dim = &ob;
      dl.dim_pk = ob.tab->def().PrimaryKeyIndex();
      root_dims.push_back(dl);
      used[static_cast<size_t>(other)] = 1;
    }
  }
  // Level 2: joins between a used satellite and an unused dimension.
  for (const auto& j : joins) {
    if (j.a == 0 || j.b == 0) continue;
    int sat_idx = -1, dim_idx = -1, sat_col = -1;
    if (used[static_cast<size_t>(j.a)] && !used[static_cast<size_t>(j.b)]) {
      sat_idx = j.a;
      dim_idx = j.b;
      sat_col = j.col_a;
    } else if (used[static_cast<size_t>(j.b)] &&
               !used[static_cast<size_t>(j.a)]) {
      sat_idx = j.b;
      dim_idx = j.a;
      sat_col = j.col_b;
    } else {
      return Status::InvalidArgument("NeuroCard: join shape unsupported");
    }
    const Bind& sat = binds[static_cast<size_t>(sat_idx)];
    const Bind& dim = binds[static_cast<size_t>(dim_idx)];
    DimLookup dl;
    dl.sat_col = sat_col;
    dl.dim = &dim;
    dl.dim_pk = dim.tab->def().PrimaryKeyIndex();
    for (auto& node : sats) {
      if (node.bind == &sat) node.dims.push_back(dl);
    }
    used[static_cast<size_t>(dim_idx)] = 1;
  }
  for (char u : used) {
    if (u == 0) {
      return Status::InvalidArgument("NeuroCard: disconnected join");
    }
  }

  // A dimension lookup passes if the dim row keyed by `value` satisfies the
  // dim's filters. Dimension PKs are dense 0..n-1 in our data, but we look
  // up defensively.
  auto dim_passes = [&](const DimLookup& dl, int64_t key) {
    const auto& pk_col = dl.dim->tab->column(dl.dim_pk).ints;
    size_t row = static_cast<size_t>(key);
    if (row >= pk_col.size() || pk_col[row] != key) {
      // Fallback: linear scan (never hit with dense ids).
      bool found = false;
      for (size_t r = 0; r < pk_col.size(); ++r) {
        if (pk_col[r] == key) {
          row = r;
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    return row_passes(*dl.dim, row);
  };

  double total = 0;
  for (size_t s = 0; s < root_rows_.size(); ++s) {
    const size_t root_row = static_cast<size_t>(root_rows_[s]);
    if (!row_passes(binds[0], root_row)) continue;
    bool ok = true;
    for (const auto& dl : root_dims) {
      const int64_t key = root->column(dl.sat_col).ints[root_row];
      if (!dim_passes(dl, key)) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    double w = 1.0;
    for (const auto& node : sats) {
      double count = 0;
      for (int r : (*node.lists)[s]) {
        if (!row_passes(*node.bind, static_cast<size_t>(r))) continue;
        bool dim_ok = true;
        for (const auto& dl : node.dims) {
          const int64_t key =
              node.bind->tab->column(dl.sat_col).ints[static_cast<size_t>(r)];
          if (!dim_passes(dl, key)) {
            dim_ok = false;
            break;
          }
        }
        if (dim_ok) count += 1;
      }
      w *= count;
      if (w == 0) break;
    }
    total += w;
  }
  const double scale = static_cast<double>(root->num_rows()) /
                       static_cast<double>(root_rows_.size());
  return std::max(1.0, total * scale);
}

}  // namespace preqr::neurocard
