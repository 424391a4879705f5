#include "db/stats.h"

#include <algorithm>
#include <cmath>
#include <compare>
#include <cstddef>
#include <unordered_map>

#include "common/rng.h"
#include "db/executor.h"

namespace preqr::db {

namespace {
constexpr double kDefaultEqSel = 0.005;

// MCV order: count descending, then key ascending. Keys are distinct, so
// the order is strict and total and a partial sort keeps exactly the
// entries (and the order) a full sort would.
template <typename Key>
void SortTopByFrequency(std::vector<std::pair<Key, size_t>>* counts,
                        size_t k) {
  const auto top = counts->begin() + static_cast<std::ptrdiff_t>(k);
  std::partial_sort(counts->begin(), top, counts->end(),
                    [](const auto& a, const auto& b) {
                      return a.second != b.second ? a.second > b.second
                                                  : a.first < b.first;
                    });
}

// The MCV key of a numeric value v. Where v * 1000 fits in int64
// (|v| < ~9.22e15) it is static_cast<int64_t>(v * 1000.0), held exactly as
// a double (+0.0 for every v in (-0.001, 0.001)), in region 0. Past that
// the cast would be undefined, and v's own spacing (at least 2) is far
// coarser than the 0.001 quantum, so v is its own key, in region -1 below
// the range and 1 above it. Keys never decrease as v grows (region first),
// so equal keys are adjacent in ascending order; distinct values past the
// range keep distinct keys, and each reads back as itself.
struct McvKey {
  int region = 0;
  double key = 0.0;

  explicit McvKey(double v) {
    constexpr double kInt64Limit = 9223372036854775808.0;  // 2^63
    const double scaled = v * 1000.0;
    if (std::fabs(scaled) < kInt64Limit) {
      key = static_cast<double>(static_cast<int64_t>(scaled));
    } else {
      region = v < 0 ? -1 : 1;
      key = v;
    }
  }
  // The MCV value this key reads back as.
  double Value() const { return region == 0 ? key / 1000.0 : key; }
  auto operator<=>(const McvKey&) const = default;
};

// Folds a numeric column's values, visited in ascending order as
// (value, count) groups, into the distinct-key runs the MCVs come from and
// the equi-depth histogram bounds. Values are quantized to McvKey(v), so
// equal keys are adjacent and adjacent values sharing a key merge into one
// run.
class AscendingFold {
 public:
  AscendingFold(size_t rows, int num_buckets, ColumnStats* stats)
      : rows_(rows), num_buckets_(num_buckets), stats_(stats) {
    stats_->histogram_bounds.reserve(static_cast<size_t>(num_buckets) + 1);
  }

  void Add(double v, size_t count) {
    const McvKey key(v);
    if (runs_.empty() || runs_.back().first != key) runs_.emplace_back(key, 0);
    runs_.back().second += count;
    seen_ += count;
    // Bound b is the sorted value at BoundIndex(b): v, for every index the
    // group [seen_ - count, seen_) covers.
    while (next_bound_ <= num_buckets_ && BoundIndex(next_bound_) < seen_) {
      stats_->histogram_bounds.push_back(v);
      ++next_bound_;
    }
  }

  std::vector<std::pair<McvKey, size_t>>& runs() { return runs_; }

 private:
  size_t BoundIndex(int b) const {
    return std::min(rows_ - 1,
                    static_cast<size_t>(static_cast<double>(b) / num_buckets_ *
                                        static_cast<double>(rows_ - 1)));
  }

  size_t rows_;
  int num_buckets_;
  ColumnStats* stats_;
  std::vector<std::pair<McvKey, size_t>> runs_;
  size_t seen_ = 0;
  int next_bound_ = 0;
};

// An int column whose max − min is below its row count is counted in one
// pass and fed to the fold as its distinct values in order; the values
// become doubles only there, which orders them exactly as sorting their
// doubles would. Returns false, touching nothing, for any other column.
bool FoldDenseInts(const std::vector<int64_t>& ints, AscendingFold* fold,
                   ColumnStats* stats) {
  const auto [lo, hi] = std::minmax_element(ints.begin(), ints.end());
  const auto min = static_cast<uint64_t>(*lo);
  const uint64_t range = static_cast<uint64_t>(*hi) - min;
  if (range >= ints.size()) return false;
  stats->min = static_cast<double>(*lo);
  stats->max = static_cast<double>(*hi);
  std::vector<size_t> counts(range + 1, 0);
  for (int64_t v : ints) ++counts[static_cast<uint64_t>(v) - min];
  for (uint64_t i = 0; i <= range; ++i) {
    if (counts[i] == 0) continue;
    fold->Add(static_cast<double>(static_cast<int64_t>(min + i)), counts[i]);
  }
  return true;
}
}  // namespace

double ColumnStats::EstimateEqualitySelectivity(double value) const {
  for (const auto& [v, freq] : mcv_numeric) {
    if (v == value) return freq;
  }
  // Not an MCV: remaining mass spread over remaining distinct values.
  double mcv_mass = 0;
  for (const auto& [v, freq] : mcv_numeric) mcv_mass += freq;
  const double remaining =
      static_cast<double>(num_distinct) - static_cast<double>(mcv_numeric.size());
  if (remaining <= 0) return kDefaultEqSel;
  return std::max(0.0, (1.0 - mcv_mass) / remaining);
}

double ColumnStats::EstimateRangeSelectivity(double lo, double hi) const {
  if (histogram_bounds.size() < 2) {
    if (max <= min) return lo <= min && min <= hi ? 1.0 : kDefaultEqSel;
    const double clipped_lo = std::max(lo, min);
    const double clipped_hi = std::min(hi, max);
    if (clipped_hi < clipped_lo) return 0.0;
    return (clipped_hi - clipped_lo) / (max - min);
  }
  // Fraction of equi-depth buckets overlapped (with linear interpolation
  // inside partially covered buckets).
  const size_t nb = histogram_bounds.size() - 1;
  double covered = 0;
  for (size_t b = 0; b < nb; ++b) {
    const double blo = histogram_bounds[b];
    const double bhi = histogram_bounds[b + 1];
    const double olo = std::max(lo, blo);
    const double ohi = std::min(hi, bhi);
    if (ohi <= olo) continue;
    covered += bhi > blo ? (ohi - olo) / (bhi - blo) : 1.0;
  }
  return std::min(1.0, covered / static_cast<double>(nb));
}

double ColumnStats::EstimateNumericSelectivity(sql::CompareOp op,
                                               double value) const {
  switch (op) {
    case sql::CompareOp::kEq:
      return EstimateEqualitySelectivity(value);
    case sql::CompareOp::kNe:
      return 1.0 - EstimateEqualitySelectivity(value);
    case sql::CompareOp::kLt:
    case sql::CompareOp::kLe:
      return EstimateRangeSelectivity(min - 1.0, value);
    case sql::CompareOp::kGt:
    case sql::CompareOp::kGe:
      return EstimateRangeSelectivity(value, max + 1.0);
    default:
      return kDefaultEqSel;
  }
}

double ColumnStats::EstimateStringEquality(const std::string& value) const {
  for (const auto& [v, freq] : mcv_string) {
    if (v == value) return freq;
  }
  double mcv_mass = 0;
  for (const auto& [v, freq] : mcv_string) mcv_mass += freq;
  const double remaining =
      static_cast<double>(num_distinct) - static_cast<double>(mcv_string.size());
  if (remaining <= 0) return kDefaultEqSel;
  return std::max(0.0, (1.0 - mcv_mass) / remaining);
}

double ColumnStats::EstimateLikeSelectivity(const std::string& pattern) {
  // PG heuristic flavor: selectivity shrinks with the number of fixed
  // characters; leading % is less selective.
  int fixed = 0;
  for (char c : pattern) {
    if (c != '%' && c != '_') ++fixed;
  }
  double sel = std::pow(0.5, std::min(fixed, 10));
  if (!pattern.empty() && pattern.front() == '%') sel *= 2.0;
  return std::min(0.5, std::max(1e-4, sel));
}

ColumnStats StatsCollector::AnalyzeColumn(const Column& column) const {
  ColumnStats stats;
  stats.type = column.type;
  stats.row_count = column.size();
  if (column.size() == 0) return stats;

  if (column.type == sql::ColumnType::kString) {
    std::unordered_map<std::string, size_t> counts;
    for (const auto& s : column.strings) ++counts[s];
    stats.num_distinct = static_cast<int64_t>(counts.size());
    std::vector<std::pair<std::string, size_t>> by_freq(counts.begin(),
                                                        counts.end());
    const size_t k = std::min<size_t>(static_cast<size_t>(num_mcv_),
                                      by_freq.size());
    SortTopByFrequency(&by_freq, k);
    for (size_t i = 0; i < k; ++i) {
      stats.mcv_string.emplace_back(
          by_freq[i].first,
          static_cast<double>(by_freq[i].second) /
              static_cast<double>(column.size()));
    }
    return stats;
  }

  AscendingFold fold(column.size(), num_buckets_, &stats);
  if (column.type != sql::ColumnType::kInt ||
      !FoldDenseInts(column.ints, &fold, &stats)) {
    std::vector<double> values;
    values.reserve(column.size());
    for (size_t i = 0; i < column.size(); ++i) {
      values.push_back(column.AsDouble(i));
    }
    std::sort(values.begin(), values.end());
    stats.min = values.front();
    stats.max = values.back();
    for (double v : values) fold.Add(v, 1);
  }

  // Distinct count + MCVs from the key runs.
  auto& runs = fold.runs();
  stats.num_distinct = static_cast<int64_t>(runs.size());
  const size_t k =
      std::min<size_t>(static_cast<size_t>(num_mcv_), runs.size());
  SortTopByFrequency(&runs, k);
  for (size_t i = 0; i < k; ++i) {
    stats.mcv_numeric.emplace_back(
        runs[i].first.Value(),
        static_cast<double>(runs[i].second) /
            static_cast<double>(column.size()));
  }
  return stats;
}

TableStats StatsCollector::Analyze(const Table& table) const {
  TableStats stats;
  stats.row_count = table.num_rows();
  for (size_t c = 0; c < table.num_columns(); ++c) {
    stats.columns.push_back(AnalyzeColumn(table.column(static_cast<int>(c))));
  }
  return stats;
}

std::vector<TableStats> StatsCollector::AnalyzeAll(const Database& db) const {
  std::vector<TableStats> out;
  for (const auto& t : db.tables()) out.push_back(Analyze(*t));
  return out;
}

BitmapSampler::BitmapSampler(const Database& db, int sample_size,
                             uint64_t seed)
    : db_(db), sample_size_(sample_size) {
  Rng rng(seed);
  for (const auto& table : db.tables()) {
    std::vector<int>& rows = samples_[table->name()];
    const size_t n = table->num_rows();
    rows.reserve(static_cast<size_t>(sample_size));
    for (int i = 0; i < sample_size; ++i) {
      rows.push_back(n == 0 ? 0 : static_cast<int>(rng.NextUint64(n)));
    }
  }
}

std::vector<float> BitmapSampler::Bitmap(
    const std::string& table_name, const sql::SelectStatement& stmt) const {
  std::vector<float> bitmap(static_cast<size_t>(sample_size_), 0.0f);
  const Table* table = db_.FindTable(table_name);
  auto it = samples_.find(table_name);
  if (table == nullptr || it == samples_.end() || table->num_rows() == 0) {
    return bitmap;
  }
  // Find this table's binding name in the query.
  std::string binding;
  for (const auto& tref : stmt.tables) {
    if (tref.table == table_name) binding = tref.BindingName();
  }
  // Evaluate each filter predicate that targets this table. We reuse the
  // Executor by building a tiny single-table statement.
  sql::SelectStatement single;
  sql::SelectItem item;
  item.agg = sql::AggFunc::kCount;
  item.star = true;
  single.items.push_back(item);
  sql::TableRef tref;
  tref.table = table_name;
  tref.alias = binding == table_name ? "" : binding;
  single.tables.push_back(tref);
  for (const auto& pred : stmt.predicates) {
    if (pred.IsJoin() || pred.subquery) continue;
    const std::string& q = pred.lhs.qualifier;
    if (q == binding || q == table_name ||
        (q.empty() && table->def().ColumnIndex(pred.lhs.column) >= 0)) {
      single.predicates.push_back(pred);
    }
  }
  // Mark sample rows passing all single-table filters.
  Executor exec(db_);
  auto res = exec.Execute(single, /*collect_root_rows=*/true);
  if (!res.ok()) return bitmap;
  std::vector<char> pass(table->num_rows(), 0);
  for (int row : res.value().root_row_ids) {
    pass[static_cast<size_t>(row)] = 1;
  }
  const std::vector<int>& rows = it->second;
  for (size_t i = 0; i < rows.size(); ++i) {
    bitmap[i] = pass[static_cast<size_t>(rows[i])] != 0 ? 1.0f : 0.0f;
  }
  return bitmap;
}

}  // namespace preqr::db
