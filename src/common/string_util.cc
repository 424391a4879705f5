#include "common/string_util.h"

#include <algorithm>
#include <set>

namespace preqr {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::vector<std::string> SplitAny(std::string_view s,
                                  std::string_view delims) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (delims.find(c) != std::string_view::npos) {
      if (!cur.empty()) out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

int EditDistance(std::string_view a, std::string_view b) {
  // A common prefix or suffix never changes a unit-cost Levenshtein
  // distance, so only the differing middle needs the DP (equal strings
  // trim to nothing).
  while (!a.empty() && !b.empty() && a.front() == b.front()) {
    a.remove_prefix(1);
    b.remove_prefix(1);
  }
  while (!a.empty() && !b.empty() && a.back() == b.back()) {
    a.remove_suffix(1);
    b.remove_suffix(1);
  }
  const size_t n = a.size(), m = b.size();
  if (n == 0) return static_cast<int>(m);
  if (m == 0) return static_cast<int>(n);
  // One DP row: before row i overwrites row[j] it holds D[i-1][j], and
  // `diag` carries D[i-1][j-1] from the previous column.
  std::vector<int> row(m + 1);
  for (size_t j = 0; j <= m; ++j) row[j] = static_cast<int>(j);
  for (size_t i = 1; i <= n; ++i) {
    const char ai = a[i - 1];
    int diag = row[0];
    row[0] = static_cast<int>(i);
    for (size_t j = 1; j <= m; ++j) {
      const int up = row[j];
      int best = diag + (ai == b[j - 1] ? 0 : 1);
      if (up + 1 < best) best = up + 1;
      if (row[j - 1] + 1 < best) best = row[j - 1] + 1;
      diag = up;
      row[j] = best;
    }
  }
  return row[m];
}

double StringSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  const double d = EditDistance(a, b);
  const double denom = static_cast<double>(std::max(a.size(), b.size()));
  return 1.0 - d / denom;
}

double Jaccard(const std::vector<std::string>& a,
               const std::vector<std::string>& b) {
  std::set<std::string> sa(a.begin(), a.end());
  std::set<std::string> sb(b.begin(), b.end());
  if (sa.empty() && sb.empty()) return 1.0;
  size_t inter = 0;
  for (const auto& x : sa) inter += sb.count(x);
  const size_t uni = sa.size() + sb.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / uni;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

}  // namespace preqr
