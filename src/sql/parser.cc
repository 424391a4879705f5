#include "sql/parser.h"

#include <memory>
#include <utility>
#include <vector>

#include "sql/lexer.h"

namespace preqr::sql {

namespace {

// Hard cap on SELECT nesting (IN-subqueries and UNION chains both recurse
// through ParseSelect). Recursion deeper than this is hostile input, not a
// workload: without the cap a mutated query with thousands of nested
// `IN (SELECT` tokens overflows the stack instead of returning a Status
// (found by the sql_fuzz harness).
constexpr int kMaxSelectDepth = 64;

// int64 range as doubles: the lexer stores literal values as doubles, and
// casting an out-of-range double to int64_t is undefined behavior. 2^63 is
// exactly representable; the valid range is [-2^63, 2^63).
constexpr double kInt64Lo = -9223372036854775808.0;
constexpr double kInt64Hi = 9223372036854775808.0;

// Recursive-descent parser over a token stream.
class Parser {
 public:
  // `tokens` must end with a kEnd token and outlive the parser.
  explicit Parser(const std::vector<Token>& tokens) : tokens_(tokens) {}

  StatusOr<SelectStatement> ParseStatement() {
    auto stmt = ParseSelect();
    if (!stmt.ok()) return stmt.status();
    if (Peek().IsSymbol(";")) Advance();
    if (Peek().type != TokenType::kEnd) {
      return Err("trailing tokens after statement: '" + Peek().text + "'");
    }
    return stmt;
  }

 private:
  const Token& Peek(int ahead = 0) const {
    const size_t i = pos_ + static_cast<size_t>(ahead);
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool AcceptKeyword(const char* kw) {
    if (Peek().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  bool AcceptSymbol(const char* s) {
    if (Peek().IsSymbol(s)) {
      Advance();
      return true;
    }
    return false;
  }
  Status Err(const std::string& msg) const {
    return Status::ParseError(msg + " (near token #" + std::to_string(pos_) +
                              ")");
  }

  StatusOr<SelectStatement> ParseSelect() {
    if (depth_ >= kMaxSelectDepth) {
      return Err("SELECT nesting exceeds depth limit " +
                 std::to_string(kMaxSelectDepth));
    }
    ++depth_;
    auto stmt = ParseSelectImpl();
    --depth_;
    return stmt;
  }

  StatusOr<SelectStatement> ParseSelectImpl() {
    SelectStatement stmt;
    if (!AcceptKeyword("SELECT")) return Err("expected SELECT");
    AcceptKeyword("DISTINCT");  // accepted and normalized away
    // Select list.
    while (true) {
      auto item = ParseSelectItem();
      if (!item.ok()) return item.status();
      stmt.items.push_back(std::move(item.value()));
      if (!AcceptSymbol(",")) break;
    }
    if (!AcceptKeyword("FROM")) return Err("expected FROM");
    // Table list with implicit-join commas and explicit JOIN ... ON.
    {
      auto table = ParseTableRef();
      if (!table.ok()) return table.status();
      stmt.tables.push_back(std::move(table.value()));
    }
    while (true) {
      if (AcceptSymbol(",")) {
        auto table = ParseTableRef();
        if (!table.ok()) return table.status();
        stmt.tables.push_back(std::move(table.value()));
        continue;
      }
      if (Peek().IsKeyword("JOIN") || Peek().IsKeyword("INNER") ||
          Peek().IsKeyword("LEFT") || Peek().IsKeyword("RIGHT")) {
        AcceptKeyword("INNER");
        AcceptKeyword("LEFT");
        AcceptKeyword("RIGHT");
        if (!AcceptKeyword("JOIN")) return Err("expected JOIN");
        auto table = ParseTableRef();
        if (!table.ok()) return table.status();
        stmt.tables.push_back(std::move(table.value()));
        if (!AcceptKeyword("ON")) return Err("expected ON");
        auto pred = ParsePredicate();
        if (!pred.ok()) return pred.status();
        stmt.predicates.push_back(std::move(pred.value()));
        continue;
      }
      break;
    }
    if (AcceptKeyword("WHERE")) {
      while (true) {
        auto pred = ParsePredicate();
        if (!pred.ok()) return pred.status();
        stmt.predicates.push_back(std::move(pred.value()));
        if (!AcceptKeyword("AND")) break;
      }
    }
    if (AcceptKeyword("GROUP")) {
      if (!AcceptKeyword("BY")) return Err("expected BY after GROUP");
      while (true) {
        auto col = ParseColumnRef();
        if (!col.ok()) return col.status();
        stmt.group_by.push_back(std::move(col.value()));
        if (!AcceptSymbol(",")) break;
      }
    }
    if (AcceptKeyword("ORDER")) {
      if (!AcceptKeyword("BY")) return Err("expected BY after ORDER");
      while (true) {
        auto col = ParseColumnRef();
        if (!col.ok()) return col.status();
        bool asc = true;
        if (AcceptKeyword("DESC")) asc = false;
        else AcceptKeyword("ASC");
        stmt.order_by.emplace_back(std::move(col.value()), asc);
        if (!AcceptSymbol(",")) break;
      }
    }
    if (AcceptKeyword("LIMIT")) {
      if (Peek().type != TokenType::kNumber) return Err("expected limit count");
      const Token& count = Advance();
      if (!(count.number >= kInt64Lo && count.number < kInt64Hi)) {
        return Err("limit count out of int64 range: '" + count.text + "'");
      }
      stmt.limit = static_cast<int64_t>(count.number);
    }
    if (AcceptKeyword("UNION")) {
      auto next = ParseSelect();
      if (!next.ok()) return next.status();
      stmt.union_next =
          std::make_shared<SelectStatement>(std::move(next.value()));
    }
    return stmt;
  }

  StatusOr<SelectItem> ParseSelectItem() {
    SelectItem item;
    const Token& t = Peek();
    auto agg_from_keyword = [](const std::string& kw) {
      if (kw == "COUNT") return AggFunc::kCount;
      if (kw == "SUM") return AggFunc::kSum;
      if (kw == "AVG") return AggFunc::kAvg;
      if (kw == "MIN") return AggFunc::kMin;
      if (kw == "MAX") return AggFunc::kMax;
      return AggFunc::kNone;
    };
    if (t.type == TokenType::kKeyword &&
        agg_from_keyword(t.text) != AggFunc::kNone) {
      item.agg = agg_from_keyword(Advance().text);
      if (!AcceptSymbol("(")) return Err("expected ( after aggregate");
      if (AcceptSymbol("*")) {
        item.star = true;
      } else {
        auto col = ParseColumnRef();
        if (!col.ok()) return col.status();
        item.column = std::move(col.value());
      }
      if (!AcceptSymbol(")")) return Err("expected ) after aggregate");
      return item;
    }
    if (AcceptSymbol("*")) {
      item.star = true;
      return item;
    }
    auto col = ParseColumnRef();
    if (!col.ok()) return col.status();
    item.column = std::move(col.value());
    return item;
  }

  StatusOr<TableRef> ParseTableRef() {
    if (Peek().type != TokenType::kIdentifier) return Err("expected table name");
    TableRef ref;
    ref.table = Advance().text;
    AcceptKeyword("AS");
    if (Peek().type == TokenType::kIdentifier) ref.alias = Advance().text;
    return ref;
  }

  StatusOr<ColumnRef> ParseColumnRef() {
    if (Peek().type != TokenType::kIdentifier) {
      return Err("expected column name, got '" + Peek().text + "'");
    }
    ColumnRef ref;
    ref.column = Advance().text;
    if (Peek().IsSymbol(".")) {
      Advance();
      if (Peek().type != TokenType::kIdentifier) {
        return Err("expected column after '.'");
      }
      ref.qualifier = std::move(ref.column);
      ref.column = Advance().text;
    }
    return ref;
  }

  StatusOr<Literal> ParseLiteral() {
    const Token& t = Peek();
    if (t.type == TokenType::kNumber) {
      const Token& tok = Advance();
      if (!tok.is_integer) return Literal::Float(tok.number);
      if (!(tok.number >= kInt64Lo && tok.number < kInt64Hi)) {
        return Err("integer literal out of int64 range: '" + tok.text + "'");
      }
      return Literal::Int(static_cast<int64_t>(tok.number));
    }
    if (t.type == TokenType::kString) {
      return Literal::String(Advance().text);
    }
    return Err("expected literal, got '" + t.text + "'");
  }

  StatusOr<Predicate> ParsePredicate() {
    Predicate pred;
    auto lhs = ParseColumnRef();
    if (!lhs.ok()) return lhs.status();
    pred.lhs = std::move(lhs.value());

    if (AcceptKeyword("NOT")) {
      // Only `NOT IN` / `NOT LIKE` appear in our workloads; treated as the
      // positive form for representation purposes (the encoder sees the
      // token stream, the executor supports only the positive forms).
      // Fall through to operator parsing.
    }
    if (AcceptKeyword("BETWEEN")) {
      pred.op = CompareOp::kBetween;
      auto lo = ParseLiteral();
      if (!lo.ok()) return lo.status();
      if (!AcceptKeyword("AND")) return Err("expected AND in BETWEEN");
      auto hi = ParseLiteral();
      if (!hi.ok()) return hi.status();
      pred.values.push_back(std::move(lo.value()));
      pred.values.push_back(std::move(hi.value()));
      return pred;
    }
    if (AcceptKeyword("LIKE")) {
      pred.op = CompareOp::kLike;
      auto v = ParseLiteral();
      if (!v.ok()) return v.status();
      pred.values.push_back(std::move(v.value()));
      return pred;
    }
    if (AcceptKeyword("IN")) {
      pred.op = CompareOp::kIn;
      if (!AcceptSymbol("(")) return Err("expected ( after IN");
      if (Peek().IsKeyword("SELECT")) {
        auto sub = ParseSelect();
        if (!sub.ok()) return sub.status();
        pred.subquery =
            std::make_shared<SelectStatement>(std::move(sub.value()));
      } else {
        while (true) {
          auto v = ParseLiteral();
          if (!v.ok()) return v.status();
          pred.values.push_back(std::move(v.value()));
          if (!AcceptSymbol(",")) break;
        }
      }
      if (!AcceptSymbol(")")) return Err("expected ) after IN list");
      return pred;
    }
    // Comparison operator.
    const Token& op = Peek();
    if (op.type != TokenType::kSymbol) {
      return Err("expected comparison operator, got '" + op.text + "'");
    }
    if (op.text == "=") pred.op = CompareOp::kEq;
    else if (op.text == "<>") pred.op = CompareOp::kNe;
    else if (op.text == "<") pred.op = CompareOp::kLt;
    else if (op.text == "<=") pred.op = CompareOp::kLe;
    else if (op.text == ">") pred.op = CompareOp::kGt;
    else if (op.text == ">=") pred.op = CompareOp::kGe;
    else return Err("unknown operator '" + op.text + "'");
    Advance();
    // Column-column (join) or column-literal?
    if (Peek().type == TokenType::kIdentifier) {
      auto rhs = ParseColumnRef();
      if (!rhs.ok()) return rhs.status();
      pred.rhs_is_column = true;
      pred.rhs_column = std::move(rhs.value());
      return pred;
    }
    auto v = ParseLiteral();
    if (!v.ok()) return v.status();
    pred.values.push_back(std::move(v.value()));
    return pred;
  }

  const std::vector<Token>& tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  // current ParseSelect recursion depth
};

}  // namespace

StatusOr<SelectStatement> Parse(const std::vector<Token>& tokens) {
  if (tokens.empty() || tokens.back().type != TokenType::kEnd) {
    return Status::ParseError("token stream does not end with kEnd");
  }
  Parser parser(tokens);
  return parser.ParseStatement();
}

StatusOr<SelectStatement> Parse(const std::string& sql) {
  auto tokens = Lex(sql);
  if (!tokens.ok()) return tokens.status();
  return Parse(tokens.value());
}

}  // namespace preqr::sql
