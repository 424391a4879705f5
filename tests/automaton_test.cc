#include <gtest/gtest.h>

#include "automaton/fa.h"
#include "automaton/symbol.h"
#include "automaton/template_extractor.h"

namespace preqr::automaton {
namespace {

// Queries q1..q5 from Figure 2 of the paper.
const char* kQ1 = "SELECT name FROM user WHERE rank IN ('adm','sup')";
const char* kQ2 = "SELECT SUM(balance) FROM accounts";
const char* kQ3 =
    "SELECT name FROM user WHERE rank = 'adm' "
    "UNION SELECT name FROM user WHERE rank = 'sup'";
const char* kQ4 =
    "SELECT SUM(balance) FROM accounts WHERE user_id IN "
    "(SELECT user_id FROM user WHERE rank = 'adm')";
const char* kQ5 =
    "SELECT SUM(accounts.balance) FROM accounts, user "
    "WHERE accounts.user_id = user.id AND user.rank = 'adm'";

TEST(SymbolTest, ProjectsIdentifiersByRegion) {
  auto symbols = StructuralSymbols(
      "SELECT t.id FROM title t WHERE t.production_year > 2010");
  // SELECT [t . id] FROM [title t] WHERE [t . production_year] > [2010] END
  std::vector<Symbol> expected = {
      Symbol::kSelect,     Symbol::kSelectItem, Symbol::kSelectItem,
      Symbol::kSelectItem, Symbol::kFrom,       Symbol::kTable,
      Symbol::kTable,      Symbol::kWhere,      Symbol::kColumn,
      Symbol::kColumn,     Symbol::kColumn,     Symbol::kOpGt,
      Symbol::kValueNum,   Symbol::kEnd};
  EXPECT_EQ(symbols, expected);
}

TEST(SymbolTest, AggregateRegionIsOneSymbol) {
  auto symbols = StructuralSymbols("SELECT COUNT(*) FROM title");
  // COUNT ( * ) all map to kAgg.
  std::vector<Symbol> expected = {Symbol::kSelect, Symbol::kAgg, Symbol::kAgg,
                                  Symbol::kAgg,    Symbol::kAgg, Symbol::kFrom,
                                  Symbol::kTable,  Symbol::kEnd};
  EXPECT_EQ(symbols, expected);
}

TEST(SymbolTest, FromListCollapsesToOneState) {
  auto symbols =
      StructuralSymbols("SELECT COUNT(*) FROM title t, movie_companies mc");
  auto collapsed = Collapse(symbols);
  // SELECT AGG FROM TAB END
  std::vector<Symbol> expected = {Symbol::kSelect, Symbol::kAgg, Symbol::kFrom,
                                  Symbol::kTable, Symbol::kEnd};
  EXPECT_EQ(collapsed, expected);
}

TEST(SymbolTest, OperatorsAreDistinct) {
  auto a = Collapse(StructuralSymbols("SELECT a FROM t WHERE b > 1"));
  auto b = Collapse(StructuralSymbols("SELECT a FROM t WHERE b = 1"));
  EXPECT_NE(a, b);
}

TEST(SymbolTest, SameStructureDifferentNamesEqual) {
  auto a = StructuralSymbols("SELECT a FROM t WHERE b > 1");
  auto b = StructuralSymbols("SELECT zz FROM other WHERE yy > 99");
  EXPECT_EQ(a, b);
}

TEST(SymbolTest, LexFailureGivesEmpty) {
  EXPECT_TRUE(StructuralSymbols("SELECT @@@").empty());
}

TEST(SymbolTest, SymbolsToStringReadable) {
  auto s = Collapse(StructuralSymbols("SELECT a FROM t WHERE b = 2"));
  EXPECT_EQ(SymbolsToString(s), "SELECT ITEM FROM TAB WHERE COL = NUM END");
}

TEST(FaTest, MatchAcceptsOwnTemplate) {
  AutomatonBuilder builder;
  const auto symbols = StructuralSymbols(kQ1);
  builder.AddTemplate(Collapse(symbols));
  Automaton fa = builder.Build();
  auto match = fa.Match(symbols);
  EXPECT_TRUE(match.accepted);
  EXPECT_EQ(match.states.size(), symbols.size());
}

TEST(FaTest, ListTokensShareState) {
  AutomatonBuilder builder;
  const auto symbols = StructuralSymbols(
      "SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = 3");
  builder.AddTemplate(Collapse(symbols));
  Automaton fa = builder.Build();
  auto match = fa.Match(symbols);
  ASSERT_TRUE(match.accepted);
  // Tokens 6..10 are the FROM list (title t , movie_companies mc): same state.
  const int from_list_state = match.states[6];
  for (int i = 7; i <= 10; ++i) EXPECT_EQ(match.states[i], from_list_state);
}

TEST(FaTest, UnionReusesStates) {
  // The paper's Table 2: q3 = q UNION q walks the same states twice.
  AutomatonBuilder builder;
  builder.AddTemplate(Collapse(StructuralSymbols(kQ3)));
  Automaton fa = builder.Build();
  const auto symbols = StructuralSymbols(kQ3);
  auto match = fa.Match(symbols);
  ASSERT_TRUE(match.accepted);
  // The SELECT token after UNION maps to the same state as the first SELECT.
  size_t union_pos = 0;
  for (size_t i = 0; i < symbols.size(); ++i) {
    if (symbols[i] == Symbol::kUnion) union_pos = i;
  }
  ASSERT_GT(union_pos, 0u);
  EXPECT_EQ(match.states[union_pos + 1], match.states[0]);
}

TEST(FaTest, MaximalPrefixMergeSharesStates) {
  AutomatonBuilder builder;
  auto t1 = Collapse(StructuralSymbols("SELECT a FROM t WHERE b = 1"));
  auto t2 = Collapse(StructuralSymbols("SELECT a FROM t WHERE b > 1"));
  builder.AddTemplate(t1);
  const int before = builder.Build().num_states();
  builder.AddTemplate(t2);
  const int after = builder.Build().num_states();
  // Only the operator + value + end differ -> few new states.
  EXPECT_LE(after - before, 3);
  // Matching still works for both.
  Automaton fa = builder.Build();
  EXPECT_TRUE(fa.Match(StructuralSymbols("SELECT a FROM t WHERE b = 1"))
                  .accepted);
  EXPECT_TRUE(fa.Match(StructuralSymbols("SELECT zz FROM q WHERE k > 7"))
                  .accepted);
}

TEST(FaTest, UnknownStructureDegradesGracefully) {
  AutomatonBuilder builder;
  builder.AddTemplate(Collapse(StructuralSymbols("SELECT a FROM t")));
  Automaton fa = builder.Build();
  auto match = fa.Match(StructuralSymbols("SELECT a FROM t WHERE b = 1"));
  EXPECT_FALSE(match.accepted);
  // Still emits one state per token.
  EXPECT_EQ(match.states.size(),
            StructuralSymbols("SELECT a FROM t WHERE b = 1").size());
}

TEST(FaTest, Q1AndQ3ShareStatePrefix) {
  // Structural kinship of logically-equal q1/q3 (Figure 2).
  AutomatonBuilder builder;
  builder.AddTemplate(Collapse(StructuralSymbols(kQ1)));
  builder.AddTemplate(Collapse(StructuralSymbols(kQ3)));
  Automaton fa = builder.Build();
  auto m1 = fa.Match(StructuralSymbols(kQ1));
  auto m3 = fa.Match(StructuralSymbols(kQ3));
  ASSERT_TRUE(m1.accepted);
  ASSERT_TRUE(m3.accepted);
  // Both share the SELECT..WHERE prefix states.
  for (int i = 0; i < 5; ++i) EXPECT_EQ(m1.states[i], m3.states[i]);
}

TEST(TemplateDistanceTest, IdenticalStructureIsZero) {
  auto a = NormalizeForTemplate("SELECT a FROM t WHERE b = 1").value();
  auto b = NormalizeForTemplate("SELECT x FROM y WHERE z = 99").value();
  EXPECT_NEAR(TemplateDistance(a, b), 0.0, 1e-9);
}

TEST(TemplateDistanceTest, DifferentStructureIsPositive) {
  auto a = NormalizeForTemplate(kQ1).value();
  auto b = NormalizeForTemplate(kQ2).value();
  EXPECT_GT(TemplateDistance(a, b), 0.1);
}

TEST(TemplateDistanceTest, UnlexableSqlIsAStatusNotEmptyClauses) {
  auto got = NormalizeForTemplate("SELECT 'unterminated FROM t");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(got.status().message().find("does not lex"), std::string::npos)
      << got.status().message();
}

TEST(TemplateExtractorTest, GroupsByStructure) {
  TemplateExtractor extractor(0.2);
  std::vector<std::string> queries = {
      "SELECT a FROM t WHERE b = 1",
      "SELECT x FROM y WHERE z = 5",
      "SELECT COUNT(*) FROM t1, t2 WHERE t1.a = t2.b AND t1.c > 3",
      "SELECT COUNT(*) FROM p, q WHERE p.k = q.k AND p.v > 9",
  };
  auto ext = extractor.Extract(queries).value();
  EXPECT_EQ(ext.templates.size(), 2u);
  EXPECT_EQ(ext.assignment[0], ext.assignment[1]);
  EXPECT_EQ(ext.assignment[2], ext.assignment[3]);
  EXPECT_NE(ext.assignment[0], ext.assignment[2]);
}

TEST(TemplateExtractorTest, PaperFigure2Queries) {
  TemplateExtractor extractor(0.2);
  auto ext = extractor.Extract({kQ1, kQ2, kQ3, kQ4, kQ5}).value();
  // All five structures are distinct templates at a tight threshold...
  EXPECT_GE(ext.templates.size(), 3u);
  // ...and the automaton accepts each of them.
  Automaton fa = extractor.BuildAutomaton({kQ1, kQ2, kQ3, kQ4, kQ5}).value();
  for (const char* q : {kQ1, kQ2, kQ3, kQ4, kQ5}) {
    EXPECT_TRUE(fa.Match(StructuralSymbols(q)).accepted) << q;
  }
}

TEST(TemplateExtractorTest, EmptyWorkload) {
  TemplateExtractor extractor;
  auto ext = extractor.Extract({}).value();
  EXPECT_TRUE(ext.templates.empty());
  EXPECT_TRUE(ext.assignment.empty());
}

TEST(TemplateExtractorTest, AssignmentCoversAllQueries) {
  TemplateExtractor extractor(0.15);
  std::vector<std::string> queries;
  for (int i = 0; i < 50; ++i) {
    queries.push_back("SELECT a FROM t WHERE b = " + std::to_string(i));
  }
  auto ext = extractor.Extract(queries).value();
  EXPECT_EQ(ext.templates.size(), 1u);
  for (int a : ext.assignment) EXPECT_EQ(a, 0);
}

}  // namespace
}  // namespace preqr::automaton
