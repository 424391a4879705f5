#include <gtest/gtest.h>

#include "db/stats.h"
#include "text/tokenizer.h"
#include "text/vocab.h"
#include "workload/imdb.h"
#include "test_temp_dir.h"

namespace preqr::text {
namespace {

TEST(VocabTest, SpecialsFirst) {
  Vocab v;
  EXPECT_EQ(v.Id("[PAD]"), Vocab::kPadId);
  EXPECT_EQ(v.Id("[UNK]"), Vocab::kUnkId);
  EXPECT_EQ(v.Id("[CLS]"), Vocab::kClsId);
  EXPECT_EQ(v.Id("[END]"), Vocab::kEndId);
  EXPECT_EQ(v.Id("[MASK]"), Vocab::kMaskId);
}

TEST(VocabTest, AddIdempotent) {
  Vocab v;
  const int a = v.Add("foo");
  EXPECT_EQ(v.Add("foo"), a);
  EXPECT_EQ(v.Id("foo"), a);
  EXPECT_EQ(v.Token(a), "foo");
}

TEST(VocabTest, UnknownMapsToUnk) {
  Vocab v;
  EXPECT_EQ(v.Id("never-added"), Vocab::kUnkId);
  EXPECT_FALSE(v.Contains("never-added"));
}

TEST(VocabTest, SaveLoadRoundTrip) {
  Vocab v;
  v.Add("alpha");
  v.Add("beta");
  const std::string path = test::TempPath("vocab.txt");
  ASSERT_TRUE(v.Save(path).ok());
  auto loaded = Vocab::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), v.size());
  EXPECT_EQ(loaded.value().Id("beta"), v.Id("beta"));
  std::remove(path.c_str());
}

class TokenizerTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new db::Database(workload::MakeImdbDatabase(3, 0.02));
    db::StatsCollector collector;
    stats_ = new std::vector<db::TableStats>(collector.AnalyzeAll(*db_));
    tokenizer_ = new SqlTokenizer(db_->catalog(), *stats_, 8);
  }
  static db::Database* db_;
  static std::vector<db::TableStats>* stats_;
  static SqlTokenizer* tokenizer_;
};
db::Database* TokenizerTest::db_ = nullptr;
std::vector<db::TableStats>* TokenizerTest::stats_ = nullptr;
SqlTokenizer* TokenizerTest::tokenizer_ = nullptr;

TEST_F(TokenizerTest, ClsAndEndAnchors) {
  auto t = tokenizer_->Tokenize("SELECT COUNT(*) FROM title");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value().tokens.front(), "[CLS]");
  EXPECT_EQ(t.value().tokens.back(), "[END]");
  EXPECT_EQ(t.value().ids.front(), Vocab::kClsId);
  EXPECT_EQ(t.value().ids.back(), Vocab::kEndId);
}

TEST_F(TokenizerTest, AlignedSequences) {
  auto t = tokenizer_->Tokenize(
      "SELECT COUNT(*) FROM title t WHERE t.production_year > 2000");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value().tokens.size(), t.value().ids.size());
  EXPECT_EQ(t.value().tokens.size(), t.value().symbols.size());
  EXPECT_EQ(t.value().tokens.size(), t.value().quantiles.size());
}

TEST_F(TokenizerTest, AliasResolvesToTableToken) {
  auto t = tokenizer_->Tokenize("SELECT COUNT(*) FROM title t WHERE t.id = 3");
  ASSERT_TRUE(t.ok());
  // Both the FROM alias and the qualifier resolve to "title".
  int title_count = 0;
  for (const auto& tok : t.value().tokens) {
    if (tok == "title") ++title_count;
  }
  EXPECT_GE(title_count, 2);
}

TEST_F(TokenizerTest, QualifiedColumnBecomesSchemaToken) {
  auto t = tokenizer_->Tokenize(
      "SELECT COUNT(*) FROM title t WHERE t.production_year > 2000");
  ASSERT_TRUE(t.ok());
  bool found = false;
  for (const auto& tok : t.value().tokens) {
    if (tok == "title.production_year") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(TokenizerTest, ValuesBecomeRangeTokens) {
  auto t = tokenizer_->Tokenize(
      "SELECT COUNT(*) FROM title t WHERE t.production_year > 2000");
  ASSERT_TRUE(t.ok());
  bool found = false;
  for (const auto& tok : t.value().tokens) {
    if (tok.rfind("title.production_year#", 0) == 0) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(TokenizerTest, RangeTokenOrderRespectsValues) {
  // A later year must land in a bucket >= an earlier year's bucket.
  const std::string lo =
      tokenizer_->RangeToken("title", "production_year", 1930);
  const std::string hi =
      tokenizer_->RangeToken("title", "production_year", 2015);
  const int lo_b = std::stoi(lo.substr(lo.find('#') + 1));
  const int hi_b = std::stoi(hi.substr(hi.find('#') + 1));
  EXPECT_LE(lo_b, hi_b);
  EXPECT_GE(lo_b, 0);
  EXPECT_LT(hi_b, tokenizer_->num_value_buckets());
}

TEST_F(TokenizerTest, QuantilesMonotone) {
  const float q_lo = tokenizer_->ValueQuantile("title", "production_year",
                                               1930);
  const float q_hi = tokenizer_->ValueQuantile("title", "production_year",
                                               2015);
  EXPECT_LE(q_lo, q_hi);
  EXPECT_GE(q_lo, 0.0f);
  EXPECT_LE(q_hi, 1.0f);
}

TEST_F(TokenizerTest, StringMcvGetsValueToken) {
  // Country codes are highly repetitive -> MCV token.
  auto t = tokenizer_->Tokenize(
      "SELECT COUNT(*) FROM company_name cn WHERE cn.country_code = 'us'");
  ASSERT_TRUE(t.ok());
  bool found = false;
  for (const auto& tok : t.value().tokens) {
    if (tok == "v:us") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(TokenizerTest, ParseFailurePropagates) {
  EXPECT_FALSE(tokenizer_->Tokenize("SELECT FROM WHERE").ok());
}

TEST_F(TokenizerTest, NoUnkForSchemaQueries) {
  auto t = tokenizer_->Tokenize(
      "SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = "
      "mc.movie_id AND mc.company_type_id = 1");
  ASSERT_TRUE(t.ok());
  for (size_t i = 0; i < t.value().ids.size(); ++i) {
    EXPECT_NE(t.value().ids[i], Vocab::kUnkId)
        << "token: " << t.value().tokens[i];
  }
}

}  // namespace
}  // namespace preqr::text
