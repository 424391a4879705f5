// Cardinality estimation with PreQR (the paper's flagship downstream task):
// pre-train once, then fine-tune the last SQLBERT layer together with a
// 3-layer FC head; compare against the PostgreSQL-style estimator.
//
//   ./build/examples/cardinality_estimation
#include <cstdio>

#include "automaton/template_extractor.h"
#include "baselines/feature_encoders.h"
#include "core/pretrain.h"
#include "db/stats.h"
#include "eval/metrics.h"
#include "pg/pg_estimator.h"
#include "schema/schema_graph.h"
#include "tasks/estimator.h"
#include "tasks/preqr_encoder.h"
#include "workload/imdb.h"
#include "workload/query_gen.h"

using namespace preqr;

int main() {
  db::Database imdb = workload::MakeImdbDatabase(42, 0.15);
  workload::ImdbQueryGenerator gen(imdb, 1);
  auto train = gen.Synthetic(250, 2);
  auto test = gen.Synthetic(60, 2);

  std::vector<std::string> train_sqls, test_sqls;
  std::vector<double> train_cards, test_cards;
  for (const auto& q : train) {
    train_sqls.push_back(q.sql);
    train_cards.push_back(q.true_card);
  }
  for (const auto& q : test) {
    test_sqls.push_back(q.sql);
    test_cards.push_back(q.true_card);
  }

  // Pre-train PreQR on the query log (no labels needed).
  db::StatsCollector collector;
  auto stats = collector.AnalyzeAll(imdb);
  text::SqlTokenizer tokenizer(imdb.catalog(), stats, 16);
  automaton::TemplateExtractor extractor(0.2);
  automaton::Automaton fa = extractor.BuildAutomaton(train_sqls).value();
  schema::SchemaGraph graph = schema::SchemaGraph::Build(imdb.catalog());
  core::PreqrConfig config;
  config.d_model = 48;
  core::PreqrModel model(config, &tokenizer, &fa, &graph);
  core::Pretrainer::Options popt;
  popt.epochs = 2;
  popt.verbose = true;
  core::Pretrainer(model, popt).Train(train_sqls);

  // Fine-tune with the bitmap-sampling optimization (Section 4.3.2).
  db::BitmapSampler sampler(imdb, 64);
  baselines::BitmapFeatureEncoder bitmap(&sampler);
  tasks::PreqrEncoder encoder(&model);
  baselines::ConcatEncoder features(&encoder, &bitmap);
  tasks::EstimatorModel::Options eopt;
  eopt.epochs = 6;
  eopt.verbose = true;
  tasks::EstimatorModel estimator(&features, eopt);
  estimator.Fit(train_sqls, train_cards);

  // Compare against PostgreSQL-style statistics on held-out queries.
  pg::PgEstimator pg_est(imdb);
  std::vector<double> preqr_preds = estimator.PredictAll(test_sqls);
  std::vector<double> pg_preds;
  for (const auto& q : test) {
    pg_preds.push_back(pg_est.EstimateCardinality(q.stmt));
  }
  const auto preqr_stats = eval::ComputeQErrors(test_cards, preqr_preds);
  const auto pg_stats = eval::ComputeQErrors(test_cards, pg_preds);
  std::printf("\nq-error            median     mean      max\n");
  std::printf("PostgreSQL-style  %7.2f %8.2f %8.1f\n", pg_stats.median,
              pg_stats.mean, pg_stats.max);
  std::printf("PreQR + FC head   %7.2f %8.2f %8.1f\n", preqr_stats.median,
              preqr_stats.mean, preqr_stats.max);

  std::printf("\nthree held-out examples:\n");
  for (int i = 0; i < 3; ++i) {
    std::printf("  true=%-8.0f preqr=%-10.0f pg=%-10.0f  %.72s...\n",
                test_cards[i], preqr_preds[i], pg_preds[i],
                test_sqls[i].c_str());
  }
  return 0;
}
