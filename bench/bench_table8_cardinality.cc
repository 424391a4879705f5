// Regenerates Table 8: cardinality-estimation q-errors on the numeric
// workloads (JOB-light, Synthetic, Scale) for PG / MSCN(one-hot) / LSTM /
// PreQR / NeuroCard / NeuroCard+PreQR. Synthetic and Scale share the
// 0-2-join training set (Scale probes join-count generalization); JOB-light
// uses the multi-join training workload.
#include "bench/harness.h"

#include "baselines/feature_encoders.h"
#include "baselines/lstm_encoder.h"
#include "baselines/onehot.h"
#include "neurocard/neurocard.h"
#include "pg/pg_estimator.h"
#include "tasks/correction.h"
#include "tasks/estimator.h"
#include "tasks/preqr_encoder.h"

namespace preqr::bench {
namespace {

struct WorkloadEval {
  const char* name;
  const std::vector<workload::BenchQuery>* train;
  const std::vector<workload::BenchQuery>* eval;
};

void Run() {
  PrintHeader("Table 8", "cardinality errors on numeric workloads");
  EstimationSetup s = BuildEstimationSetup(BenchConfig());
  pg::PgEstimator pg_est(s.imdb);
  db::BitmapSampler sampler(s.imdb, 64);
  baselines::BitmapFeatureEncoder bitmap(&sampler);
  neurocard::NeuroCard nc(s.imdb, "title",
                          Sized(static_cast<int>(0.025 * 12000 * DbScale()) +
                                    60,
                                40));

  const WorkloadEval workloads[] = {
      {"JOB-light", &s.joblight_train, &s.joblight_eval},
      {"Synthetic", &s.synthetic_train, &s.synthetic_eval},
      {"Scale", &s.synthetic_train, &s.scale_eval},
  };

  // Train each learned model once per distinct training set.
  const std::vector<workload::BenchQuery>* last_train = nullptr;
  std::unique_ptr<baselines::OneHotEncoder> onehot;
  std::unique_ptr<baselines::LstmQueryEncoder> lstm;
  std::unique_ptr<baselines::ConcatEncoder> lstm_bm, preqr_bm;
  std::unique_ptr<tasks::PreqrEncoder> preqr_enc;
  std::unique_ptr<tasks::EstimatorModel> mscn_model, lstm_model, preqr_model;
  std::unique_ptr<tasks::CorrectionModel> nc_correction;

  for (const auto& wl : workloads) {
    if (wl.train != last_train) {
      last_train = wl.train;
      const auto train_sqls = Sqls(*wl.train);
      const auto train_cards = Cards(*wl.train);
      onehot = std::make_unique<baselines::OneHotEncoder>(s.imdb, &sampler);
      tasks::EstimatorModel::Options mopt;
      mopt.epochs = Sized(25, 6);
      mopt.hidden = 96;
      mscn_model = std::make_unique<tasks::EstimatorModel>(onehot.get(), mopt);
      mscn_model->Fit(train_sqls, train_cards);

      lstm = std::make_unique<baselines::LstmQueryEncoder>(32, 24, 3);
      lstm->BuildVocab(train_sqls);
      lstm_bm = std::make_unique<baselines::ConcatEncoder>(lstm.get(), &bitmap);
      tasks::EstimatorModel::Options lopt;
      lopt.epochs = Sized(5, 2);
      lopt.hidden = 96;
      lstm_model =
          std::make_unique<tasks::EstimatorModel>(lstm_bm.get(), lopt);
      lstm_model->Fit(train_sqls, train_cards);

      preqr_enc = std::make_unique<tasks::PreqrEncoder>(s.model.get());
      preqr_bm =
          std::make_unique<baselines::ConcatEncoder>(preqr_enc.get(), &bitmap);
      tasks::EstimatorModel::Options popt;
      popt.epochs = Sized(8, 2);
      popt.hidden = 128;
      popt.lr = 7e-4f;
      preqr_model =
          std::make_unique<tasks::EstimatorModel>(preqr_bm.get(), popt);
      preqr_model->Fit(train_sqls, train_cards);

      // NeuroCard correction model on the same training queries.
      std::vector<double> nc_base;
      for (const auto& q : *wl.train) {
        auto r = nc.EstimateCardinality(q.stmt);
        nc_base.push_back(r.ok() ? r.value() : 1.0);
      }
      tasks::EstimatorModel::Options copt;
      copt.epochs = Sized(6, 2);
      copt.hidden = 96;
      nc_correction =
          std::make_unique<tasks::CorrectionModel>(preqr_bm.get(), copt);
      nc_correction->Fit(train_sqls, nc_base, train_cards);
    }

    const auto eval_sqls = Sqls(*wl.eval);
    const auto truths = Cards(*wl.eval);
    PrintQErrorHeader(wl.name);
    {
      std::vector<double> est;
      for (const auto& q : *wl.eval) {
        est.push_back(pg_est.EstimateCardinality(q.stmt));
      }
      PrintQErrorRow("PGCard", eval::ComputeQErrors(truths, est));
    }
    PrintQErrorRow("MSCNCard",
                   eval::ComputeQErrors(truths, mscn_model->PredictAll(
                                                    eval_sqls)));
    PrintQErrorRow("LSTMCard",
                   eval::ComputeQErrors(truths, lstm_model->PredictAll(
                                                    eval_sqls)));
    PrintQErrorRow("PreQRCard",
                   eval::ComputeQErrors(truths, preqr_model->PredictAll(
                                                    eval_sqls)));
    {
      std::vector<double> est, corrected;
      for (const auto& q : *wl.eval) {
        auto r = nc.EstimateCardinality(q.stmt);
        const double base = r.ok() ? r.value() : 1.0;
        est.push_back(base);
        corrected.push_back(nc_correction->Correct(q.sql, base));
      }
      PrintQErrorRow("NeuroCard", eval::ComputeQErrors(truths, est));
      PrintQErrorRow("NeuroCard+PreQR",
                     eval::ComputeQErrors(truths, corrected));
    }
  }
}

}  // namespace
}  // namespace preqr::bench

int main() {
  preqr::bench::Run();
  return 0;
}
