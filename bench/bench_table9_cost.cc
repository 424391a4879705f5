// Regenerates Table 9: cost-estimation q-errors on the numeric workloads
// (JOB-light, Synthetic, Scale) for PG / MSCN(one-hot) / LSTM / PreQR.
// Ground-truth cost is the executor's deterministic work-unit accounting.
#include "bench/harness.h"

#include "baselines/feature_encoders.h"
#include "baselines/lstm_encoder.h"
#include "baselines/onehot.h"
#include "pg/pg_estimator.h"
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
  PrintHeader("Table 9", "cost errors on numeric workloads");
  EstimationSetup s = BuildEstimationSetup(BenchConfig());
  pg::PgEstimator pg_est(s.imdb);
  db::BitmapSampler sampler(s.imdb, 64);
  baselines::BitmapFeatureEncoder bitmap(&sampler);

  const WorkloadEval workloads[] = {
      {"JOB-light", &s.joblight_train, &s.joblight_eval},
      {"Synthetic", &s.synthetic_train, &s.synthetic_eval},
      {"Scale", &s.synthetic_train, &s.scale_eval},
  };

  const std::vector<workload::BenchQuery>* last_train = nullptr;
  std::unique_ptr<baselines::OneHotEncoder> onehot;
  std::unique_ptr<baselines::LstmQueryEncoder> lstm;
  std::unique_ptr<baselines::ConcatEncoder> lstm_bm, preqr_bm;
  std::unique_ptr<tasks::PreqrEncoder> preqr_enc;
  std::unique_ptr<tasks::EstimatorModel> mscn_model, lstm_model, preqr_model;

  for (const auto& wl : workloads) {
    if (wl.train != last_train) {
      last_train = wl.train;
      const auto train_sqls = Sqls(*wl.train);
      const auto train_costs = Costs(*wl.train);
      onehot = std::make_unique<baselines::OneHotEncoder>(s.imdb, &sampler);
      tasks::EstimatorModel::Options mopt;
      mopt.epochs = Sized(25, 6);
      mopt.hidden = 96;
      mscn_model = std::make_unique<tasks::EstimatorModel>(onehot.get(), mopt);
      mscn_model->Fit(train_sqls, train_costs);

      lstm = std::make_unique<baselines::LstmQueryEncoder>(32, 24, 3);
      lstm->BuildVocab(train_sqls);
      lstm_bm = std::make_unique<baselines::ConcatEncoder>(lstm.get(), &bitmap);
      tasks::EstimatorModel::Options lopt;
      lopt.epochs = Sized(5, 2);
      lopt.hidden = 96;
      lstm_model =
          std::make_unique<tasks::EstimatorModel>(lstm_bm.get(), lopt);
      lstm_model->Fit(train_sqls, train_costs);

      preqr_enc = std::make_unique<tasks::PreqrEncoder>(s.model.get());
      preqr_bm =
          std::make_unique<baselines::ConcatEncoder>(preqr_enc.get(), &bitmap);
      tasks::EstimatorModel::Options popt;
      popt.epochs = Sized(8, 2);
      popt.hidden = 128;
      popt.lr = 7e-4f;
      preqr_model =
          std::make_unique<tasks::EstimatorModel>(preqr_bm.get(), popt);
      preqr_model->Fit(train_sqls, train_costs);
    }

    const auto eval_sqls = Sqls(*wl.eval);
    const auto truths = Costs(*wl.eval);
    PrintQErrorHeader(wl.name);
    {
      std::vector<double> est;
      for (const auto& q : *wl.eval) {
        est.push_back(pg_est.EstimateCost(q.stmt));
      }
      PrintQErrorRow("PGCost", eval::ComputeQErrors(truths, est));
    }
    PrintQErrorRow("MSCNCost",
                   eval::ComputeQErrors(truths,
                                        mscn_model->PredictAll(eval_sqls)));
    PrintQErrorRow("LSTMCost",
                   eval::ComputeQErrors(truths,
                                        lstm_model->PredictAll(eval_sqls)));
    PrintQErrorRow("PreQRCost",
                   eval::ComputeQErrors(truths,
                                        preqr_model->PredictAll(eval_sqls)));
  }
}

}  // namespace
}  // namespace preqr::bench

int main() {
  preqr::bench::Run();
  return 0;
}
