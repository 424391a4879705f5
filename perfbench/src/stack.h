#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

// Inputs and program set-up shared by the workloads. Inputs (queries and
// their ground truth) are made from the workload seed before any set-up
// clock starts; the database, the tenant's template corpus and the
// estimator's training set are fixed, so every run hosts the same program
// and only the query stream changes with the seed.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/stats.h"
#include "serving/tenant_registry.h"
#include "stats.h"
#include "trace.h"
#include "tasks/estimator.h"
#include "workload/query_gen.h"

namespace perfbench {

namespace db = preqr::db;
namespace sql = preqr::sql;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Set-up is repeated this many times per run and setup_s is the median,
// so one slow repetition does not move the figure.
inline constexpr int kSetupReps = 3;
// Load connections of the serve workloads: one per vCPU of the reference
// host, so the client threads keep every core busy without queueing on
// the scheduler.
inline constexpr int kConnections = 4;

// The hosted IMDB-shaped database (scale 0.22), sized so executing a
// 3-5-table join is a real share of planning and running it.
db::Database MakeDatabase();

// The fixed, seed-independent program inputs.
struct FixedInputs {
  std::vector<std::string> template_corpus;  // the tenant's automaton corpus
  std::vector<std::string> estimator_sqls;   // estimator training set
  std::vector<double> estimator_cards;
};
FixedInputs MakeFixedInputs(const db::Database& db);

// `n` generated 1-3-table queries with numeric filters, of `n` distinct
// shapes: no two differ only in their integer literals.
std::vector<sql::SelectStatement> BaseQueries(const db::Database& db,
                                              uint64_t seed, size_t n);

// An endless stream of distinct SQL strings over `bases` (distinct shapes,
// each with an integer filter literal), computed on demand so its memory
// does not grow with the run. String i is base i % bases.size() in round
// r = i / bases.size(): its first integer literal is shifted by +r and
// every other one by a seeded draw from [-64, 64] (clamped at 0). Every
// base takes every bases.size()-th string, so the template mix stays even
// however far a run reads; the token count does not depend on the
// literals' values. Strings are distinct because shapes differ across
// bases and the first literal differs across rounds.
class VariantStream {
 public:
  VariantStream(std::vector<sql::SelectStatement> bases, uint64_t seed);
  std::string At(uint64_t i) const;
  std::vector<std::string> Take(uint64_t from, size_t n) const;

 private:
  std::vector<sql::SelectStatement> bases_;
  uint64_t seed_;
};

// `n` distinct multi-join queries (3 or more tables) with their true count.
std::vector<preqr::workload::BenchQuery> PlanQueries(const db::Database& db,
                                                     uint64_t seed, size_t n);

// Executed work units of the true-cardinality plan of each query.
std::vector<double> TruePlanCosts(
    const db::Database& db, const std::vector<preqr::workload::BenchQuery>& qs);

// The program's own set-up: statistics, then the tenant chain (schema
// graph, automaton, tokenizer, model, encoder).
std::unique_ptr<preqr::serving::TenantContext> MakeTenant(
    const db::Database& db, const FixedInputs& fixed);

// A trained learned cardinality estimator over `tenant`'s encoder.
std::unique_ptr<preqr::tasks::EstimatorModel> TrainEstimator(
    preqr::serving::TenantContext* tenant, const FixedInputs& fixed);

// Host-drift probe, a diagnostic printed with each run: a fixed dependent
// floating-point loop (cpu) and a fixed pointer chase through 8 MiB (mem).
// Runs before set-up and after the measured phase (after peak memory is
// read, so its buffer never counts).
struct HostProbe {
  double cpu_ms = 0, mem_ms = 0;
};
HostProbe RunHostProbe();
std::string HostProbeNote(const HostProbe& before, const HostProbe& after);

double PeakRssMb();

// Adds setup_s, ops_per_s, p50_us, tail_us and peak_rss_mb, plus notes with
// the tail's percentile, the sample count and how many samples lie beyond,
// and a ladder of latency percentiles.
void AddEndToEnd(RunResult* r, const std::vector<double>& setup_secs,
                 double measured_s, const LatencyHistogram& latency,
                 double peak_rss_mb);

// Runs `build` `reps` times, timing each, and returns the last result;
// earlier ones are destroyed before the next build starts.
template <typename T, typename Build>
std::unique_ptr<T> TimedSetups(int reps, const Build& build,
                               std::vector<double>* seconds) {
  std::unique_ptr<T> out;
  for (int i = 0; i < reps; ++i) {
    out.reset();
    const int64_t t0 = NowNs();
    out = build();
    seconds->push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
