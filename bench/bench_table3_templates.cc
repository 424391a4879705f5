// Regenerates Table 3: number of query templates extracted per dataset.
// Small template counts mean the merged automaton stays cheap to build and
// match (Section 3.3.1).
#include "bench/harness.h"

#include "workload/ch.h"
#include "workload/clustering_workloads.h"
#include "workload/sql2text.h"

namespace preqr::bench {
namespace {

int CountTemplates(const std::vector<std::string>& queries) {
  automaton::TemplateExtractor extractor(0.2);
  return static_cast<int>(extractor.Extract(queries).value().templates.size());
}

void Run() {
  PrintHeader("Table 3", "number of query templates per dataset");
  db::Database imdb = workload::MakeImdbDatabase(42, DbScale());
  workload::ImdbQueryGenerator gen(imdb, 1);

  std::printf("%-16s %10s %10s\n", "dataset", "queries", "templates");
  auto row = [](const char* name, const std::vector<std::string>& queries) {
    std::printf("%-16s %10zu %10d\n", name, queries.size(),
                CountTemplates(queries));
  };

  row("JOB-light", Sqls(gen.JobLight()));
  row("Synthetic", Sqls(gen.Synthetic(Sized(400, 60), 2)));
  row("Scale", Sqls(gen.Scale(Sized(30, 6), 4)));
  row("JOB", Sqls(gen.JobStrings(Sized(120, 20), 4, 8)));

  {
    auto pairs = workload::MakeWikiSqlDataset(Sized(300, 50));
    std::vector<std::string> queries;
    for (const auto& p : pairs) queries.push_back(p.sql);
    row("WikiSQL", queries);
  }
  {
    auto pairs = workload::MakeStackOverflowDataset(Sized(300, 50));
    std::vector<std::string> queries;
    for (const auto& p : pairs) queries.push_back(p.sql);
    row("StackOverflow", queries);
  }
  row("IIT Bombay", workload::MakeIitBombayWorkload().queries);
  row("UB Exam", workload::MakeUbExamWorkload().queries);
  row("PocketData", workload::MakePocketDataWorkload().queries);
}

}  // namespace
}  // namespace preqr::bench

int main() {
  preqr::bench::Run();
  return 0;
}
