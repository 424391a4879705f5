#ifndef PREQR_SERVING_TENANT_REGISTRY_H_
#define PREQR_SERVING_TENANT_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "automaton/fa.h"
#include "common/status.h"
#include "core/preqr_model.h"
#include "db/stats.h"
#include "schema/schema_graph.h"
#include "serving/encoder_service.h"
#include "sql/catalog.h"
#include "tasks/preqr_encoder.h"
#include "text/tokenizer.h"

namespace preqr::serving {

// Everything one hosted database needs to serve PreQR embeddings, bundled
// with the ownership and construction order the layers below leave
// implicit: the tokenizer keeps a reference into the catalog, the model
// keeps pointers into the tokenizer/automaton/graph, the encoder keeps a
// pointer into the model. A TenantContext owns the whole chain, so handing
// `encoder()` + `model()` to an EncoderService is safe for as long as the
// context is alive — which is exactly what TenantRegistry guarantees.
//
// The per-database artifacts are the point (the paper internalizes ONE
// database's schema into the model): schema graph, schema-token
// vocabulary, template automaton, and weights are all derived from this
// tenant's catalog/stats/corpus and shared with no other tenant.
class TenantContext {
 public:
  struct Options {
    // The database this tenant serves: schema + per-table statistics
    // (stats must align with catalog.tables(), as SqlTokenizer requires).
    sql::Catalog catalog;
    std::vector<db::TableStats> stats;
    // Representative workload the template automaton is mined from. May be
    // empty (the automaton degrades to its start state gracefully); every
    // query must lex.
    std::vector<std::string> corpus;
    core::PreqrConfig config;
    uint64_t seed = 1234;
    int num_value_buckets = 8;
    double template_epsilon = 0.2;
    tasks::PreqrEncoder::Options encoder_options;
  };

  // Builds the full chain (graph -> automaton -> tokenizer -> model ->
  // encoder). Misaligned stats, or a corpus query that does not lex, fail
  // with kInvalidArgument — a registry driven by runtime registration must
  // not crash on bad input, nor mine a template from it.
  static StatusOr<std::unique_ptr<TenantContext>> Create(Options options);

  // Members point into each other; moving or copying would dangle them.
  TenantContext(const TenantContext&) = delete;
  TenantContext& operator=(const TenantContext&) = delete;

  const sql::Catalog& catalog() const { return catalog_; }
  const schema::SchemaGraph& graph() const { return graph_; }
  const automaton::Automaton& automaton() const { return fa_; }
  const text::SqlTokenizer& tokenizer() const { return *tokenizer_; }
  const text::Vocab& vocab() const { return tokenizer_->vocab(); }
  core::PreqrModel* model() const { return model_.get(); }
  tasks::PreqrEncoder* encoder() const { return encoder_.get(); }

  // One-line inventory of the per-tenant artifacts, for logs and the
  // bench harness.
  std::string Describe() const;

 private:
  TenantContext(Options options, automaton::Automaton fa);

  // Construction order is load-bearing: each member may reference the ones
  // above it, and destruction runs in reverse.
  sql::Catalog catalog_;
  std::vector<db::TableStats> stats_;
  schema::SchemaGraph graph_;
  automaton::Automaton fa_;
  std::unique_ptr<text::SqlTokenizer> tokenizer_;
  std::unique_ptr<core::PreqrModel> model_;
  std::unique_ptr<tasks::PreqrEncoder> encoder_;
};

// Thread-safe owner of TenantContexts, kept in lock-step with an
// EncoderService's tenant table: Register hands the context's encoder and
// model to the service, Deregister drains the tenant out of the service
// *before* the context (and the model the in-flight work runs on) can be
// released. The registry owns the contexts; the service only borrows.
class TenantRegistry {
 public:
  // `service` is non-owned and must outlive the registry.
  explicit TenantRegistry(EncoderService* service) : service_(service) {}

  // Registers `context` under `id` with the service. kInvalidArgument on a
  // duplicate id (in the registry or the service).
  Status Register(const std::string& tenant_id,
                  std::shared_ptr<TenantContext> context);
  // Drains the tenant out of the service (everything admitted is
  // delivered, new work gets kNotFound), then releases the context.
  Status Deregister(const std::string& tenant_id);

  std::shared_ptr<TenantContext> Lookup(const std::string& tenant_id) const;
  std::vector<std::string> TenantIds() const;
  size_t size() const;
  EncoderService* service() const { return service_; }

 private:
  EncoderService* service_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<TenantContext>> contexts_;
};

}  // namespace preqr::serving

#endif  // PREQR_SERVING_TENANT_REGISTRY_H_
