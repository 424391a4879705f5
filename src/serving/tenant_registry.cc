#include "serving/tenant_registry.h"

#include <utility>

#include "automaton/template_extractor.h"
#include "common/check.h"

namespace preqr::serving {

TenantContext::TenantContext(Options options, automaton::Automaton fa)
    : catalog_(std::move(options.catalog)),
      stats_(std::move(options.stats)),
      graph_(schema::SchemaGraph::Build(catalog_)),
      fa_(std::move(fa)),
      tokenizer_(std::make_unique<text::SqlTokenizer>(
          catalog_, stats_, options.num_value_buckets)),
      model_(std::make_unique<core::PreqrModel>(options.config,
                                                tokenizer_.get(), &fa_,
                                                &graph_, options.seed)),
      encoder_(std::make_unique<tasks::PreqrEncoder>(
          model_.get(), options.encoder_options)) {
  // The tokenizer must reference *our* catalog copy, not the caller's
  // moved-from Options — this is the dangling-reference bug the bundle
  // exists to prevent.
  PREQR_CHECK(&tokenizer_->catalog() == &catalog_);
}

StatusOr<std::unique_ptr<TenantContext>> TenantContext::Create(
    Options options) {
  if (options.stats.size() != options.catalog.tables().size()) {
    return Status::InvalidArgument(
        "TenantContext: stats must align with catalog.tables() (" +
        std::to_string(options.stats.size()) + " stats for " +
        std::to_string(options.catalog.tables().size()) + " tables)");
  }
  auto fa = automaton::TemplateExtractor(options.template_epsilon)
                .BuildAutomaton(options.corpus);
  if (!fa.ok()) {
    return Status::InvalidArgument("TenantContext: corpus " +
                                   fa.status().message());
  }
  // The ctor is private (construction order is an invariant, not a
  // convenience), so no make_unique here.
  return std::unique_ptr<TenantContext>(
      new TenantContext(std::move(options), std::move(fa).value()));
}

std::string TenantContext::Describe() const {
  return std::to_string(catalog_.tables().size()) + " tables, " +
         std::to_string(graph_.num_nodes()) + " graph nodes, " +
         std::to_string(graph_.num_edges()) + " graph edges, " +
         std::to_string(tokenizer_->vocab().size()) + " vocab tokens, " +
         std::to_string(fa_.num_states()) + " automaton states, dim " +
         std::to_string(encoder_->dim());
}

Status TenantRegistry::Register(const std::string& tenant_id,
                                std::shared_ptr<TenantContext> context) {
  if (context == nullptr) {
    return Status::InvalidArgument("Register requires a TenantContext");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (contexts_.count(tenant_id) > 0) {
    return Status::InvalidArgument("tenant '" + tenant_id +
                                   "' already registered");
  }
  Status s = service_->RegisterTenant(tenant_id, context->encoder(),
                                      context->model());
  if (!s.ok()) return s;
  contexts_.emplace(tenant_id, std::move(context));
  return Status::Ok();
}

Status TenantRegistry::Deregister(const std::string& tenant_id) {
  std::shared_ptr<TenantContext> context;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = contexts_.find(tenant_id);
    if (it == contexts_.end()) {
      return Status::NotFound("unknown tenant '" + tenant_id + "'");
    }
    // Hold the context alive across the drain without holding mu_: the
    // service's DeregisterTenant blocks until every in-flight batch on
    // this tenant's encoder finished, and concurrent Register/Lookup calls
    // must not wait behind that.
    context = it->second;
  }
  Status s = service_->DeregisterTenant(tenant_id);
  if (!s.ok()) return s;
  std::lock_guard<std::mutex> lock(mu_);
  contexts_.erase(tenant_id);
  return Status::Ok();
}

std::shared_ptr<TenantContext> TenantRegistry::Lookup(
    const std::string& tenant_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = contexts_.find(tenant_id);
  return it == contexts_.end() ? nullptr : it->second;
}

std::vector<std::string> TenantRegistry::TenantIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(contexts_.size());
  for (const auto& [id, context] : contexts_) ids.push_back(id);
  return ids;
}

size_t TenantRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return contexts_.size();
}

}  // namespace preqr::serving
