#ifndef PREQR_TASKS_PREQR_ENCODER_H_
#define PREQR_TASKS_PREQR_ENCODER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "baselines/encoder.h"
#include "common/lru_cache.h"
#include "common/status.h"
#include "core/preqr_model.h"

namespace preqr::tasks {

// Adapts a pre-trained PreqrModel to the downstream encoder interfaces.
// Fine-tuning follows the paper: only the *last* SQLBERT (Trm_g) layer
// trains together with the task head; everything below is frozen, so the
// frozen prefix of each query is computed once per fine-tuning run instead
// of once per epoch.
//
// Two memos live here. The schema keys/values (schema_kv_) are built at
// construction and on every InvalidateCache, and re-projected after
// fine-tuning moves the last layer. The frozen-prefix memo (prefix_cache_,
// a sharded, size-bounded LRU of [S, d] prefixes plus span structure)
// keeps every miss once the encoder has fine-tuned, i.e. after a
// train-mode encode or BeginStep(true): that serves later epochs,
// validation and a planner's repeated estimates. Before that (every
// serving tenant) it keeps a query's prefix only from the query's second
// miss on. The callers of such an encoder cache final embeddings
// (EncoderService's result cache) and answer most repeats themselves, so
// a stream of distinct queries stores no prefixes, while a query their
// cache evicted and sends again reads its prefix from here. Either way the
// encoded bits are the same; only the time to produce them differs.
class PreqrEncoder : public baselines::QueryEncoder,
                     public baselines::SequenceEncoder {
 public:
  struct Options {
    // Total frozen-prefix entries held across all shards.
    size_t cache_capacity = 4096;
    int cache_shards = 8;
  };

  explicit PreqrEncoder(core::PreqrModel* model);
  PreqrEncoder(core::PreqrModel* model, Options options);

  // Every encode runs the padded [B, T, d] path; the single-query entry
  // points are B=1 batches. Malformed SQL reads out the zero entry
  // (counted, logged once per distinct error) for the task loops.
  nn::Tensor EncodeVector(const std::string& sql, bool train) override;
  nn::Tensor EncodeSequence(const std::string& sql, bool train) override;
  std::vector<nn::Tensor> EncodeVectorBatch(
      const std::vector<std::string>& sqls, bool train) override;
  // Status-propagating entry points: malformed SQL returns the parse error
  // instead of the zero fallback.
  StatusOr<nn::Tensor> TryEncodeVector(const std::string& sql,
                                       bool train) override;
  // Missing frozen prefixes and the per-query read-outs run as genuine
  // padded [B, T, d] forwards (chunks of up to kMaxEncodeBatch queries);
  // duplicate queries collapse onto one prefix computation. Output i is
  // bitwise-identical to TryEncodeVector(sqls[i], train) at any batch
  // composition — the batched kernels partition per example, so neighbors
  // (including malformed ones) cannot change a query's bits (pinned by
  // batch_invariance_test).
  std::vector<StatusOr<nn::Tensor>> TryEncodeVectorBatch(
      const std::vector<std::string>& sqls, bool train) override;
  std::vector<nn::Tensor> TrainableParameters() override;
  // Structured read-out: [CLS ; mean(all) ; mean-of-span-means ;
  // max-of-span-means ; mean(tables)] over the final token states.
  int dim() const override { return 5 * model_->config().d_model; }
  int sequence_dim() const override { return model_->config().d_model; }
  std::string name() const override { return "PreQR"; }
  // The wrapped model (non-owned) — what AttachModel/RegisterTenant want
  // when this encoder backs a serving tenant.
  core::PreqrModel* model() const { return model_; }
  // BeginStep(true) marks the last layer's memoized state stale (see
  // PrepareLastLayer); train-mode encodes do the same.
  void BeginStep(bool train) override;

  // Drops cached prefixes, re-encodes the frozen schema nodes and
  // re-projects their keys/values (call after further pre-training /
  // incremental updates of the model, or after weights change through
  // anything but this encoder's own fine-tuning).
  void InvalidateCache() override;

  // Prefix-cache observability (cache sizing, serving dashboards, tests).
  LruCacheStats cache_stats() const { return prefix_cache_.stats(); }
  size_t cached_queries() const { return prefix_cache_.size(); }

 private:
  // Queries per padded [B, T, d] forward; bounds the T_max * B slab a
  // single chunk allocates while keeping dispatch counts ~B times lower
  // than the per-query loop.
  static constexpr int kMaxEncodeBatch = 32;

  struct CachedQuery {
    nn::Tensor prefix;  // frozen-prefix token states [S, d]
    // Predicate spans (each join/filter conjunct's token positions) and the
    // FROM-list positions, from the automaton symbolization. Pooling per
    // span keeps each predicate's column-op-value binding intact.
    std::vector<std::vector<int>> predicate_spans;
    std::vector<int> table_rows;
  };
  // Cache-through lookup for a batch: hits come from the prefix cache,
  // distinct misses are computed by ComputeQueriesBatched and inserted in
  // first-occurrence order (see the class comment for which are kept);
  // malformed queries carry their parse error.
  std::vector<StatusOr<CachedQuery>> Lookup(
      const std::vector<std::string>& sqls);
  // Records a never-tuned encoder's miss of `sql` in recent_misses_ and
  // returns whether its slot held `sql` already, i.e. whether it missed
  // before.
  bool RepeatMiss(const std::string& sql);
  // Span/table structure from the automaton symbolization over the first
  // `s` (possibly clipped) token positions.
  static void ExtractStructure(const text::SqlTokenizer::Tokenized& tokenized,
                               int s, CachedQuery* out);
  // Frozen prefixes + span structure for several queries at once: chunks of
  // parse-ok queries run as one padded EncodePrefixBatch each; parse errors
  // land in status[i] without touching their neighbors' chunks.
  void ComputeQueriesBatched(const std::vector<std::string>& sqls,
                             std::vector<CachedQuery>* computed,
                             std::vector<Status>* status);
  // Shared body of the vector entry points. With `zero_fallback`, a
  // malformed query reads out ZeroEntry() instead of returning its Status.
  std::vector<StatusOr<nn::Tensor>> EncodeBatch(
      const std::vector<std::string>& sqls, bool train, bool zero_fallback);
  // Final token states [len, d] of each entry: the last Trm_g layer over
  // padded [B, T, d] chunks, sliced back per entry (no guards or set_train
  // calls).
  std::vector<nn::Tensor> FinalTokens(
      const std::vector<const CachedQuery*>& entries);
  // The structured read-out over one query's final token states.
  nn::Tensor PoolReadOut(const nn::Tensor& tokens, const CachedQuery& cached);
  // Zero-row entry used by the fallback for malformed queries.
  CachedQuery ZeroEntry() const;
  // Re-encodes schema_, then ProjectSchemaKv().
  void EncodeSchema();
  // Projects every layer's schema keys/values from schema_.
  void ProjectSchemaKv();
  // Called at the top of every encode. A train-mode encode marks the last
  // layer stale; an inference encode of a stale layer first re-projects
  // the schema keys/values from the fine-tuned weights.
  void PrepareLastLayer(bool train);
  // schema_kv_, or null when the schema branch is off.
  const std::vector<nn::AttentionKv>* SchemaKv() const;

  core::PreqrModel* model_;
  nn::Tensor schema_;  // detached schema node encodings
  // Per Trm_g layer, the cross-attention keys/values of schema_: the query
  // never changes them, so they are projected once, not once per encode.
  // Train-mode last-layer forwards project under the tape instead, so
  // wk/wv still train.
  std::vector<nn::AttentionKv> schema_kv_;
  // Set by fine-tuning (BeginStep(true), train-mode encodes): the last
  // layer's weights may have moved since its memo was built.
  bool last_layer_stale_ = false;
  // Set by the same calls, never cleared (InvalidateCache included): the
  // encoder fine-tunes, so prefix_cache_ keeps every prefix it computes.
  // Same threading contract as last_layer_stale_.
  bool fine_tuned_ = false;
  // Before that, the queries that missed: one hash tag per slot (slot =
  // hash % size, 0 = empty), as many slots as prefix_cache_ has entries,
  // kept across InvalidateCache since it records traffic, not weights. A
  // slot collision only loses or grants one admission, never a bit.
  // Atomic slots, so concurrent encodes may record misses.
  std::vector<std::atomic<uint64_t>> recent_misses_;
  ShardedLruCache<std::string, CachedQuery> prefix_cache_;
};

}  // namespace preqr::tasks

#endif  // PREQR_TASKS_PREQR_ENCODER_H_
