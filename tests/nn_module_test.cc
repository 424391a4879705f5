#include <cstdio>

#include <gtest/gtest.h>

#include "nn/module.h"
#include "nn/optim.h"
#include "nn/serialize.h"
#include "test_temp_dir.h"

namespace preqr::nn {
namespace {

TEST(LinearTest, ShapesAndParams) {
  Rng rng(1);
  Linear lin(4, 3, rng);
  EXPECT_EQ(lin.NumParameters(), 4 * 3 + 3);
  Tensor x = Tensor::Randn({5, 4}, rng, 1.0f);
  Tensor y = lin.Forward(x);
  EXPECT_EQ(y.dim(0), 5);
  EXPECT_EQ(y.dim(1), 3);
}

TEST(LinearTest, NoBias) {
  Rng rng(1);
  Linear lin(4, 3, rng, /*bias=*/false);
  EXPECT_EQ(lin.NumParameters(), 12);
}

TEST(EmbeddingTest, LookupMatchesWeightRows) {
  Rng rng(2);
  Embedding emb(10, 4, rng);
  Tensor out = emb.Forward({3, 3, 7});
  EXPECT_EQ(out.dim(0), 3);
  for (int j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(out.at(j), emb.weight().at(3 * 4 + j));
    EXPECT_FLOAT_EQ(out.at(4 + j), emb.weight().at(3 * 4 + j));
    EXPECT_FLOAT_EQ(out.at(8 + j), emb.weight().at(7 * 4 + j));
  }
}

TEST(LayerNormTest, NormalizesRows) {
  LayerNorm ln(8);
  Rng rng(3);
  Tensor x = Tensor::Randn({1, 4, 8}, rng, 3.0f);
  Tensor y = ln.ForwardMasked(x, {4});
  for (int r = 0; r < 4; ++r) {
    float mean = 0.0f, var = 0.0f;
    for (int c = 0; c < 8; ++c) mean += y.at(r * 8 + c);
    mean /= 8.0f;
    for (int c = 0; c < 8; ++c) {
      const float d = y.at(r * 8 + c) - mean;
      var += d * d;
    }
    var /= 8.0f;
    EXPECT_NEAR(mean, 0.0f, 1e-4f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

TEST(MultiHeadAttentionTest, OutputShapeSelfAttention) {
  Rng rng(4);
  MultiHeadAttention mha(16, 4, rng);
  Tensor x = Tensor::Randn({6, 16}, rng, 1.0f);
  Tensor y = mha.Forward(x, x);
  EXPECT_EQ(y.dim(0), 6);
  EXPECT_EQ(y.dim(1), 16);
}

TEST(MultiHeadAttentionTest, CrossAttentionDifferentLengths) {
  Rng rng(4);
  MultiHeadAttention mha(16, 2, rng);
  Tensor q = Tensor::Randn({3, 16}, rng, 1.0f);
  Tensor kv = Tensor::Randn({9, 16}, rng, 1.0f);
  Tensor y = mha.Forward(q, kv);
  EXPECT_EQ(y.dim(0), 3);
  EXPECT_EQ(y.dim(1), 16);
}

TEST(TransformerLayerTest, ShapePreserved) {
  Rng rng(5);
  TransformerEncoderLayer layer(16, 4, 32, rng);
  Tensor x = Tensor::Randn({1, 7, 16}, rng, 1.0f);
  Tensor y = layer.ForwardBatch(x, {7});
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(BiLstmTest, Shapes) {
  Rng rng(6);
  BiLstm lstm(8, 5, rng);
  Tensor x = Tensor::Randn({4, 8}, rng, 1.0f);
  auto out = lstm.Forward(x);
  EXPECT_EQ(out.per_step.dim(0), 4);
  EXPECT_EQ(out.per_step.dim(1), 10);
  EXPECT_EQ(out.summary.dim(0), 1);
  EXPECT_EQ(out.summary.dim(1), 10);
}

TEST(BiLstmTest, SummaryMatchesEndStates) {
  Rng rng(6);
  BiLstm lstm(3, 4, rng);
  Tensor x = Tensor::Randn({5, 3}, rng, 1.0f);
  auto out = lstm.Forward(x);
  // summary = concat(fwd last step, rev first step). fwd last step is the
  // first half of per_step's last row; rev first step is the second half of
  // per_step's first row.
  for (int j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(out.summary.at(j), out.per_step.at(4 * 8 + j));
    EXPECT_FLOAT_EQ(out.summary.at(4 + j), out.per_step.at(0 * 8 + 4 + j));
  }
}

TEST(GruCellTest, StateShape) {
  Rng rng(7);
  GruCell gru(6, 5, rng);
  Tensor x = Tensor::Randn({1, 6}, rng, 1.0f);
  Tensor h = Tensor::Zeros({1, 5});
  Tensor h2 = gru.Forward(x, h);
  EXPECT_EQ(h2.dim(1), 5);
}

TEST(RgcnTest, ForwardAggregatesByRelation) {
  Rng rng(8);
  RgcnLayer rgcn(4, 4, 2, rng);
  Tensor h = Tensor::Randn({3, 4}, rng, 1.0f);
  std::vector<std::vector<Edge>> edges = {{{0, 1}, {1, 0}}, {{2, 0}}};
  std::vector<std::vector<float>> norms = {{1.0f, 1.0f}, {1.0f}};
  Tensor out = rgcn.Forward(h, edges, norms);
  EXPECT_EQ(out.dim(0), 3);
  EXPECT_EQ(out.dim(1), 4);
  for (Index i = 0; i < out.size(); ++i) EXPECT_GE(out.at(i), 0.0f);  // ReLU
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize ||W x - y||^2 for a fixed x,y over W.
  Rng rng(9);
  Linear lin(3, 1, rng);
  Adam opt(lin.Parameters(), 5e-2f);
  Tensor x = Tensor::FromData({1, 3}, {1.0f, -2.0f, 0.5f});
  const std::vector<float> target = {3.0f};
  float last = 1e9f;
  for (int step = 0; step < 300; ++step) {
    opt.ZeroGrad();
    Tensor loss = MseLoss(lin.Forward(x), target);
    loss.Backward();
    opt.Step();
    last = loss.item();
  }
  EXPECT_LT(last, 1e-4f);
}

TEST(AdamTest, ClipsLargeGradients) {
  Tensor w = Tensor::FromData({1}, {0.0f}, true);
  Adam opt({w}, 1.0f, 0.9f, 0.999f, 1e-8f, /*clip_norm=*/1.0f);
  // Huge gradient.
  w.grad_data()[0] = 1e6f;
  opt.Step();
  // Step magnitude is bounded by lr regardless of raw gradient.
  EXPECT_LE(std::abs(w.at(0)), 10.0f);
}

TEST(SgdTest, MovesAgainstGradient) {
  Tensor w = Tensor::FromData({1}, {1.0f}, true);
  Sgd opt({w}, 0.1f);
  w.grad_data()[0] = 2.0f;
  opt.Step();
  EXPECT_FLOAT_EQ(w.at(0), 0.8f);
}

TEST(SerializeTest, SaveLoadRoundTrip) {
  Rng rng(10);
  TransformerEncoderLayer a(8, 2, 16, rng);
  TransformerEncoderLayer b(8, 2, 16, rng);  // different init
  const std::string path = test::TempPath("preqr_params.bin");
  ASSERT_TRUE(SaveModule(a, path).ok());
  ASSERT_TRUE(LoadModule(b, path).ok());
  auto pa = a.Parameters();
  auto pb = b.Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    for (Index j = 0; j < pa[i].size(); ++j) {
      EXPECT_FLOAT_EQ(pa[i].at(j), pb[i].at(j));
    }
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadRejectsWrongArchitecture) {
  Rng rng(11);
  Linear a(4, 4, rng);
  Linear b(4, 5, rng);
  const std::string path = test::TempPath("preqr_bad.bin");
  ASSERT_TRUE(SaveModule(a, path).ok());
  EXPECT_FALSE(LoadModule(b, path).ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadMissingFileFails) {
  Rng rng(12);
  Linear a(2, 2, rng);
  EXPECT_FALSE(LoadModule(a, "/nonexistent/path.bin").ok());
}

TEST(ModuleTest, NamedParametersIncludeChildren) {
  Rng rng(13);
  TransformerEncoderLayer layer(8, 2, 16, rng);
  bool found_attn = false, found_ffn = false;
  for (const auto& [name, t] : layer.NamedParameters()) {
    if (name.rfind("attn.", 0) == 0) found_attn = true;
    if (name.rfind("ffn.", 0) == 0) found_ffn = true;
  }
  EXPECT_TRUE(found_attn);
  EXPECT_TRUE(found_ffn);
}

TEST(ModuleTest, SetTrainPropagatesToChildren) {
  // set_train must reach every registered descendant, not just the root —
  // otherwise nested Dropout layers keep dropping during inference.
  struct Leaf : Module {};
  struct Mid : Module {
    Leaf leaf;
    Mid() { RegisterChild("leaf", &leaf); }
  };
  struct Root : Module {
    Mid mid;
    Root() { RegisterChild("mid", &mid); }
  };
  Root root;
  root.set_train(false);
  EXPECT_FALSE(root.train_mode());
  EXPECT_FALSE(root.mid.train_mode());
  EXPECT_FALSE(root.mid.leaf.train_mode());
  root.set_train(true);
  EXPECT_TRUE(root.train_mode());
  EXPECT_TRUE(root.mid.train_mode());
  EXPECT_TRUE(root.mid.leaf.train_mode());
}

TEST(ModuleTest, TrainingEndToEndThroughTransformer) {
  // Overfit a transformer layer + head to map a fixed input to a target.
  Rng rng(14);
  TransformerEncoderLayer layer(8, 2, 16, rng);
  Linear head(8, 1, rng);
  std::vector<Tensor> params = layer.Parameters();
  auto hp = head.Parameters();
  params.insert(params.end(), hp.begin(), hp.end());
  Adam opt(params, 1e-2f);
  Tensor x = Tensor::Randn({1, 4, 8}, rng, 1.0f);
  const std::vector<float> target = {1.0f};
  float first = -1, last = -1;
  for (int step = 0; step < 200; ++step) {
    opt.ZeroGrad();
    Tensor enc = Reshape(layer.ForwardBatch(x, {4}), {4, 8});
    Tensor pooled = Reshape(MeanRows(enc), {1, 8});
    Tensor loss = MseLoss(head.Forward(pooled), target);
    loss.Backward();
    opt.Step();
    if (step == 0) first = loss.item();
    last = loss.item();
  }
  EXPECT_LT(last, first * 0.05f);
}

}  // namespace
}  // namespace preqr::nn
