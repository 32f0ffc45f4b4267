// Tests of the combined surrogates used by the weighted-sum and stacking
// TLA algorithms (paper Sec. V-B/V-D).
#include "core/combined.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

namespace gptc::core {
namespace {

/// Deterministic fake surrogate: constant mean/stddev.
class ConstSurrogate final : public gp::Surrogate {
 public:
  ConstSurrogate(double mean, double stddev, std::size_t dim = 1)
      : mean_(mean), stddev_(stddev), dim_(dim) {}
  using gp::Surrogate::predict;
  void predict(std::span<const la::Vector>,
               std::span<gp::Prediction> out) const override {
    for (gp::Prediction& p : out) {
      p.mean = mean_;
      p.variance = stddev_ * stddev_;
    }
  }
  std::size_t dim() const override { return dim_; }

 private:
  double mean_, stddev_;
  std::size_t dim_;
};

gp::SurrogatePtr make_const(double mean, double stddev, std::size_t dim = 1) {
  return std::make_shared<ConstSurrogate>(mean, stddev, dim);
}

TEST(WeightedSurrogate, EqualWeightsAverageMeans) {
  const auto ws = WeightedSurrogate::equal({make_const(2.0, 1.0),
                                            make_const(4.0, 1.0)});
  const gp::Prediction p = ws->predict({0.5});
  EXPECT_DOUBLE_EQ(p.mean, 3.0);  // weights normalized to 1/2 each
  EXPECT_NEAR(p.stddev(), 1.0, 1e-12);
}

TEST(WeightedSurrogate, WeightsAreNormalized) {
  // Paper Eq. (1): mean is the weighted sum; this implementation
  // normalizes weights so the output stays on the models' scale.
  WeightedSurrogate ws({make_const(2.0, 1.0), make_const(4.0, 1.0)},
                       {3.0, 1.0});
  EXPECT_DOUBLE_EQ(ws.predict({0.0}).mean, 0.75 * 2.0 + 0.25 * 4.0);
  EXPECT_DOUBLE_EQ(ws.weights()[0], 0.75);
}

TEST(WeightedSurrogate, GeometricStddev) {
  // Paper Eq. (2): sigma = prod sigma_i^{w_i}; with weights 1/2, 1/2 and
  // sigmas 1 and 4 => sigma = 2.
  const auto ws =
      WeightedSurrogate::equal({make_const(0.0, 1.0), make_const(0.0, 4.0)});
  EXPECT_NEAR(ws->predict({0.0}).stddev(), 2.0, 1e-12);
}

TEST(WeightedSurrogate, ZeroSigmaMemberCollapsesSigma) {
  const auto ws =
      WeightedSurrogate::equal({make_const(0.0, 0.0), make_const(0.0, 4.0)});
  EXPECT_DOUBLE_EQ(ws->predict({0.0}).variance, 0.0);
}

TEST(WeightedSurrogate, ZeroWeightMemberIsIgnoredInSigma) {
  WeightedSurrogate ws({make_const(1.0, 0.0), make_const(3.0, 2.0)},
                       {0.0, 1.0});
  const gp::Prediction p = ws.predict({0.0});
  EXPECT_DOUBLE_EQ(p.mean, 3.0);
  EXPECT_NEAR(p.stddev(), 2.0, 1e-12);  // zero-sigma member has zero weight
}

TEST(WeightedSurrogate, ValidatesInputs) {
  EXPECT_THROW(WeightedSurrogate({}, {}), std::invalid_argument);
  EXPECT_THROW(WeightedSurrogate({make_const(0, 1)}, {1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(WeightedSurrogate({make_const(0, 1)}, {-1.0}),
               std::invalid_argument);
  EXPECT_THROW(WeightedSurrogate({make_const(0, 1)}, {0.0}),
               std::invalid_argument);
  EXPECT_THROW(
      WeightedSurrogate({make_const(0, 1, 1), make_const(0, 1, 2)},
                        {1.0, 1.0}),
      std::invalid_argument);
  EXPECT_THROW(WeightedSurrogate({nullptr}, {1.0}), std::invalid_argument);
}

class ResidualStackTest : public ::testing::Test {
 protected:
  static la::Matrix grid(int n) {
    std::vector<la::Vector> xs;
    for (int i = 0; i < n; ++i) xs.push_back({(i + 0.5) / n});
    return la::Matrix::from_rows(xs);
  }
  static la::Vector sample(int n, double (*f)(double)) {
    la::Vector y;
    for (int i = 0; i < n; ++i) y.push_back(f((i + 0.5) / n));
    return y;
  }

  gp::LcmOptions options_;
  rng::Rng rng_{31};
};

TEST_F(ResidualStackTest, SingleLayerActsLikeAGp) {
  ResidualStack stack(1);
  stack.add_layer(grid(15), sample(15, [](double x) { return std::sin(5 * x); }),
                  options_, rng_);
  EXPECT_EQ(stack.num_layers(), 1u);
  EXPECT_NEAR(stack.predict({0.5}).mean, std::sin(2.5), 0.05);
}

TEST_F(ResidualStackTest, SecondLayerLearnsTheResidual) {
  // Layer 1: f(x) = sin(5x); layer 2 observes f(x) + 2 — the stack's mean
  // must track the shifted function.
  ResidualStack stack(1);
  stack.add_layer(grid(15), sample(15, [](double x) { return std::sin(5 * x); }),
                  options_, rng_);
  stack.add_layer(grid(12),
                  sample(12, [](double x) { return std::sin(5 * x) + 2.0; }),
                  options_, rng_);
  EXPECT_EQ(stack.num_layers(), 2u);
  for (double x : {0.2, 0.5, 0.8})
    EXPECT_NEAR(stack.predict({x}).mean, std::sin(5 * x) + 2.0, 0.15)
        << "at x=" << x;
}

TEST_F(ResidualStackTest, CopyIsIndependentForNewLayers) {
  // The stacking TLA copies the source stack per iteration and adds a
  // target layer; the copy must not mutate the original.
  ResidualStack source(1);
  source.add_layer(grid(10), sample(10, [](double) { return 1.0; }),
                   options_, rng_);
  ResidualStack copy = source;
  copy.add_layer(grid(8), sample(8, [](double) { return 5.0; }), options_,
                 rng_);
  EXPECT_EQ(source.num_layers(), 1u);
  EXPECT_EQ(copy.num_layers(), 2u);
  EXPECT_NEAR(source.predict({0.5}).mean, 1.0, 0.05);
  EXPECT_NEAR(copy.predict({0.5}).mean, 5.0, 0.2);
}

TEST_F(ResidualStackTest, SigmaUsesSampleCountBeta) {
  // With a huge new layer, beta -> 1 and the stack stddev approaches the
  // new layer's.
  ResidualStack stack(1);
  stack.add_layer(grid(4), sample(4, [](double) { return 0.0; }), options_,
                  rng_);
  const double sigma_one = stack.predict({0.5}).stddev();
  stack.add_layer(grid(40), sample(40, [](double) { return 0.0; }), options_,
                  rng_);
  const double sigma_two = stack.predict({0.5}).stddev();
  // 40-sample layer at x=0.5 is confident: stddev must shrink.
  EXPECT_LT(sigma_two, sigma_one);
}

/// Predicting a span gives each point bitwise what predicting it alone
/// does, for spans of 1, 2, 7, 8, 24 and 25 points.
void expect_span_matches_points(const gp::Surrogate& model) {
  rng::Rng pick(33);
  std::vector<la::Vector> xs(25, la::Vector(model.dim()));
  for (la::Vector& x : xs)
    for (double& v : x) v = pick.uniform();
  for (const std::size_t size : {1u, 2u, 7u, 8u, 24u, 25u}) {
    std::vector<gp::Prediction> got(size);
    model.predict(std::span<const la::Vector>(xs).first(size), got);
    for (std::size_t i = 0; i < size; ++i) {
      const gp::Prediction want = model.predict(xs[i]);
      EXPECT_EQ(got[i].mean, want.mean) << "span " << size << " point " << i;
      EXPECT_EQ(got[i].variance, want.variance)
          << "span " << size << " point " << i;
    }
  }
}

/// The span contract of the combined surrogates, on the fixture's data.
class CombinedSpanTest : public ResidualStackTest {};

TEST_F(CombinedSpanTest, ResidualStackBitwiseEqualToOnePoint) {
  ResidualStack stack(1);
  stack.add_layer(grid(15), sample(15, [](double x) { return std::sin(5 * x); }),
                  options_, rng_);
  stack.add_layer(grid(12),
                  sample(12, [](double x) { return std::sin(5 * x) + 2.0; }),
                  options_, rng_);
  expect_span_matches_points(stack);
}

TEST_F(CombinedSpanTest, MismatchedSpansThrow) {
  ResidualStack stack(1);
  stack.add_layer(grid(6), sample(6, [](double x) { return x; }), options_,
                  rng_);
  const WeightedSurrogate weighted({make_const(0.0, 1.0)}, {1.0});
  const std::vector<la::Vector> xs(3, la::Vector{0.5});
  std::vector<gp::Prediction> out(2);
  EXPECT_THROW(stack.predict(xs, out), std::invalid_argument);
  EXPECT_THROW(weighted.predict(xs, out), std::invalid_argument);
}

TEST_F(CombinedSpanTest, WeightedSurrogateBitwiseEqualToOnePoint) {
  // Two single-task GPs, unequal weights.
  const gp::SurrogatePtr a = gp::fit_single_task(
      1, {grid(15), sample(15, [](double x) { return std::sin(5 * x); })},
      options_, rng_);
  const gp::SurrogatePtr b = gp::fit_single_task(
      1, {grid(9), sample(9, [](double x) { return std::cos(3 * x); })},
      options_, rng_);
  expect_span_matches_points(WeightedSurrogate({a, b}, {0.3, 0.7}));
}

TEST_F(ResidualStackTest, ValidatesInputs) {
  ResidualStack stack(2);
  EXPECT_THROW(stack.predict({0.5, 0.5}), std::logic_error);
  EXPECT_THROW(stack.add_layer(la::Matrix(), la::Vector(), options_, rng_),
               std::invalid_argument);
  EXPECT_THROW(stack.add_layer(grid(5), la::Vector{1, 2, 3}, options_, rng_),
               std::invalid_argument);  // shape mismatch
  EXPECT_THROW(stack.add_layer(grid(5), la::Vector(5, 1.0), options_, rng_),
               std::invalid_argument);  // dim mismatch (grid is 1-d)
}

}  // namespace
}  // namespace gptc::core
