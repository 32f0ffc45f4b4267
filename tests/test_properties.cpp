// Property-based parameterized sweeps over the numerical substrates:
// invariants that must hold for every configuration in a family, checked
// with TEST_P / INSTANTIATE_TEST_SUITE_P grids.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>

#include "gp/lcm.hpp"
#include "la/matrix.hpp"
#include "opt/optimize.hpp"
#include "sa/sobol.hpp"
#include "space/space.hpp"

namespace gptc {
namespace {

// ---------------------------------------------------------------------------
// Single-task GP properties, for every input dimension: the Matern-5/2
// Gram matrix is positive semi-definite with the signal variance on its
// diagonal, and the one-task LCM fitted to a smooth function on a Latin
// hypercube has a positive signal variance and gives finite predictions
// with non-negative variance, below the prior's at a training point.

class SingleTaskGpProperty : public ::testing::TestWithParam<int> {};

TEST_P(SingleTaskGpProperty, MaternGramIsPsdWithSignalVarianceDiagonal) {
  // The Gram matrix is read through neg_log_likelihood at random
  // hyperparameters theta = [log l_1..log l_d, a, log kappa, log noise]:
  // on 20 points it is finite exactly when K + noise I, with noise at the
  // fit's lower bound, has a Cholesky factor (K is PSD); on one point,
  // whose standardized output is 0, it is 0.5 log(2 pi K_11) with
  // K_11 = (a^2 + kappa) k(x, x) + noise, and k(x, x) = 1 makes the
  // diagonal the signal variance a^2 + kappa, whatever the lengthscales.
  const auto dim = static_cast<std::size_t>(GetParam());
  rng::Rng rng(dim * 7 + 1);
  const auto pts = opt::latin_hypercube(20, dim, rng);
  gp::LcmModel many(dim, 1), one(dim, 1);
  many.fit({gp::TaskData{la::Matrix::from_rows({pts.begin(), pts.end()}),
                         la::Vector(pts.size(), 1.0)}},
           rng);
  one.fit({gp::TaskData{la::Matrix::from_rows({pts[0]}), {2.5}}}, rng);
  const double log_noise = gp::kHyperBounds.log_noise_min;
  for (int draw = 0; draw < 5; ++draw) {
    la::Vector theta(many.num_hyper());
    for (std::size_t i = 0; i < dim; ++i) theta[i] = rng.uniform(-2.0, 1.0);
    theta[dim] = rng.uniform(-1.0, 1.0);
    theta[dim + 1] = rng.uniform(-3.0, 0.0);
    theta[dim + 2] = log_noise;
    la::Vector grad;
    const double nll = many.neg_log_likelihood(theta, grad);
    EXPECT_TRUE(std::isfinite(nll)) << "draw " << draw;
    EXPECT_LT(nll, std::numeric_limits<double>::max()) << "draw " << draw;

    const double signal = theta[dim] * theta[dim] + std::exp(theta[dim + 1]);
    const double k11 =
        std::exp(2.0 * one.neg_log_likelihood(theta, grad)) /
        (2.0 * std::numbers::pi);
    EXPECT_NEAR(k11, signal + std::exp(log_noise), 1e-12 * signal)
        << "draw " << draw;
    for (std::size_t i = 0; i < dim; ++i) EXPECT_EQ(grad[i], 0.0);
  }
}

TEST_P(SingleTaskGpProperty, FitIsFiniteAndVarianceNonNegative) {
  const auto dim = static_cast<std::size_t>(GetParam());
  rng::Rng rng(dim * 7 + 1);
  const auto pts = opt::latin_hypercube(20, dim, rng);
  la::Vector y;
  for (const auto& p : pts) {
    double v = 0.0;
    for (double c : p) v += std::sin(3.0 * c);
    y.push_back(v);
  }
  gp::LcmModel model(dim, 1);
  model.fit({gp::TaskData{la::Matrix::from_rows({pts.begin(), pts.end()}), y}},
            rng);
  EXPECT_GT(model.task_covariance(0, 0), 0.0);
  for (const auto& q : opt::latin_hypercube(20, dim, rng)) {
    const gp::Prediction p = model.predict(0, q);
    EXPECT_TRUE(std::isfinite(p.mean));
    EXPECT_TRUE(std::isfinite(p.variance));
    EXPECT_GE(p.variance, 0.0);
  }
  const la::Vector far(dim, 50.0);  // far outside the data: the prior
  EXPECT_LT(model.predict(0, pts[0]).variance, model.predict(0, far).variance);
}

INSTANTIATE_TEST_SUITE_P(
    Dims, SingleTaskGpProperty, ::testing::Values(1, 2, 4, 8),
    [](const ::testing::TestParamInfo<int>& param_info) {
      return "d" + std::to_string(param_info.param);
    });

// ---------------------------------------------------------------------------
// Parameter encode/decode round trip: decode(encode(v)) == v for every
// discrete value, and decode stays in range for any u in [0,1], across a
// family of parameter shapes.

struct ParamCase {
  std::string label;
  space::Parameter parameter;
};

class ParameterProperty : public ::testing::TestWithParam<ParamCase> {};

TEST_P(ParameterProperty, RoundTripAndRangeInvariant) {
  const auto& p = GetParam().parameter;
  rng::Rng rng(11);
  // Every sampled value survives a round trip.
  for (int i = 0; i < 200; ++i) {
    const space::Value v = p.sample(rng);
    ASSERT_TRUE(p.contains(v));
    const space::Value round = p.decode(p.encode(v));
    if (p.kind() == space::ParamKind::Real)
      EXPECT_NEAR(round.as_double(), v.as_double(), 1e-9);
    else
      EXPECT_TRUE(round == v);
  }
  // Any u in [0,1] decodes into range.
  for (int i = 0; i <= 100; ++i) {
    EXPECT_TRUE(p.contains(p.decode(i / 100.0)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ParameterProperty,
    ::testing::Values(
        ParamCase{"real_unit", space::Parameter::real("r", 0.0, 1.0)},
        ParamCase{"real_negative", space::Parameter::real("r", -7.5, -2.5)},
        ParamCase{"real_wide", space::Parameter::real("r", 1e-3, 1e3)},
        ParamCase{"int_binary", space::Parameter::integer("i", 0, 2)},
        ParamCase{"int_offset", space::Parameter::integer("i", 30, 300)},
        ParamCase{"int_negative", space::Parameter::integer("i", -5, 6)},
        ParamCase{"cat_two", space::Parameter::categorical("c", {"a", "b"})},
        ParamCase{"cat_eight",
                  space::Parameter::categorical(
                      "c", {"a", "b", "c", "d", "e", "f", "g", "h"})}),
    [](const ::testing::TestParamInfo<ParamCase>& param_info) {
      return param_info.param.label;
    });

// ---------------------------------------------------------------------------
// Sobol estimator property: for additive functions y = sum_i c_i * x_i the
// indices must match the analytic variance shares c_i^2 / sum c_j^2, and
// S1 ~ ST (no interactions) — swept over coefficient vectors.

class SobolAdditiveProperty
    : public ::testing::TestWithParam<std::vector<double>> {};

TEST_P(SobolAdditiveProperty, IndicesMatchVarianceShares) {
  const std::vector<double> coef = GetParam();
  const sa::CubeFn f = [&](const la::Vector& u) {
    double s = 0.0;
    for (std::size_t i = 0; i < coef.size(); ++i) s += coef[i] * u[i];
    return s;
  };
  double total = 0.0;
  for (double c : coef) total += c * c;

  std::vector<std::string> names;
  for (std::size_t i = 0; i < coef.size(); ++i)
    names.push_back("x" + std::to_string(i));
  rng::Rng rng(17);
  sa::SobolOptions opt;
  opt.base_samples = 2048;
  opt.bootstrap = 20;
  const sa::SobolResult r =
      sa::analyze_function(f, coef.size(), names, rng, opt);
  for (std::size_t i = 0; i < coef.size(); ++i) {
    const double expected = coef[i] * coef[i] / total;
    EXPECT_NEAR(r.s1[i], expected, 0.05) << "S1 of x" << i;
    EXPECT_NEAR(r.st[i], expected, 0.05) << "ST of x" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    CoefficientVectors, SobolAdditiveProperty,
    ::testing::Values(std::vector<double>{1.0, 1.0},
                      std::vector<double>{1.0, 2.0, 4.0},
                      std::vector<double>{3.0, 0.0, 1.0},
                      std::vector<double>{1.0, 1.0, 1.0, 1.0, 1.0}));

// ---------------------------------------------------------------------------
// Least-squares property: the residual of the LS solution is orthogonal to
// the column space (normal equations), for a sweep of shapes.

using LsShape = std::pair<int, int>;

class LeastSquaresProperty : public ::testing::TestWithParam<LsShape> {};

TEST_P(LeastSquaresProperty, ResidualOrthogonalToColumns) {
  const auto [rows, cols] = GetParam();
  rng::Rng rng(static_cast<std::uint64_t>(rows) * 31 +
               static_cast<std::uint64_t>(cols));
  la::Matrix a(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
  for (auto& v : a.data()) v = rng.normal();
  la::Vector b(static_cast<std::size_t>(rows));
  for (auto& v : b) v = rng.normal();
  const la::Vector x = la::least_squares(a, b);
  const la::Vector r = la::subtract(la::matvec(a, x), b);
  const la::Vector atr = la::matvec_t(a, r);
  for (double v : atr) EXPECT_NEAR(v, 0.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Shapes, LeastSquaresProperty,
                         ::testing::Values(LsShape{5, 2}, LsShape{20, 5},
                                           LsShape{50, 10}, LsShape{8, 8}));

// ---------------------------------------------------------------------------
// Sampler property: every design type fills [0,1]^d, is deterministic per
// seed, and has roughly uniform marginals.

enum class DesignKind { Lhs, Halton };

class SamplerProperty
    : public ::testing::TestWithParam<std::tuple<DesignKind, int>> {};

TEST_P(SamplerProperty, UniformMarginals) {
  const auto [kind, dim] = GetParam();
  const std::size_t n = 400;
  rng::Rng rng(23);
  std::vector<la::Vector> pts;
  switch (kind) {
    case DesignKind::Lhs:
      pts = opt::latin_hypercube(n, static_cast<std::size_t>(dim), rng);
      break;
    case DesignKind::Halton:
      pts = opt::scrambled_halton(n, static_cast<std::size_t>(dim), rng);
      break;
  }
  ASSERT_EQ(pts.size(), n);
  for (int d = 0; d < dim; ++d) {
    double mean = 0.0;
    for (const auto& p : pts) {
      ASSERT_GE(p[static_cast<std::size_t>(d)], 0.0);
      ASSERT_LT(p[static_cast<std::size_t>(d)], 1.0);
      mean += p[static_cast<std::size_t>(d)];
    }
    EXPECT_NEAR(mean / static_cast<double>(n), 0.5, 0.06);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndDims, SamplerProperty,
    ::testing::Combine(::testing::Values(DesignKind::Lhs, DesignKind::Halton),
                       ::testing::Values(1, 3, 8)),
    [](const ::testing::TestParamInfo<std::tuple<DesignKind, int>>& param_info) {
      const DesignKind kind = std::get<0>(param_info.param);
      const int dim = std::get<1>(param_info.param);
      const std::string name = kind == DesignKind::Lhs ? "Lhs" : "Halton";
      return name + "_d" + std::to_string(dim);
    });

}  // namespace
}  // namespace gptc
