// Validation of the Sobol/Saltelli estimators against functions with known
// analytic indices, plus the space-reduction helper of Sec. VI-D/E.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "gp/lcm.hpp"
#include "opt/optimize.hpp"
#include "sa/sobol.hpp"

namespace gptc::sa {
namespace {

using space::Config;
using space::Parameter;
using space::Space;
using space::Value;

constexpr double kPi = std::numbers::pi;

/// Ishigami function over [0,1]^3 mapped to [-pi,pi]^3; the classic Sobol
/// benchmark. Analytic indices for a=7, b=0.1:
///   S1 = (0.3139, 0.4424, 0), ST = (0.5576, 0.4424, 0.2437).
double ishigami(const la::Vector& u) {
  const double x1 = -kPi + 2.0 * kPi * u[0];
  const double x2 = -kPi + 2.0 * kPi * u[1];
  const double x3 = -kPi + 2.0 * kPi * u[2];
  return std::sin(x1) + 7.0 * std::sin(x2) * std::sin(x2) +
         0.1 * std::pow(x3, 4) * std::sin(x1);
}

TEST(Sobol, IshigamiMatchesAnalyticIndices) {
  rng::Rng rng(1);
  SobolOptions opt;
  opt.base_samples = 2048;
  const SobolResult r =
      analyze_function(ishigami, 3, {"x1", "x2", "x3"}, rng, opt);
  EXPECT_NEAR(r.s1[0], 0.3139, 0.05);
  EXPECT_NEAR(r.s1[1], 0.4424, 0.05);
  EXPECT_NEAR(r.s1[2], 0.0, 0.05);
  EXPECT_NEAR(r.st[0], 0.5576, 0.06);
  EXPECT_NEAR(r.st[1], 0.4424, 0.06);
  EXPECT_NEAR(r.st[2], 0.2437, 0.06);
}

TEST(Sobol, AdditiveLinearFunctionSplitsVarianceByCoefficient) {
  // f = 1*x1 + 2*x2: Var contributions 1:4, no interactions => S1 ~ ST.
  const CubeFn f = [](const la::Vector& u) { return u[0] + 2.0 * u[1]; };
  rng::Rng rng(2);
  SobolOptions opt;
  opt.base_samples = 2048;
  const SobolResult r = analyze_function(f, 2, {"a", "b"}, rng, opt);
  EXPECT_NEAR(r.s1[0], 0.2, 0.04);
  EXPECT_NEAR(r.s1[1], 0.8, 0.04);
  EXPECT_NEAR(r.st[0], 0.2, 0.04);
  EXPECT_NEAR(r.st[1], 0.8, 0.04);
}

TEST(Sobol, PureInteractionShowsInTotalEffectOnly) {
  // f = (x1-1/2)(x2-1/2): zero main effects, all variance in interaction.
  const CubeFn f = [](const la::Vector& u) {
    return (u[0] - 0.5) * (u[1] - 0.5);
  };
  rng::Rng rng(3);
  SobolOptions opt;
  opt.base_samples = 2048;
  const SobolResult r = analyze_function(f, 2, {"a", "b"}, rng, opt);
  EXPECT_NEAR(r.s1[0], 0.0, 0.05);
  EXPECT_NEAR(r.s1[1], 0.0, 0.05);
  EXPECT_NEAR(r.st[0], 1.0, 0.1);
  EXPECT_NEAR(r.st[1], 1.0, 0.1);
}

TEST(Sobol, InertParameterScoresZero) {
  const CubeFn f = [](const la::Vector& u) { return std::sin(6.0 * u[0]); };
  rng::Rng rng(4);
  SobolOptions opt;
  opt.base_samples = 1024;
  const SobolResult r = analyze_function(f, 2, {"live", "dead"}, rng, opt);
  EXPECT_GT(r.st[0], 0.8);
  EXPECT_NEAR(r.s1[1], 0.0, 0.03);
  EXPECT_NEAR(r.st[1], 0.0, 0.03);
}

TEST(Sobol, ConstantFunctionGivesAllZeros) {
  const CubeFn f = [](const la::Vector&) { return 5.0; };
  rng::Rng rng(5);
  SobolOptions opt;
  opt.base_samples = 256;
  const SobolResult r = analyze_function(f, 2, {"a", "b"}, rng, opt);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(r.s1[i], 0.0);
    EXPECT_DOUBLE_EQ(r.st[i], 0.0);
  }
}

TEST(Sobol, DeterministicPerSeed) {
  rng::Rng r1(6), r2(6);
  SobolOptions opt;
  opt.base_samples = 256;
  const SobolResult a = analyze_function(ishigami, 3, {"a", "b", "c"}, r1, opt);
  const SobolResult b = analyze_function(ishigami, 3, {"a", "b", "c"}, r2, opt);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(a.s1[i], b.s1[i]);
    EXPECT_DOUBLE_EQ(a.st_conf[i], b.st_conf[i]);
  }
}

TEST(Sobol, ConfidenceShrinksWithMoreSamples) {
  rng::Rng r1(7), r2(7);
  SobolOptions small, large;
  small.base_samples = 128;
  large.base_samples = 2048;
  const SobolResult a = analyze_function(ishigami, 3, {"a", "b", "c"}, r1, small);
  const SobolResult b = analyze_function(ishigami, 3, {"a", "b", "c"}, r2, large);
  EXPECT_LT(b.st_conf[0], a.st_conf[0]);
}

TEST(Sobol, RankingAndInfluenceHelpers) {
  SobolResult r;
  r.names = {"p0", "p1", "p2"};
  r.s1 = {0.0, 0.3, 0.05};
  r.s1_conf = {0.01, 0.01, 0.01};
  r.st = {0.1, 0.7, 0.4};
  r.st_conf = {0.01, 0.01, 0.01};
  const auto ranked = r.ranked_by_total_effect();
  EXPECT_EQ(ranked[0], 1u);
  EXPECT_EQ(ranked[1], 2u);
  EXPECT_EQ(ranked[2], 0u);
  const auto infl = r.influential(0.1, 0.3);
  ASSERT_EQ(infl.size(), 2u);
  EXPECT_EQ(infl[0], "p1");
  EXPECT_EQ(infl[1], "p2");
  EXPECT_FALSE(r.to_table().empty());
}

TEST(Sobol, RejectsBadInput) {
  rng::Rng rng(8);
  const CubeFn f = [](const la::Vector&) { return 0.0; };
  EXPECT_THROW(analyze_function(f, 2, {"only-one"}, rng),
               std::invalid_argument);
  SobolOptions tiny;
  tiny.base_samples = 2;
  EXPECT_THROW(analyze_function(f, 2, {"a", "b"}, rng, tiny),
               std::invalid_argument);
}

TEST(Sobol, SurrogateAnalysisFindsTheInfluentialParameter) {
  // Train a GP on samples from f(x) = strong effect on p0 only, then check
  // the surrogate-level analysis recovers the ranking.
  Space sp({Parameter::real("p0", 0.0, 1.0), Parameter::real("p1", 0.0, 1.0)});
  rng::Rng rng(9);
  const auto design = opt::latin_hypercube(60, 2, rng);
  std::vector<la::Vector> xs(design.begin(), design.end());
  la::Vector ys;
  for (const auto& u : xs) ys.push_back(std::cos(5.0 * u[0]) + 0.02 * u[1]);
  rng::Rng fit_rng(10);
  const gp::SurrogatePtr model =
      gp::fit_single_task(2, {la::Matrix::from_rows(xs), ys}, {}, fit_rng);

  SobolOptions opt;
  opt.base_samples = 512;
  rng::Rng sa_rng(11);
  const SobolResult r = analyze_surrogate(*model, sp, sa_rng, opt);
  EXPECT_EQ(r.names[0], "p0");
  EXPECT_GT(r.st[0], 0.5);
  EXPECT_LT(r.st[1], 0.2);
}

class ReduceProblemTest : public ::testing::Test {
 protected:
  ReduceProblemTest() {
    problem_.name = "toy";
    problem_.task_space = Space({Parameter::integer("t", 0, 2)});
    problem_.param_space = Space({
        Parameter::integer("a", 0, 10),
        Parameter::real("b", 0.0, 1.0),
        Parameter::categorical("c", {"x", "y", "z"}),
    });
    problem_.objective = [this](const Config& task, const Config& params) {
      ++evaluations_;
      last_full_ = params;
      return static_cast<double>(params[0].as_int()) + params[1].as_double() +
             (params[2].as_string() == "y" ? 10.0 : 0.0) +
             static_cast<double>(task[0].as_int());
    };
  }

  space::TuningProblem problem_;
  mutable int evaluations_ = 0;
  mutable Config last_full_;
};

TEST_F(ReduceProblemTest, FrozenValuesAreApplied) {
  json::Json frozen = json::Json::object();
  frozen["b"] = 0.25;
  frozen["c"] = "y";
  const auto reduced = reduce_problem(problem_, {"a"}, frozen);
  EXPECT_EQ(reduced.param_space.dim(), 1u);
  const double y = reduced.objective({Value(std::int64_t{1})},
                                     {Value(std::int64_t{3})});
  EXPECT_DOUBLE_EQ(y, 3.0 + 0.25 + 10.0 + 1.0);
  EXPECT_DOUBLE_EQ(last_full_[1].as_double(), 0.25);
  EXPECT_EQ(last_full_[2].as_string(), "y");
}

TEST_F(ReduceProblemTest, UnfrozenParametersGetAFixedRandomValue) {
  const auto reduced =
      reduce_problem(problem_, {"a"}, json::Json::object(), /*seed=*/3);
  reduced.objective({Value(std::int64_t{0})}, {Value(std::int64_t{1})});
  const Config first = last_full_;
  reduced.objective({Value(std::int64_t{0})}, {Value(std::int64_t{2})});
  // The random b/c stay identical across evaluations (drawn once).
  EXPECT_TRUE(first[1] == last_full_[1]);
  EXPECT_TRUE(first[2] == last_full_[2]);
}

TEST_F(ReduceProblemTest, SeedControlsRandomFill) {
  const auto r1 =
      reduce_problem(problem_, {"a"}, json::Json::object(), /*seed=*/1);
  r1.objective({Value(std::int64_t{0})}, {Value(std::int64_t{1})});
  const Config c1 = last_full_;
  const auto r2 =
      reduce_problem(problem_, {"a"}, json::Json::object(), /*seed=*/1);
  r2.objective({Value(std::int64_t{0})}, {Value(std::int64_t{1})});
  EXPECT_TRUE(c1[1] == last_full_[1]);
  EXPECT_TRUE(c1[2] == last_full_[2]);
}

TEST_F(ReduceProblemTest, InvalidArgumentsThrow) {
  EXPECT_THROW(reduce_problem(problem_, {"nope"}, json::Json::object()),
               std::invalid_argument);
  EXPECT_THROW(reduce_problem(problem_, {}, json::Json::object()),
               std::invalid_argument);
  json::Json bad = json::Json::object();
  bad["b"] = 99.0;  // outside [0,1)
  EXPECT_THROW(reduce_problem(problem_, {"a"}, bad), std::invalid_argument);
}

}  // namespace
}  // namespace gptc::sa
