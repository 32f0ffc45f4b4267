#include "core/acquisition.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include "gp/lcm.hpp"
#include "opt/optimize.hpp"

namespace gptc::core {
namespace {

TEST(NormalDistribution, PdfKnownValues) {
  EXPECT_NEAR(normal_pdf(0.0), 0.3989422804, 1e-9);
  EXPECT_NEAR(normal_pdf(1.0), 0.2419707245, 1e-9);
  EXPECT_NEAR(normal_pdf(-1.0), normal_pdf(1.0), 1e-15);
}

TEST(NormalDistribution, CdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(normal_cdf(-1.96), 0.025, 1e-3);
  EXPECT_NEAR(normal_cdf(8.0), 1.0, 1e-12);
  EXPECT_NEAR(normal_cdf(-8.0), 0.0, 1e-12);
}

TEST(ExpectedImprovement, ZeroVarianceReducesToPlainImprovement) {
  gp::Prediction p;
  p.mean = 3.0;
  p.variance = 0.0;
  EXPECT_DOUBLE_EQ(expected_improvement(p, 5.0), 2.0);
  EXPECT_DOUBLE_EQ(expected_improvement(p, 2.0), 0.0);
}

TEST(ExpectedImprovement, AlwaysNonNegative) {
  rng::Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    gp::Prediction p;
    p.mean = rng.uniform(-10.0, 10.0);
    p.variance = rng.uniform(0.0, 4.0);
    EXPECT_GE(expected_improvement(p, rng.uniform(-10.0, 10.0)), 0.0);
  }
}

TEST(ExpectedImprovement, DecreasesWithMean) {
  gp::Prediction lo, hi;
  lo.mean = 1.0;
  hi.mean = 2.0;
  lo.variance = hi.variance = 1.0;
  EXPECT_GT(expected_improvement(lo, 1.5), expected_improvement(hi, 1.5));
}

TEST(ExpectedImprovement, IncreasesWithUncertaintyWhenMeanIsWorse) {
  gp::Prediction narrow, wide;
  narrow.mean = wide.mean = 2.0;  // worse than best = 1.0
  narrow.variance = 0.01;
  wide.variance = 4.0;
  EXPECT_GT(expected_improvement(wide, 1.0),
            expected_improvement(narrow, 1.0));
}

TEST(ExpectedImprovement, ApproachesImprovementForDeepMean) {
  gp::Prediction p;
  p.mean = -10.0;
  p.variance = 0.01;
  EXPECT_NEAR(expected_improvement(p, 0.0), 10.0, 1e-3);
}

class AcquisitionSearchTest : public ::testing::Test {
 protected:
  // Single-task GP trained on a clean quadratic valley with minimum near
  // x = 0.7.
  AcquisitionSearchTest() {
    std::vector<la::Vector> xs;
    la::Vector ys;
    for (int i = 0; i <= 12; ++i) {
      const double x = i / 12.0;
      xs.push_back({x});
      ys.push_back((x - 0.7) * (x - 0.7));
    }
    rng::Rng rng(2);
    model_ = gp::fit_single_task(1, {la::Matrix::from_rows(xs), ys}, {}, rng);
  }

  gp::SurrogatePtr model_;
};

TEST_F(AcquisitionSearchTest, MinimizeMeanFindsTheValley) {
  rng::Rng rng(3);
  const la::Vector x = minimize_mean(*model_, rng);
  ASSERT_EQ(x.size(), 1u);
  EXPECT_NEAR(x[0], 0.7, 0.05);
}

TEST_F(AcquisitionSearchTest, MaximizeEiStaysInUnitCube) {
  rng::Rng rng(4);
  for (std::uint64_t i = 0; i < 5; ++i) {
    rng::Rng sub = rng.split(i);
    const la::Vector x = maximize_ei(*model_, 0.2, sub);
    EXPECT_GE(x[0], 0.0);
    EXPECT_LE(x[0], 1.0);
  }
}

TEST_F(AcquisitionSearchTest, MaximizeEiPrefersPromisingRegion) {
  // With best = 0.05 (already good), EI concentrates near the valley.
  rng::Rng rng(5);
  const la::Vector x = maximize_ei(*model_, 0.05, rng);
  EXPECT_NEAR(x[0], 0.7, 0.2);
}

TEST_F(AcquisitionSearchTest, SeedsAreRespected) {
  // A degenerate search budget with only the seed as population member
  // must still return a finite point.
  AcquisitionOptions opts;
  opts.de_population = 4;
  opts.de_generations = 0;
  rng::Rng rng(6);
  const la::Vector x = maximize_ei(*model_, 0.1, rng, {{0.7}}, opts);
  EXPECT_TRUE(std::isfinite(x[0]));
}

TEST_F(AcquisitionSearchTest, DeterministicPerRngState) {
  rng::Rng r1(7), r2(7);
  const la::Vector a = maximize_ei(*model_, 0.1, r1);
  const la::Vector b = maximize_ei(*model_, 0.1, r2);
  EXPECT_DOUBLE_EQ(a[0], b[0]);
}

/// Constant prediction with zero variance: with an incumbent below the mean,
/// EI is exactly 0 everywhere and the search has no gradient to follow.
class FlatSurrogate : public gp::Surrogate {
 public:
  explicit FlatSurrogate(std::size_t dim) : dim_(dim) {}
  using gp::Surrogate::predict;
  void predict(std::span<const la::Vector>,
               std::span<gp::Prediction> out) const override {
    for (gp::Prediction& p : out) p = {1.0, 0.0};
  }
  std::size_t dim() const override { return dim_; }

 private:
  std::size_t dim_;
};

TEST(AcquisitionSearch, FlatEiReturnsTheSameInCubePointAtEveryPoolSize) {
  const FlatSurrogate flat(3);
  std::vector<la::Vector> proposals;
  for (std::size_t threads : {0u, 1u, 4u}) {
    AcquisitionOptions opts;
    if (threads > 0) opts.pool = std::make_shared<parallel::ThreadPool>(threads);
    rng::Rng rng(8);
    const la::Vector x = maximize_ei(flat, 0.0, rng, {{0.2, 0.4, 0.6}}, opts);
    ASSERT_EQ(x.size(), 3u);
    for (double v : x) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
    proposals.push_back(x);
  }
  EXPECT_EQ(proposals[1], proposals[0]);  // exact, element by element
  EXPECT_EQ(proposals[2], proposals[0]);
}

TEST(AcquisitionSearch, ReturnsDifferentialEvolutionWinner) {
  // The search is differential evolution alone, on the caller's "acq-de"
  // stream with the caller's seeds: no extra random points and no local
  // refinement of the winner.
  std::vector<la::Vector> xs;
  la::Vector ys;
  for (int i = 0; i <= 4; ++i)
    for (int j = 0; j <= 4; ++j) {
      const double a = i / 4.0, b = j / 4.0;
      xs.push_back({a, b});
      ys.push_back((a - 0.3) * (a - 0.3) + 2.0 * (b - 0.6) * (b - 0.6));
    }
  rng::Rng fit_rng(10);
  const gp::SurrogatePtr model =
      gp::fit_single_task(2, {la::Matrix::from_rows(xs), ys}, {}, fit_rng);
  const double best = 0.02;
  const std::vector<la::Vector> seeds = {{0.25, 0.5}};
  const AcquisitionOptions options;
  const rng::Rng rng(9);
  rng::Rng search_rng = rng;
  const la::Vector x = maximize_ei(*model, best, search_rng, seeds, options);

  opt::DifferentialEvolutionOptions de;
  de.population = options.de_population;
  de.generations = options.de_generations;
  de.seeds = seeds;
  rng::Rng de_rng = rng.split("acq-de");
  const opt::Result winner = opt::differential_evolution(
      [&](std::span<const la::Vector> p, std::span<double> out) {
        for (std::size_t i = 0; i < p.size(); ++i)
          out[i] = -expected_improvement(model->predict(p[i]), best);
      },
      2, de_rng, de);
  EXPECT_EQ(x, winner.x);  // exact, element by element
}

}  // namespace
}  // namespace gptc::core
