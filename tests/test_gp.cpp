#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ios>
#include <limits>
#include <string>
#include <vector>

#include "gp/gaussian_process.hpp"
#include "gp/kernel.hpp"
#include "gp/lcm.hpp"
#include "opt/optimize.hpp"
#include "rng/rng.hpp"

namespace gptc::gp {
namespace {

la::Matrix to_matrix(const std::vector<la::Vector>& rows) {
  return la::Matrix::from_rows(rows);
}

TEST(Kernel, SelfCovarianceEqualsSignalVariance) {
  for (auto kind : {KernelKind::SquaredExponential, KernelKind::Matern52}) {
    Kernel k(kind, 3);
    la::Vector h = {std::log(0.2), std::log(0.5), std::log(1.0),
                    std::log(2.5)};
    k.set_log_hyper(h);
    la::Vector x = {0.3, 0.7, 0.1};
    EXPECT_NEAR(k(x, x), 2.5, 1e-12);
  }
}

TEST(Kernel, DecaysWithDistance) {
  for (auto kind : {KernelKind::SquaredExponential, KernelKind::Matern52}) {
    Kernel k(kind, 1);
    la::Vector a = {0.0}, b = {0.1}, c = {0.5};
    EXPECT_GT(k(a, a), k(a, b));
    EXPECT_GT(k(a, b), k(a, c));
    EXPECT_GT(k(a, c), 0.0);
  }
}

TEST(Kernel, SymmetricAndStationary) {
  Kernel k(KernelKind::Matern52, 2);
  la::Vector a = {0.1, 0.9}, b = {0.4, 0.2};
  EXPECT_DOUBLE_EQ(k(a, b), k(b, a));
  la::Vector a2 = {0.2, 1.0}, b2 = {0.5, 0.3};  // shifted by (0.1, 0.1)
  EXPECT_NEAR(k(a, b), k(a2, b2), 1e-12);
}

TEST(Kernel, ArdLengthscalesScalePerDimension) {
  Kernel k(KernelKind::SquaredExponential, 2);
  k.set_log_hyper({std::log(0.1), std::log(10.0), 0.0});
  la::Vector o = {0.0, 0.0}, dx = {0.2, 0.0}, dy = {0.0, 0.2};
  // Dimension 0 has a short lengthscale: moving along it decays much more.
  EXPECT_LT(k(o, dx), k(o, dy));
}

TEST(Kernel, GramMatrixMatchesPairwise) {
  rng::Rng rng(1);
  const auto pts = opt::random_design(6, 2, rng);
  Kernel k(KernelKind::Matern52, 2);
  const la::Matrix g = k.gram(to_matrix(pts));
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      EXPECT_NEAR(g(i, j), k(pts[i], pts[j]), 1e-14);
}

TEST(Kernel, CrossMatrixShapeAndValues) {
  rng::Rng rng(2);
  const auto a = opt::random_design(4, 3, rng);
  const auto b = opt::random_design(5, 3, rng);
  Kernel k(KernelKind::SquaredExponential, 3);
  const la::Matrix c = k.cross(to_matrix(a), to_matrix(b));
  EXPECT_EQ(c.rows(), 4u);
  EXPECT_EQ(c.cols(), 5u);
  EXPECT_NEAR(c(2, 3), k(a[2], b[3]), 1e-14);
}

TEST(Kernel, RejectsBadHyperSize) {
  Kernel k(KernelKind::Matern52, 2);
  EXPECT_THROW(k.set_log_hyper({0.0}), std::invalid_argument);
}

class GpFitTest : public ::testing::Test {
 protected:
  // Train on a smooth 1-d function.
  void fit_smooth(GaussianProcess& gp, int n, double noise = 0.0) {
    rng::Rng rng(42);
    std::vector<la::Vector> xs;
    la::Vector ys;
    for (int i = 0; i < n; ++i) {
      const double x = (i + 0.5) / n;
      xs.push_back({x});
      ys.push_back(std::sin(6.0 * x) + noise * rng.normal());
    }
    rng::Rng fit_rng(7);
    gp.fit(to_matrix(xs), ys, fit_rng);
  }
};

TEST_F(GpFitTest, InterpolatesNoiselessData) {
  GaussianProcess gp(1);
  fit_smooth(gp, 15);
  for (double x : {0.11, 0.43, 0.77}) {
    const Prediction p = gp.predict({x});
    EXPECT_NEAR(p.mean, std::sin(6.0 * x), 0.05) << "at x=" << x;
  }
}

TEST_F(GpFitTest, VarianceSmallerNearDataThanFarAway) {
  GaussianProcess gp(1);
  rng::Rng rng(3);
  std::vector<la::Vector> xs = {{0.1}, {0.15}, {0.2}, {0.25}, {0.3}};
  la::Vector ys = {0.0, 0.3, 0.1, -0.2, 0.4};
  gp.fit(to_matrix(xs), ys, rng);
  EXPECT_LT(gp.predict({0.2}).variance, gp.predict({0.95}).variance);
}

TEST_F(GpFitTest, PredictionRevertsToMeanFarFromData) {
  GaussianProcess gp(1);
  rng::Rng rng(4);
  std::vector<la::Vector> xs = {{0.05}, {0.1}, {0.15}};
  la::Vector ys = {10.0, 12.0, 11.0};
  gp.fit(to_matrix(xs), ys, rng);
  // Far from data the standardized mean reverts to 0 => raw mean ~ 11.
  EXPECT_NEAR(gp.predict({0.99}).mean, 11.0, 1.5);
}

TEST_F(GpFitTest, SingleSampleWorks) {
  GaussianProcess gp(2);
  rng::Rng rng(5);
  gp.fit(to_matrix({{0.5, 0.5}}), {3.0}, rng);
  EXPECT_NEAR(gp.predict({0.5, 0.5}).mean, 3.0, 1e-6);
  EXPECT_TRUE(gp.is_fitted());
  EXPECT_EQ(gp.num_samples(), 1u);
}

TEST_F(GpFitTest, RejectsNonFiniteOutputs) {
  GaussianProcess gp(1);
  rng::Rng rng(6);
  EXPECT_THROW(
      gp.fit(to_matrix({{0.1}, {0.2}}), {1.0, std::nan("")}, rng),
      std::invalid_argument);
}

TEST_F(GpFitTest, RejectsShapeMismatch) {
  GaussianProcess gp(1);
  rng::Rng rng(6);
  EXPECT_THROW(gp.fit(to_matrix({{0.1}, {0.2}}), {1.0}, rng),
               std::invalid_argument);
  EXPECT_THROW(gp.fit(to_matrix({{0.1, 0.2}}), {1.0}, rng),
               std::invalid_argument);
}

TEST_F(GpFitTest, PredictBeforeFitThrows) {
  GaussianProcess gp(1);
  EXPECT_THROW(gp.predict({0.5}), std::logic_error);
}

TEST_F(GpFitTest, PredictDimMismatchThrows) {
  GaussianProcess gp(2);
  rng::Rng rng(7);
  gp.fit(to_matrix({{0.1, 0.2}, {0.3, 0.4}}), {1.0, 2.0}, rng);
  EXPECT_THROW(gp.predict({0.5}), std::invalid_argument);
}

TEST_F(GpFitTest, LogMarginalLikelihoodImprovesWithFit) {
  // A fitted GP should have higher logML than one with arbitrary fixed
  // hyperparameters on the same data.
  rng::Rng rng(8);
  std::vector<la::Vector> xs;
  la::Vector ys;
  for (int i = 0; i < 25; ++i) {
    const double x = (i + 0.5) / 25.0;
    xs.push_back({x});
    ys.push_back(std::sin(8.0 * x));
  }
  GaussianProcess fitted(1);
  rng::Rng r1(9);
  fitted.fit(to_matrix(xs), ys, r1);

  GaussianProcess fixed(1);
  fixed.refit_state(to_matrix(xs), ys);  // default hypers, no optimization
  EXPECT_GE(fitted.log_marginal_likelihood(),
            fixed.log_marginal_likelihood() - 1e-6);
}

TEST_F(GpFitTest, NoisyDataLearnsNoise) {
  GaussianProcess gp(1);
  fit_smooth(gp, 60, /*noise=*/0.3);
  // With noisy targets the learned noise variance should be clearly
  // nonzero (in standardized units, roughly noise^2 / var(y)).
  EXPECT_GT(gp.noise_variance(), 1e-4);
}

TEST_F(GpFitTest, RefitStateKeepsHyperparameters) {
  GaussianProcess gp(1);
  fit_smooth(gp, 20);
  const la::Vector h = gp.log_hyper();
  gp.refit_state(to_matrix({{0.1}, {0.9}}), {0.0, 1.0});
  const la::Vector h2 = gp.log_hyper();
  ASSERT_EQ(h.size(), h2.size());
  for (std::size_t i = 0; i < h.size(); ++i) EXPECT_DOUBLE_EQ(h[i], h2[i]);
  EXPECT_EQ(gp.num_samples(), 2u);
}

TEST(GpDeterminism, SameSeedSameModel) {
  std::vector<la::Vector> xs = {{0.1}, {0.4}, {0.8}, {0.9}};
  la::Vector ys = {1.0, 0.5, 2.0, 1.5};
  GaussianProcess a(1), b(1);
  rng::Rng ra(11), rb(11);
  a.fit(la::Matrix::from_rows(xs), ys, ra);
  b.fit(la::Matrix::from_rows(xs), ys, rb);
  EXPECT_DOUBLE_EQ(a.predict({0.33}).mean, b.predict({0.33}).mean);
  EXPECT_DOUBLE_EQ(a.predict({0.33}).variance, b.predict({0.33}).variance);
}

// ---------------------------------------------------------------------------
// LCM

class LcmTest : public ::testing::Test {
 protected:
  // Two correlated tasks: f2 = 1.8 * f1 + 0.3 on [0,1].
  static double f1(double x) { return std::sin(5.0 * x) + 2.0; }
  static double f2(double x) { return 1.8 * f1(x) + 0.3; }

  std::vector<TaskData> make_tasks(int n_source, int n_target) {
    rng::Rng rng(21);
    std::vector<TaskData> tasks(2);
    std::vector<la::Vector> xs;
    la::Vector ys;
    for (int i = 0; i < n_source; ++i) {
      const double x = rng.uniform();
      xs.push_back({x});
      ys.push_back(f1(x));
    }
    tasks[0] = TaskData{la::Matrix::from_rows(xs), ys};
    xs.clear();
    ys.clear();
    for (int i = 0; i < n_target; ++i) {
      const double x = rng.uniform();
      xs.push_back({x});
      ys.push_back(f2(x));
    }
    tasks[1] = TaskData{xs.empty() ? la::Matrix() : la::Matrix::from_rows(xs),
                        ys};
    return tasks;
  }
};

TEST_F(LcmTest, UnequalSampleCountsSupported) {
  LcmModel model(1, 2);
  rng::Rng rng(31);
  model.fit(make_tasks(40, 5), rng);
  EXPECT_TRUE(model.is_fitted());
  EXPECT_EQ(model.num_samples(0), 40u);
  EXPECT_EQ(model.num_samples(1), 5u);
}

TEST_F(LcmTest, TransferImprovesSparseTaskPrediction) {
  // With only 4 target samples, the LCM should predict the target function
  // better than a single-task GP trained on those 4 samples, by exploiting
  // the correlated 40-sample source task.
  const auto tasks = make_tasks(40, 4);

  LcmModel lcm(1, 2);
  rng::Rng r1(32);
  lcm.fit(tasks, r1);

  GaussianProcess solo(1);
  rng::Rng r2(33);
  solo.fit(tasks[1].x, tasks[1].y, r2);

  double lcm_err = 0.0, solo_err = 0.0;
  for (int i = 0; i < 50; ++i) {
    const double x = (i + 0.5) / 50.0;
    const double truth = f2(x);
    lcm_err += std::abs(lcm.predict(1, {x}).mean - truth);
    solo_err += std::abs(solo.predict({x}).mean - truth);
  }
  EXPECT_LT(lcm_err, solo_err);
}

TEST_F(LcmTest, ZeroSampleTargetTaskAllowed) {
  LcmModel model(1, 2);
  rng::Rng rng(34);
  model.fit(make_tasks(30, 0), rng);
  // Predictions for the empty task must exist and be finite.
  const Prediction p = model.predict(1, {0.5});
  EXPECT_TRUE(std::isfinite(p.mean));
  EXPECT_TRUE(std::isfinite(p.variance));
  EXPECT_GT(p.variance, 0.0);
}

TEST_F(LcmTest, CorrelatedTasksGetPositiveCrossCovariance) {
  LcmModel model(1, 2);
  rng::Rng rng(35);
  model.fit(make_tasks(40, 20), rng);
  EXPECT_GT(model.task_covariance(0, 1), 0.0);
  EXPECT_GT(model.task_covariance(0, 0), 0.0);
  EXPECT_GT(model.task_covariance(1, 1), 0.0);
}

TEST_F(LcmTest, SubsamplingCapRespected) {
  LcmOptions opt;
  opt.max_samples_per_task = 10;
  LcmModel model(1, 2, opt);
  rng::Rng rng(36);
  model.fit(make_tasks(50, 30), rng);
  EXPECT_EQ(model.num_samples(0), 10u);
  EXPECT_EQ(model.num_samples(1), 10u);
}

TEST_F(LcmTest, PredictInterpolatesDenseTask) {
  LcmModel model(1, 2);
  rng::Rng rng(37);
  model.fit(make_tasks(40, 10), rng);
  double err = 0.0;
  for (int i = 0; i < 20; ++i) {
    const double x = (i + 0.5) / 20.0;
    err += std::abs(model.predict(0, {x}).mean - f1(x));
  }
  EXPECT_LT(err / 20.0, 0.15);
}

TEST_F(LcmTest, RejectsBadInputs) {
  LcmModel model(1, 2);
  rng::Rng rng(38);
  EXPECT_THROW(model.fit({}, rng), std::invalid_argument);
  EXPECT_THROW(model.predict(0, {0.5}), std::logic_error);
  std::vector<TaskData> empty_tasks(2);
  EXPECT_THROW(model.fit(empty_tasks, rng), std::invalid_argument);
  model.fit(make_tasks(10, 5), rng);
  EXPECT_THROW(model.predict(5, {0.5}), std::out_of_range);
  EXPECT_THROW(model.task_covariance(0, 2), std::out_of_range);
  EXPECT_THROW(model.predict(0, {0.5, 0.5}), std::invalid_argument);
}

TEST_F(LcmTest, TaskViewMatchesDirectPredict) {
  auto model = std::make_shared<LcmModel>(1, 2);
  rng::Rng rng(39);
  model->fit(make_tasks(20, 8), rng);
  const auto view = LcmModel::task_view(model, 1);
  const Prediction a = view->predict({0.4});
  const Prediction b = model->predict(1, {0.4});
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.variance, b.variance);
  EXPECT_EQ(view->dim(), 1u);
}

TEST_F(LcmTest, FailedRefitKeepsPreviousModel) {
  LcmModel model(1, 2);
  rng::Rng rng(40);
  model.fit(make_tasks(12, 5), rng);
  const Prediction before = model.predict(1, {0.4});
  const double cov_before = model.task_covariance(0, 1);

  auto bad = make_tasks(12, 5);
  bad[1].x(2, 0) = std::nan("");
  rng::Rng rng2(41);
  EXPECT_THROW(model.fit(bad, rng2), std::invalid_argument);
  EXPECT_TRUE(model.is_fitted());
  EXPECT_EQ(model.num_samples(1), 5u);
  const Prediction after = model.predict(1, {0.4});
  EXPECT_EQ(after.mean, before.mean);
  EXPECT_EQ(after.variance, before.variance);
  EXPECT_EQ(model.task_covariance(0, 1), cov_before);

  // A first fit that throws leaves the model unfitted.
  LcmModel fresh(1, 2);
  EXPECT_THROW(fresh.fit(bad, rng2), std::invalid_argument);
  EXPECT_FALSE(fresh.is_fitted());
}

TEST_F(GpFitTest, FailedRefitKeepsPreviousModel) {
  GaussianProcess gp(1);
  fit_smooth(gp, 8);
  const Prediction before = gp.predict({0.37});
  const la::Vector hyper = gp.log_hyper();

  la::Matrix bad = gp.train_x();
  bad(1, 0) = std::numeric_limits<double>::infinity();
  rng::Rng rng(43);
  EXPECT_THROW(gp.fit(bad, gp.train_y(), rng), std::invalid_argument);
  EXPECT_TRUE(gp.is_fitted());
  EXPECT_EQ(gp.num_samples(), 8u);
  EXPECT_EQ(gp.log_hyper(), hyper);
  const Prediction after = gp.predict({0.37});
  EXPECT_EQ(after.mean, before.mean);
  EXPECT_EQ(after.variance, before.variance);
}

// ---------------------------------------------------------------------------
// Bitwise pins. The LCM literals were recorded from the multistart L-BFGS
// fit on the analytic gradient, the GP literals from multistart Nelder–Mead;
// any change to the order or kind of floating-point operations in
// kernel.cpp, lcm.cpp, optimize.cpp or the Cholesky shows up here as an
// exact mismatch. A failure prints the new value as a hexfloat.

void expect_bits(double actual, double pinned, const std::string& what) {
  EXPECT_EQ(actual, pinned) << what << " = " << std::hexfloat << actual;
}

/// Three 2-d tasks with 14, 6 and 0 samples from a fixed stream.
std::vector<TaskData> pin_tasks() {
  rng::Rng rng(71);
  const std::size_t counts[] = {14, 6, 0};
  std::vector<TaskData> tasks;
  for (std::size_t t = 0; t < 3; ++t) {
    std::vector<la::Vector> xs;
    la::Vector ys;
    for (std::size_t i = 0; i < counts[t]; ++i) {
      const double a = rng.uniform(), b = rng.uniform();
      xs.push_back({a, b});
      ys.push_back(std::sin(3.0 * a + 0.4 * static_cast<double>(t)) +
                   (1.0 + 0.3 * static_cast<double>(t)) * b * b +
                   0.01 * rng.normal());
    }
    tasks.push_back(
        TaskData{xs.empty() ? la::Matrix() : la::Matrix::from_rows(xs), ys});
  }
  return tasks;
}

struct LcmPins {
  KernelKind kind;
  double task_cov[6];  // (0,0) (0,1) (0,2) (1,1) (1,2) (2,2)
  double mean[3], variance[3];
};

TEST(BitwisePins, LcmPredictAndTaskCovariance) {
  const LcmPins pins[] = {
      {KernelKind::SquaredExponential,
       {0x1.700a30a816042p+3, 0x1.8db43827a888p+3, 0x1.109ee0266cefdp+2,
        0x1.d2d81971a85dfp+3, 0x1.33ee69ea26b78p+2, 0x1.3490f78dce87cp+1},
       {0x1.354a48da1e7dcp+0, 0x1.71f49a9358157p+0, 0x1.50d82d1bb5p-5},
       {0x1.17238af0d4cf1p-12, 0x1.c72d840584c67p-13, 0x1.8ebcf7db1790ep-1}},
      {KernelKind::Matern52,
       {0x1.7e1ca757d24e2p+3, 0x1.a0c875797422ap+3, 0x1.b6f1ff0abc174p+1,
        0x1.f4fa2d861a5c9p+3, 0x1.e65ee16028c8p+1, 0x1.3490f78dce87cp+1},
       {0x1.350f2339b7819p+0, 0x1.711bc630ca9d8p+0, 0x1.3e3552f8f2e5p+0},
       {0x1.5960cadf11bddp-11, 0x1.b91bb53d817d7p-11, 0x1.442a6cc1a659ap+0}},
  };
  for (const auto& pin : pins) {
    LcmOptions o;
    o.num_latent = 2;
    o.kernel = pin.kind;
    o.fit_evaluations = 80;
    LcmModel model(2, 3, o);
    rng::Rng rng(72);
    model.fit(pin_tasks(), rng);
    const std::string kind =
        pin.kind == KernelKind::Matern52 ? "matern52 " : "sqexp ";
    std::size_t c = 0;
    for (std::size_t i = 0; i < 3; ++i)
      for (std::size_t j = i; j < 3; ++j, ++c)
        expect_bits(model.task_covariance(i, j), pin.task_cov[c],
                    kind + "task_covariance(" + std::to_string(i) + "," +
                        std::to_string(j) + ")");
    for (std::size_t t = 0; t < 3; ++t) {
      const Prediction p = model.predict(t, {0.35, 0.6});
      expect_bits(p.mean, pin.mean[t], kind + "mean " + std::to_string(t));
      expect_bits(p.variance, pin.variance[t],
                  kind + "variance " + std::to_string(t));
    }
  }
}

struct GpPins {
  KernelKind kind;
  double log_hyper[4];
  double mean, variance;
};

TEST(BitwisePins, GaussianProcessHyperAndPredict) {
  const GpPins pins[] = {
      {KernelKind::SquaredExponential,
       {-0x1.4785875f1da07p-2, 0x1.49bf20b1d7e54p-2, 0x1.327ce26693d92p+1,
        -0x1.d29af09f27458p+2},
       0x1.33d428335bd72p+0,
       0x1.000fff767f7p-11},
      {KernelKind::Matern52,
       {0x1.ce1242e4529d7p-2, 0x1.0741e5051b178p+0, 0x1.b5c6f6c644c5ap+1,
        -0x1.c12384a1e1fadp+2},
       0x1.316ab6601e26bp+0,
       0x1.e3afbf429c914p-10},
  };
  const TaskData data = pin_tasks()[0];
  for (const auto& pin : pins) {
    GpOptions o;
    o.kernel = pin.kind;
    o.fit_evaluations = 80;
    GaussianProcess gp(2, o);
    rng::Rng rng(73);
    gp.fit(data.x, data.y, rng);
    const std::string kind =
        pin.kind == KernelKind::Matern52 ? "matern52 " : "sqexp ";
    const la::Vector h = gp.log_hyper();
    ASSERT_EQ(h.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
      expect_bits(h[i], pin.log_hyper[i],
                  kind + "log_hyper " + std::to_string(i));
    const Prediction p = gp.predict({0.35, 0.6});
    expect_bits(p.mean, pin.mean, kind + "mean");
    expect_bits(p.variance, pin.variance, kind + "variance");
  }
}

// ---------------------------------------------------------------------------
// Analytic LCM gradient against central finite differences.

void expect_gradient_matches(const LcmModel& model, const la::Vector& theta,
                             const std::string& what) {
  la::Vector grad;
  const double f = model.neg_log_likelihood(theta, grad);
  ASSERT_TRUE(std::isfinite(f)) << what;
  ASSERT_EQ(grad.size(), theta.size());
  constexpr double h = 1e-5;
  la::Vector scratch;
  for (std::size_t p = 0; p < theta.size(); ++p) {
    la::Vector up = theta, down = theta;
    up[p] += h;
    down[p] -= h;
    const double fd = (model.neg_log_likelihood(up, scratch) -
                       model.neg_log_likelihood(down, scratch)) /
                      (2.0 * h);
    const double scale = std::max({std::abs(fd), std::abs(grad[p]), 1.0});
    EXPECT_LE(std::abs(fd - grad[p]) / scale, 1e-6)
        << what << " theta[" << p << "]: analytic " << grad[p]
        << ", central difference " << fd;
  }
}

TEST(LcmGradient, MatchesCentralDifferences) {
  for (const KernelKind kind :
       {KernelKind::SquaredExponential, KernelKind::Matern52}) {
    for (const std::size_t nq : {std::size_t{1}, std::size_t{2}}) {
      LcmOptions o;
      o.kernel = kind;
      o.num_latent = nq;
      o.fit_evaluations = 5;
      o.min_noise = 1e-4;  // a clamp above the noise bound's lower end
      LcmModel model(2, 3, o);
      rng::Rng rng(74);
      model.fit(pin_tasks(), rng);  // tasks of 14, 6 and 0 samples
      ASSERT_EQ(model.num_hyper(), nq * (2 + 2 * 3) + 3);

      rng::Rng pick(75);
      la::Vector theta(model.num_hyper());
      for (std::size_t q = 0; q < nq; ++q) {
        const std::size_t base = q * 8;
        theta[base + 0] = std::log(0.25) + pick.uniform(-0.3, 0.3);
        theta[base + 1] = std::log(0.6) + pick.uniform(-0.3, 0.3);
        for (std::size_t t = 0; t < 3; ++t) {
          theta[base + 2 + t] = pick.uniform(0.2, 1.2);
          theta[base + 5 + t] = std::log(0.2) + pick.uniform(-0.5, 0.5);
        }
      }
      const std::size_t noise_base = nq * 8;
      theta[noise_base + 0] = std::log(2e-2);
      theta[noise_base + 1] = std::log(5e-2);
      theta[noise_base + 2] = std::log(3e-2);
      const std::string what =
          std::string(kind == KernelKind::Matern52 ? "matern52" : "sqexp") +
          " Q=" + std::to_string(nq);
      expect_gradient_matches(model, theta, what);

      // Out-of-bounds lengthscale (penalty active) and task 1's noise below
      // min_noise (clamp active, so its gradient is exactly zero).
      la::Vector edge = theta;
      edge[0] = o.bounds.log_lengthscale_min - 0.4;
      edge[noise_base + 1] = std::log(o.min_noise) - 1.0;
      ASSERT_GT(edge[noise_base + 1], o.bounds.log_noise_min);
      expect_gradient_matches(model, edge, what + " penalty+clamp");
      la::Vector grad;
      model.neg_log_likelihood(edge, grad);
      EXPECT_EQ(grad[noise_base + 1], 0.0) << what;
      EXPECT_LT(grad[0], 0.0) << what;  // the penalty pushes back inside
    }
  }
}

}  // namespace
}  // namespace gptc::gp
