#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ios>
#include <limits>
#include <string>
#include <vector>

#include "gp/lcm.hpp"
#include "opt/optimize.hpp"
#include "rng/rng.hpp"

namespace gptc::gp {
namespace {

la::Matrix to_matrix(const std::vector<la::Vector>& rows) {
  return la::Matrix::from_rows(rows);
}

// ---------------------------------------------------------------------------
// The single-task GP: LcmModel(dim, 1).

/// Fits a one-task LCM to (xs, ys).
void fit_one(LcmModel& gp, const std::vector<la::Vector>& xs,
             const la::Vector& ys, rng::Rng& rng) {
  gp.fit({TaskData{to_matrix(xs), ys}}, rng);
}

class GpFitTest : public ::testing::Test {
 protected:
  // Train on a smooth 1-d function.
  void fit_smooth(LcmModel& gp, int n, double noise = 0.0) {
    rng::Rng rng(42);
    for (int i = 0; i < n; ++i) {
      const double x = (i + 0.5) / n;
      xs_.push_back({x});
      ys_.push_back(std::sin(6.0 * x) + noise * rng.normal());
    }
    rng::Rng fit_rng(7);
    fit_one(gp, xs_, ys_, fit_rng);
  }

  std::vector<la::Vector> xs_;
  la::Vector ys_;
};

TEST_F(GpFitTest, InterpolatesNoiselessData) {
  LcmModel gp(1, 1);
  fit_smooth(gp, 15);
  for (double x : {0.11, 0.43, 0.77}) {
    const Prediction p = gp.predict(0, {x});
    EXPECT_NEAR(p.mean, std::sin(6.0 * x), 0.05) << "at x=" << x;
  }
}

TEST_F(GpFitTest, VarianceSmallerNearDataThanFarAway) {
  LcmModel gp(1, 1);
  rng::Rng rng(3);
  fit_one(gp, {{0.1}, {0.15}, {0.2}, {0.25}, {0.3}}, {0.0, 0.3, 0.1, -0.2, 0.4},
          rng);
  EXPECT_LT(gp.predict(0, {0.2}).variance, gp.predict(0, {0.95}).variance);
}

TEST_F(GpFitTest, PredictionRevertsToMeanFarFromData) {
  LcmModel gp(1, 1);
  rng::Rng rng(4);
  fit_one(gp, {{0.05}, {0.1}, {0.15}}, {10.0, 12.0, 11.0}, rng);
  // Far from data the standardized mean reverts to 0 => raw mean ~ 11.
  EXPECT_NEAR(gp.predict(0, {0.99}).mean, 11.0, 1.5);
}

TEST_F(GpFitTest, SingleSampleWorks) {
  LcmModel gp(2, 1);
  rng::Rng rng(5);
  fit_one(gp, {{0.5, 0.5}}, {3.0}, rng);
  EXPECT_NEAR(gp.predict(0, {0.5, 0.5}).mean, 3.0, 1e-6);
  EXPECT_TRUE(gp.is_fitted());
  EXPECT_EQ(gp.num_samples(0), 1u);
}

TEST_F(GpFitTest, RejectsNonFiniteOutputs) {
  LcmModel gp(1, 1);
  rng::Rng rng(6);
  EXPECT_THROW(fit_one(gp, {{0.1}, {0.2}}, {1.0, std::nan("")}, rng),
               std::invalid_argument);
  EXPECT_FALSE(gp.is_fitted());
}

TEST_F(GpFitTest, RejectsShapeMismatch) {
  LcmModel gp(1, 1);
  rng::Rng rng(6);
  EXPECT_THROW(fit_one(gp, {{0.1}, {0.2}}, {1.0}, rng), std::invalid_argument);
  EXPECT_THROW(fit_one(gp, {{0.1, 0.2}}, {1.0}, rng), std::invalid_argument);
}

TEST_F(GpFitTest, PredictBeforeFitThrows) {
  LcmModel gp(1, 1);
  EXPECT_THROW(gp.predict(0, {0.5}), std::logic_error);
}

TEST_F(GpFitTest, PredictDimMismatchThrows) {
  LcmModel gp(2, 1);
  rng::Rng rng(7);
  fit_one(gp, {{0.1, 0.2}, {0.3, 0.4}}, {1.0, 2.0}, rng);
  EXPECT_THROW(gp.predict(0, {0.5}), std::invalid_argument);
}

TEST_F(GpFitTest, LogMarginalLikelihoodImprovesWithFit) {
  // The fitted hyperparameters must have a higher log marginal likelihood
  // than the fit's own starting point theta0 on the same data.
  LcmModel gp(1, 1);
  fit_smooth(gp, 25);
  // theta0 of a one-task fit: [log l, a, log kappa, log noise].
  const la::Vector theta0 = {std::log(0.3), 0.8, std::log(0.2),
                             std::log(1e-2)};
  ASSERT_EQ(gp.hyperparameters().size(), theta0.size());
  la::Vector grad;
  const double at_start = gp.neg_log_likelihood(theta0, grad);
  const double fitted = gp.neg_log_likelihood(gp.hyperparameters(), grad);
  EXPECT_LT(fitted, at_start - 1.0);
}

TEST_F(GpFitTest, NoisyDataLearnsNoise) {
  // With noisy targets the learned noise variance (standardized units,
  // roughly noise^2 / var(y)) is clearly nonzero, and far above the noise
  // learned from the same function without noise.
  LcmModel noisy(1, 1), clean(1, 1);
  fit_smooth(noisy, 60, /*noise=*/0.3);
  xs_.clear();
  ys_.clear();
  fit_smooth(clean, 60);
  const auto noise = [](const LcmModel& gp) {
    return std::exp(gp.hyperparameters()[gp.num_hyper() - 1]);
  };
  EXPECT_GT(noise(noisy), 1e-2);
  EXPECT_GT(noise(noisy), 100.0 * noise(clean));
}

TEST_F(GpFitTest, FailedRefitKeepsPreviousModel) {
  LcmModel gp(1, 1);
  fit_smooth(gp, 8);
  const Prediction before = gp.predict(0, {0.37});
  const double signal_before = gp.task_covariance(0, 0);

  std::vector<la::Vector> bad = xs_;
  bad[1][0] = std::numeric_limits<double>::infinity();
  rng::Rng rng(43);
  EXPECT_THROW(fit_one(gp, bad, ys_, rng), std::invalid_argument);
  EXPECT_TRUE(gp.is_fitted());
  EXPECT_EQ(gp.num_samples(0), 8u);
  EXPECT_EQ(gp.task_covariance(0, 0), signal_before);
  const Prediction after = gp.predict(0, {0.37});
  EXPECT_EQ(after.mean, before.mean);
  EXPECT_EQ(after.variance, before.variance);
}

TEST(GpDeterminism, SameSeedSameModel) {
  const std::vector<la::Vector> xs = {{0.1}, {0.4}, {0.8}, {0.9}};
  const la::Vector ys = {1.0, 0.5, 2.0, 1.5};
  LcmModel a(1, 1), b(1, 1);
  rng::Rng ra(11), rb(11);
  fit_one(a, xs, ys, ra);
  fit_one(b, xs, ys, rb);
  EXPECT_EQ(a.predict(0, {0.33}).mean, b.predict(0, {0.33}).mean);
  EXPECT_EQ(a.predict(0, {0.33}).variance, b.predict(0, {0.33}).variance);
}

TEST(GpDeterminism, FitSingleTaskIsTheOneTaskLcmView) {
  const std::vector<la::Vector> xs = {{0.1}, {0.4}, {0.8}, {0.9}};
  const la::Vector ys = {1.0, 0.5, 2.0, 1.5};
  LcmModel model(1, 1);
  rng::Rng ra(12), rb(12);
  fit_one(model, xs, ys, ra);
  const SurrogatePtr view = fit_single_task(1, {to_matrix(xs), ys}, {}, rb);
  EXPECT_EQ(view->dim(), 1u);
  EXPECT_EQ(view->predict({0.33}).mean, model.predict(0, {0.33}).mean);
  EXPECT_EQ(view->predict({0.33}).variance, model.predict(0, {0.33}).variance);
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

  LcmModel solo(1, 1);
  rng::Rng r2(33);
  solo.fit({tasks[1]}, r2);

  double lcm_err = 0.0, solo_err = 0.0;
  for (int i = 0; i < 50; ++i) {
    const double x = (i + 0.5) / 50.0;
    const double truth = f2(x);
    lcm_err += std::abs(lcm.predict(1, {x}).mean - truth);
    solo_err += std::abs(solo.predict(0, {x}).mean - truth);
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
  const auto tasks = make_tasks(50, 30);
  model.fit(tasks, rng);
  EXPECT_EQ(model.num_samples(0), 10u);
  EXPECT_EQ(model.num_samples(1), 10u);

  // Kept rows stay intact (x, y) pairs. Each task's y is a smooth function
  // of x, so a fit on intact pairs predicts every original row's y, kept or
  // not, closely; a kept x paired with another row's y would not.
  for (std::size_t t = 0; t < 2; ++t) {
    std::vector<double> err;
    for (std::size_t i = 0; i < tasks[t].y.size(); ++i) {
      const la::Vector x(tasks[t].x.row(i).begin(), tasks[t].x.row(i).end());
      err.push_back(std::abs(model.predict(t, x).mean - tasks[t].y[i]));
    }
    std::nth_element(err.begin(), err.begin() + err.size() / 2, err.end());
    EXPECT_LT(err[err.size() / 2], 1e-2) << "task " << t;
  }
}

TEST_F(LcmTest, ZeroSampleCapRejected) {
  LcmOptions opt;
  opt.max_samples_per_task = 0;
  EXPECT_THROW(LcmModel(1, 1, opt), std::invalid_argument);
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

// ---------------------------------------------------------------------------
// Bitwise pins, recorded from the multistart L-BFGS fit on the analytic
// gradient: any change to the order or kind of floating-point operations in
// lcm.cpp, optimize.cpp or the Cholesky shows up here as an exact mismatch.
// A failure prints the new value as a hexfloat.

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

TEST(BitwisePins, LcmPredictAndTaskCovariance) {
  // Matern-5/2, two latents.
  const double task_cov[6] = {  // (0,0) (0,1) (0,2) (1,1) (1,2) (2,2)
      0x1.7e1ca757d24e2p+3, 0x1.a0c875797422ap+3, 0x1.b6f1ff0abc174p+1,
      0x1.f4fa2d861a5c9p+3, 0x1.e65ee16028c8p+1,  0x1.3490f78dce87cp+1};
  const double mean[3] = {0x1.350f2339b7819p+0, 0x1.711bc630ca9d8p+0,
                          0x1.3e3552f8f2e5p+0};
  const double variance[3] = {0x1.5960cadf11bddp-11, 0x1.b91bb53d817d7p-11,
                              0x1.442a6cc1a659ap+0};
  LcmOptions o;
  o.num_latent = 2;
  o.fit_evaluations = 80;
  LcmModel model(2, 3, o);
  rng::Rng rng(72);
  model.fit(pin_tasks(), rng);
  std::size_t c = 0;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = i; j < 3; ++j, ++c)
      expect_bits(model.task_covariance(i, j), task_cov[c],
                  "task_covariance(" + std::to_string(i) + "," +
                      std::to_string(j) + ")");
  for (std::size_t t = 0; t < 3; ++t) {
    const Prediction p = model.predict(t, {0.35, 0.6});
    expect_bits(p.mean, mean[t], "mean " + std::to_string(t));
    expect_bits(p.variance, variance[t], "variance " + std::to_string(t));
  }
}

TEST(BitwisePins, SingleTaskGpPredict) {
  LcmOptions o;
  o.fit_evaluations = 80;
  LcmModel gp(2, 1, o);
  rng::Rng rng(73);
  gp.fit({pin_tasks()[0]}, rng);
  expect_bits(gp.task_covariance(0, 0), 0x1.71321648aca3fp+4,
              "signal variance");
  const Prediction p = gp.predict(0, {0.35, 0.6});
  expect_bits(p.mean, 0x1.30c42eba306cfp+0, "mean");
  expect_bits(p.variance, 0x1.0d6c2f6e07d48p-9, "variance");
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
  // T = 3 (tasks of 14, 6 and 0 samples) and T = 1 (the single-task GP on
  // the 14-sample task), each with one and two latents.
  for (const std::size_t nt : {std::size_t{3}, std::size_t{1}}) {
    for (const std::size_t nq : {std::size_t{1}, std::size_t{2}}) {
      LcmOptions o;
      o.num_latent = nq;
      o.fit_evaluations = 5;
      o.min_noise = 1e-4;  // a clamp above the noise bound's lower end
      LcmModel model(2, nt, o);
      std::vector<TaskData> tasks = pin_tasks();
      tasks.resize(nt);
      rng::Rng rng(74);
      model.fit(tasks, rng);
      const std::size_t per_latent = 2 + 2 * nt;
      ASSERT_EQ(model.num_hyper(), nq * per_latent + nt);

      rng::Rng pick(75);
      la::Vector theta(model.num_hyper());
      for (std::size_t q = 0; q < nq; ++q) {
        const std::size_t base = q * per_latent;
        theta[base + 0] = std::log(0.25) + pick.uniform(-0.3, 0.3);
        theta[base + 1] = std::log(0.6) + pick.uniform(-0.3, 0.3);
        for (std::size_t t = 0; t < nt; ++t) {
          theta[base + 2 + t] = pick.uniform(0.2, 1.2);
          theta[base + 2 + nt + t] = std::log(0.2) + pick.uniform(-0.5, 0.5);
        }
      }
      const std::size_t noise_base = nq * per_latent;
      const double noise[3] = {2e-2, 5e-2, 3e-2};
      for (std::size_t t = 0; t < nt; ++t)
        theta[noise_base + t] = std::log(noise[t]);
      const std::string what =
          "T=" + std::to_string(nt) + " Q=" + std::to_string(nq);
      expect_gradient_matches(model, theta, what);

      // Out-of-bounds lengthscale (penalty active) and a sampled task's
      // noise below min_noise (clamp active, so its gradient is exactly
      // zero).
      const std::size_t clamped = noise_base + (nt > 1 ? 1 : 0);
      la::Vector edge = theta;
      edge[0] = o.bounds.log_lengthscale_min - 0.4;
      edge[clamped] = std::log(o.min_noise) - 1.0;
      ASSERT_GT(edge[clamped], o.bounds.log_noise_min);
      expect_gradient_matches(model, edge, what + " penalty+clamp");
      la::Vector grad;
      model.neg_log_likelihood(edge, grad);
      EXPECT_EQ(grad[clamped], 0.0) << what;
      EXPECT_LT(grad[0], 0.0) << what;  // the penalty pushes back inside
    }
  }
}

}  // namespace
}  // namespace gptc::gp
