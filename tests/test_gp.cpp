#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <ios>
#include <limits>
#include <memory>
#include <numbers>
#include <span>
#include <string>
#include <vector>

#include "core/acquisition.hpp"
#include "gp/lcm.hpp"
#include "opt/optimize.hpp"
#include "parallel/thread_pool.hpp"
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

  std::vector<TaskData> make_tasks(int n_source, int n_target,
                                   std::uint64_t seed = 21) {
    rng::Rng rng(seed);
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
  const std::vector<la::Vector> xs(3, la::Vector{0.5});
  std::vector<Prediction> out(2);
  EXPECT_THROW(model.predict(0, xs, out), std::invalid_argument);
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
// Refits: a fitted model fits again from its previous theta alone. The data
// below (seed 2, 3 then 8 target samples) are ones on which a refit with
// theta0 and jittered starts beside the warm one would let another start
// win, so these tests tell the two apart.

TEST_F(LcmTest, RefitIgnoresFitRestarts) {
  LcmOptions none, three;
  none.fit_restarts = 0;
  three.fit_restarts = 3;
  LcmModel a(1, 2, none), b(1, 2, three);
  rng::Rng rng_a(50), rng_b(50);
  a.fit(make_tasks(12, 3, 2), rng_a);
  b.fit(make_tasks(12, 3, 2), rng_b);
  // On these data theta0 wins both cold fits, so both refits start alike.
  ASSERT_EQ(a.hyperparameters(), b.hyperparameters());
  a.fit(make_tasks(12, 8, 2), rng_a);
  b.fit(make_tasks(12, 8, 2), rng_b);
  EXPECT_EQ(a.hyperparameters(), b.hyperparameters());
}

TEST_F(LcmTest, RefitDrawsNothingFromTheFitStream) {
  // No task exceeds max_samples_per_task, so the fit's RNG reaches only
  // the "lcm-fit" stream of the jittered starts.
  LcmOptions o;
  o.fit_restarts = 3;
  LcmModel first(1, 2, o);
  rng::Rng rng(50);
  first.fit(make_tasks(12, 3, 2), rng);
  LcmModel second = first;
  rng::Rng rng_a(51), rng_b(52);
  first.fit(make_tasks(12, 8, 2), rng_a);
  second.fit(make_tasks(12, 8, 2), rng_b);
  EXPECT_EQ(first.hyperparameters(), second.hyperparameters());
}

TEST_F(LcmTest, RefitIsOneLbfgsStartFromTheWarmTheta) {
  LcmModel model(1, 2);
  rng::Rng rng(50);
  model.fit(make_tasks(12, 3, 2), rng);
  const la::Vector warm = model.hyperparameters();
  model.fit(make_tasks(12, 8, 2), rng);
  // neg_log_likelihood reads the refitted (new) data.
  la::Vector last, scratch;
  const opt::Result want = opt::lbfgs(
      [&](const la::Vector& th) {
        last = th;
        return model.neg_log_likelihood(th, scratch);
      },
      [&](la::Vector& grad) { model.neg_log_likelihood(last, grad); }, warm,
      LcmOptions{}.fit_evaluations);
  EXPECT_EQ(model.hyperparameters(), want.x);
  la::Vector grad;
  EXPECT_LE(model.neg_log_likelihood(model.hyperparameters(), grad),
            model.neg_log_likelihood(warm, grad));
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

TEST(BitwisePins, LcmRefit) {
  // The three-task model of the pins above refits from its warm start
  // after task 1 gains a row.
  const double theta[11] = {
      0x1.381dd84d1b886p-2,  0x1.d789cbe4a552p-1,   0x1.0003a6246d8b8p+2,
      0x1.fde3a3e2d25ddp+1,  0x1.999999999999ap-1,  -0x1.ce4f72a48257cp-4,
      0x1.a5321c947f54bp-3,  -0x1.9c041f7ed8d33p+0, -0x1.cd40111e93d8bp+2,
      -0x1.1005f5739adfdp+3, -0x1.26bb1bbb55515p+2};
  const double mean[3] = {0x1.323e73c13a29ap+0, 0x1.72a6d644dad6ap+0,
                          0x1.5099caff0b28p-3};
  const double variance[3] = {0x1.ae9f908bd2abap-10, 0x1.b9a78b8c4d0cdp-11,
                              0x1.c31de8f97837p-3};
  LcmModel model(2, 3);
  rng::Rng rng(74);
  std::vector<TaskData> tasks = pin_tasks();
  model.fit(tasks, rng);
  std::vector<la::Vector> rows;
  for (std::size_t i = 0; i < tasks[1].x.rows(); ++i)
    rows.emplace_back(tasks[1].x.row(i).begin(), tasks[1].x.row(i).end());
  rows.push_back({0.5, 0.25});
  tasks[1].x = la::Matrix::from_rows(rows);
  tasks[1].y.push_back(std::sin(1.9) + 1.3 * 0.25 * 0.25);
  model.fit(tasks, rng);
  ASSERT_EQ(model.hyperparameters().size(), 11u);
  for (std::size_t p = 0; p < 11; ++p)
    expect_bits(model.hyperparameters()[p], theta[p],
                "theta[" + std::to_string(p) + "]");
  for (std::size_t t = 0; t < 3; ++t) {
    const Prediction pr = model.predict(t, {0.35, 0.6});
    expect_bits(pr.mean, mean[t], "mean " + std::to_string(t));
    expect_bits(pr.variance, variance[t], "variance " + std::to_string(t));
  }
}

TEST(BitwisePins, MaximizeEiProposal) {
  // EI's differential-evolution search on task 0 of the three-task model
  // of the pins above, seeded with that task's incumbent, serially and with
  // a pool of 3.
  const double proposal[2] = {0x0p+0, 0x1.3ec08361ea03p-6};
  auto model = std::make_shared<LcmModel>(2, 3);
  rng::Rng fit_rng(74);
  const std::vector<TaskData> tasks = pin_tasks();
  model->fit(tasks, fit_rng);
  const TaskData& target = tasks[0];
  std::size_t incumbent = 0;
  for (std::size_t i = 1; i < target.y.size(); ++i)
    if (target.y[i] < target.y[incumbent]) incumbent = i;
  const std::vector<la::Vector> seeds = {la::Vector(
      target.x.row(incumbent).begin(), target.x.row(incumbent).end())};
  const SurrogatePtr view = LcmModel::task_view(model, 0);
  for (const std::size_t threads : {std::size_t{0}, std::size_t{3}}) {
    core::AcquisitionOptions options;
    if (threads > 0)
      options.pool = std::make_shared<parallel::ThreadPool>(threads);
    rng::Rng rng(75);
    const la::Vector x = core::maximize_ei(*view, target.y[incumbent], rng,
                                           seeds, options);
    ASSERT_EQ(x.size(), 2u);
    for (std::size_t m = 0; m < 2; ++m)
      expect_bits(x[m], proposal[m],
                  "pool " + std::to_string(threads) + " x[" +
                      std::to_string(m) + "]");
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

TEST(LcmGradient, UnfactorableCovarianceGivesMaxWithZeroGradient) {
  // A NaN hyperparameter makes K unfactorable at every jitter: the
  // evaluation reports DBL_MAX, which L-BFGS backtracks from.
  LcmModel model(2, 3);
  rng::Rng rng(76);
  model.fit(pin_tasks(), rng);
  la::Vector theta = model.hyperparameters(), grad;
  theta[0] = std::nan("");
  EXPECT_EQ(model.neg_log_likelihood(theta, grad),
            std::numeric_limits<double>::max());
  for (double g : grad) EXPECT_EQ(g, 0.0);
  EXPECT_LT(model.neg_log_likelihood(model.hyperparameters(), grad),
            std::numeric_limits<double>::max());
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
      edge[0] = kHyperBounds.log_lengthscale_min - 0.4;
      edge[clamped] = std::log(o.min_noise) - 1.0;
      ASSERT_GT(edge[clamped], kHyperBounds.log_noise_min);
      expect_gradient_matches(model, edge, what + " penalty+clamp");
      la::Vector grad;
      model.neg_log_likelihood(edge, grad);
      EXPECT_EQ(grad[clamped], 0.0) << what;
      EXPECT_LT(grad[0], 0.0) << what;  // the penalty pushes back inside
    }
  }
}

// ---------------------------------------------------------------------------
// The likelihood's and the predictor's blocked kernels against the
// row-at-a-time loops they replaced. The reference keeps those loops as they
// were: kernel assembly, the Cholesky factor and its jitter schedule, the
// alpha solve, L^-1, W = alpha alpha^T - K^-1 and the gradient contractions.
// Every blocked kernel gives each output entry the same operand sequence, so
// NLL, gradient and predictions must match bit for bit.

namespace reference {

/// The stacked, standardized data LcmModel::fit builds when no task is
/// subsampled.
struct Stacked {
  la::Matrix x;
  std::vector<std::size_t> task_of;
  la::Vector y;
  std::vector<double> y_mean, y_scale;
};

Stacked stack(const std::vector<TaskData>& tasks) {
  Stacked s;
  std::vector<la::Vector> rows;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const TaskData& td = tasks[t];
    const auto nt = static_cast<double>(td.y.size());
    double mean = 0.0, scale = 1.0;
    if (!td.y.empty()) {
      for (double v : td.y) mean += v;
      mean /= nt;
      double var = 0.0;
      for (double v : td.y) var += (v - mean) * (v - mean);
      var /= nt;
      scale = var > 1e-24 ? std::sqrt(var) : 1.0;
    }
    s.y_mean.push_back(mean);
    s.y_scale.push_back(scale);
    for (std::size_t i = 0; i < td.y.size(); ++i) {
      rows.emplace_back(td.x.row(i).begin(), td.x.row(i).end());
      s.y.push_back((td.y[i] - mean) / scale);
      s.task_of.push_back(t);
    }
  }
  s.x = la::Matrix::from_rows(rows);
  return s;
}

struct Latent {
  double k, g;
};

Latent latent_kernel(std::size_t dim, const double* l, const double* xi,
                     const double* xj) {
  double r2 = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    const double d = (xi[i] - xj[i]) / l[i];
    r2 += d * d;
  }
  const double r = std::sqrt(r2);
  const double a = std::sqrt(5.0) * r;
  const double e = std::exp(-a);
  return {(1.0 + a + 5.0 * r2 / 3.0) * e, 5.0 / 3.0 * (1.0 + a) * e};
}

struct Hyper {
  la::Vector lengthscale, coreg, noise;
};

Hyper unpack(const la::Vector& theta, std::size_t dim, std::size_t t,
             std::size_t nq, double min_noise) {
  Hyper u;
  u.lengthscale.resize(nq * dim);
  u.coreg.resize(nq * t * t);
  u.noise.resize(t);
  for (std::size_t q = 0; q < nq; ++q) {
    const std::size_t base = q * (dim + 2 * t);
    for (std::size_t i = 0; i < dim; ++i)
      u.lengthscale[q * dim + i] = std::exp(theta[base + i]);
    for (std::size_t i = 0; i < t; ++i) {
      for (std::size_t j = 0; j < t; ++j) {
        double v = theta[base + dim + i] * theta[base + dim + j];
        if (i == j) v += std::exp(theta[base + dim + t + i]);
        u.coreg[(q * t + i) * t + j] = v;
      }
    }
  }
  for (std::size_t i = 0; i < t; ++i)
    u.noise[i] = std::max(std::exp(theta[nq * (dim + 2 * t) + i]), min_noise);
  return u;
}

/// One row at a time, each entry one sequential k loop. Returns false at a
/// non-positive or non-finite pivot.
bool try_factor(const la::Matrix& a, double jitter, la::Matrix& l) {
  const std::size_t n = a.rows();
  l = la::Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j) + jitter;
    for (std::size_t k = 0; k < j; ++k) d -= l(j, k) * l(j, k);
    if (!(d > 0.0) || !std::isfinite(d)) return false;
    l(j, j) = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / l(j, j);
    }
  }
  return true;
}

/// la::Cholesky's jitter schedule over try_factor; false when every attempt
/// fails.
bool cholesky(const la::Matrix& a, la::Matrix& l, double& jitter_added) {
  const std::size_t n = a.rows();
  double mean_diag = 0.0;
  for (std::size_t i = 0; i < n; ++i) mean_diag += a(i, i);
  mean_diag = n > 0 ? mean_diag / static_cast<double>(n) : 1.0;
  if (mean_diag <= 0.0) mean_diag = 1.0;
  jitter_added = 0.0;
  if (try_factor(a, 0.0, l)) return true;
  double jitter = 1e-10 * mean_diag;
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (try_factor(a, jitter, l)) {
      jitter_added = jitter;
      return true;
    }
    jitter *= 10.0;
  }
  return false;
}

la::Vector solve_lower(const la::Matrix& l, const la::Vector& b) {
  const std::size_t n = b.size();
  la::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  return y;
}

la::Vector solve(const la::Matrix& l, const la::Vector& b) {
  la::Vector x = solve_lower(l, b);
  for (std::size_t ii = x.size(); ii > 0; --ii) {
    const std::size_t i = ii - 1;
    x[i] /= l(i, i);
    const double xi = x[i];
    for (std::size_t k = 0; k < i; ++k) x[k] -= l(i, k) * xi;
  }
  return x;
}

double dot(const la::Vector& a, const la::Vector& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

/// K + noise over the stacked rows, both triangles, with each pair's latent
/// kernels and radial factors in k and g ([p * Q + q], pairs i >= j row by
/// row).
la::Matrix covariance(const Stacked& s, const Hyper& u, std::size_t dim,
                      std::size_t nt, std::size_t nq, la::Vector& k,
                      la::Vector& g) {
  const std::size_t n = s.x.rows();
  la::Matrix km(n, n);
  k.assign(n * (n + 1) / 2 * nq, 0.0);
  g.assign(k.size(), 0.0);
  std::size_t p = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t ti = s.task_of[i];
    const double* xi = s.x.row(i).data();
    for (std::size_t j = 0; j <= i; ++j, ++p) {
      const std::size_t tj = s.task_of[j];
      double v = 0.0;
      for (std::size_t q = 0; q < nq; ++q) {
        const Latent lk = latent_kernel(dim, u.lengthscale.data() + q * dim,
                                        xi, s.x.row(j).data());
        k[p * nq + q] = lk.k;
        g[p * nq + q] = lk.g;
        v += u.coreg[(q * nt + ti) * nt + tj] * lk.k;
      }
      if (i == j) v += u.noise[ti];
      km(i, j) = v;
      km(j, i) = v;
    }
  }
  return km;
}

/// LcmModel::neg_log_likelihood on the stacked data; `jitter` receives the
/// jitter the factor needed.
double nll(const Stacked& s, std::size_t dim, std::size_t nt, std::size_t nq,
           const LcmOptions& o, const la::Vector& theta, la::Vector& grad,
           double& jitter) {
  const std::size_t n = s.x.rows();
  grad.assign(theta.size(), 0.0);
  const HyperBounds& b = kHyperBounds;
  double penalty = 0.0;
  const auto pen = [&](std::size_t p, double lo, double hi) {
    const double v = theta[p];
    if (v < lo) {
      penalty += (lo - v) * (lo - v);
      grad[p] -= 200.0 * (lo - v);
    }
    if (v > hi) {
      penalty += (v - hi) * (v - hi);
      grad[p] += 200.0 * (v - hi);
    }
  };
  for (std::size_t q = 0; q < nq; ++q) {
    const std::size_t base = q * (dim + 2 * nt);
    for (std::size_t i = 0; i < dim; ++i)
      pen(base + i, b.log_lengthscale_min, b.log_lengthscale_max);
    for (std::size_t t = 0; t < nt; ++t) {
      pen(base + dim + t, -4.0, 4.0);
      pen(base + dim + nt + t, b.log_signal_min, 2.0);
    }
  }
  const std::size_t noise_base = nq * (dim + 2 * nt);
  for (std::size_t t = 0; t < nt; ++t)
    pen(noise_base + t, b.log_noise_min, b.log_noise_max);

  const Hyper u = unpack(theta, dim, nt, nq, o.min_noise);
  la::Vector kq, gq;
  const la::Matrix km = covariance(s, u, dim, nt, nq, kq, gq);
  la::Matrix l;
  if (!cholesky(km, l, jitter)) {
    std::fill(grad.begin(), grad.end(), 0.0);
    return std::numeric_limits<double>::max();
  }
  const la::Vector alpha = solve(l, s.y);
  double log_det = 0.0;
  for (std::size_t i = 0; i < n; ++i) log_det += std::log(l(i, i));
  log_det *= 2.0;
  const double value =
      0.5 * dot(s.y, alpha) + 0.5 * log_det +
      0.5 * static_cast<double>(n) * std::log(2.0 * std::numbers::pi);

  la::Matrix linv(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double* ri = linv.row(i).data();
    std::fill(ri, ri + i + 1, 0.0);
    ri[i] = 1.0;
    for (std::size_t k = 0; k < i; ++k) {
      const double lik = l(i, k);
      const double* rk = linv.row(k).data();
      for (std::size_t c = 0; c <= k; ++c) ri[c] -= lik * rk[c];
    }
    const double lii = l(i, i);
    for (std::size_t c = 0; c <= i; ++c) ri[c] /= lii;
  }
  la::Matrix w(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double* wi = w.row(i).data();
    for (std::size_t j = 0; j <= i; ++j) wi[j] = alpha[i] * alpha[j];
  }
  for (std::size_t k = 0; k < n; ++k) {
    const double* rk = linv.row(k).data();
    for (std::size_t i = 0; i <= k; ++i) {
      const double rki = rk[i];
      double* wi = w.row(i).data();
      for (std::size_t j = 0; j <= i; ++j) wi[j] -= rki * rk[j];
    }
  }

  la::Vector task_sum(nq * nt * nt), length_sum(nq * dim), noise_sum(nt);
  std::size_t p = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t ti = s.task_of[i];
    const double* xi = s.x.row(i).data();
    for (std::size_t j = 0; j <= i; ++j, ++p) {
      const std::size_t tj = s.task_of[j];
      const double wij = (i == j ? 1.0 : 2.0) * w(i, j);
      if (i == j) noise_sum[ti] += wij;
      const double* xj = s.x.row(j).data();
      for (std::size_t q = 0; q < nq; ++q) {
        const std::size_t bq = (q * nt + ti) * nt + tj;
        task_sum[bq] += wij * kq[p * nq + q];
        const double c = wij * u.coreg[bq] * gq[p * nq + q];
        double* acc = length_sum.data() + q * dim;
        for (std::size_t m = 0; m < dim; ++m) {
          const double d = xi[m] - xj[m];
          acc[m] += c * d * d;
        }
      }
    }
  }
  for (std::size_t q = 0; q < nq; ++q) {
    const std::size_t base = q * (dim + 2 * nt);
    for (std::size_t m = 0; m < dim; ++m) {
      const double lm = u.lengthscale[q * dim + m];
      grad[base + m] -= 0.5 * length_sum[q * dim + m] / (lm * lm);
    }
    for (std::size_t a = 0; a < nt; ++a) {
      for (std::size_t t = 0; t < nt; ++t) {
        const double sum = task_sum[(q * nt + a) * nt + t];
        grad[base + dim + a] -= 0.5 * sum * theta[base + dim + t];
        grad[base + dim + t] -= 0.5 * sum * theta[base + dim + a];
        if (a == t)
          grad[base + dim + nt + a] -=
              0.5 * sum * std::exp(theta[base + dim + nt + a]);
      }
    }
  }
  for (std::size_t t = 0; t < nt; ++t) {
    const double raw = std::exp(theta[noise_base + t]);
    if (raw > o.min_noise) grad[noise_base + t] -= 0.5 * noise_sum[t] * raw;
  }
  return value + 100.0 * penalty;
}

/// LcmModel::predict at the fitted hyperparameters theta.
Prediction predict(const Stacked& s, std::size_t dim, std::size_t nt,
                   std::size_t nq, const LcmOptions& o, const la::Vector& theta,
                   std::size_t task, const la::Vector& x) {
  const Hyper u = unpack(theta, dim, nt, nq, o.min_noise);
  la::Vector kq, gq;
  la::Matrix l;
  double jitter = 0.0;
  if (!cholesky(covariance(s, u, dim, nt, nq, kq, gq), l, jitter)) return {};
  const la::Vector alpha = solve(l, s.y);
  const auto cov = [&](std::size_t tj, const double* xj) {
    double v = 0.0;
    for (std::size_t q = 0; q < nq; ++q)
      v += u.coreg[(q * nt + task) * nt + tj] *
           latent_kernel(dim, u.lengthscale.data() + q * dim, x.data(), xj).k;
    return v;
  };
  const std::size_t n = s.x.rows();
  la::Vector kstar(n);
  for (std::size_t i = 0; i < n; ++i)
    kstar[i] = cov(s.task_of[i], s.x.row(i).data());
  const double mean_std = dot(kstar, alpha);
  const la::Vector v = solve_lower(l, kstar);
  const double var_std = std::max(cov(task, x.data()) - dot(v, v), 0.0);
  Prediction p;
  p.mean = s.y_mean[task] + s.y_scale[task] * mean_std;
  p.variance = s.y_scale[task] * s.y_scale[task] * var_std;
  return p;
}

}  // namespace reference

/// `n` rows in `dim` dimensions split over `nt` tasks (some may be empty),
/// from a fixed stream.
std::vector<TaskData> oracle_tasks(std::size_t n, std::size_t dim,
                                   std::size_t nt) {
  rng::Rng rng(1000 + n * 10 + nt);
  std::vector<std::size_t> counts(nt, 0);
  if (nt == 1) {
    counts[0] = n;
  } else {
    counts[1] = n / 3;
    counts[2] = n / 5;
    counts[0] = n - counts[1] - counts[2];
  }
  std::vector<TaskData> tasks;
  for (std::size_t t = 0; t < nt; ++t) {
    std::vector<la::Vector> xs;
    la::Vector ys;
    for (std::size_t i = 0; i < counts[t]; ++i) {
      la::Vector x(dim);
      for (double& v : x) v = rng.uniform();
      ys.push_back(std::sin(4.0 * x[0] + 0.3 * static_cast<double>(t)) +
                   x[dim - 1] * x[dim - 1] + 0.01 * rng.normal());
      xs.push_back(std::move(x));
    }
    tasks.push_back(
        TaskData{xs.empty() ? la::Matrix() : la::Matrix::from_rows(xs), ys});
  }
  return tasks;
}

/// A fit with this one-evaluation budget only loads the stacked data into
/// the model; the tests read it through neg_log_likelihood and predict.
LcmOptions oracle_options(std::size_t nq) {
  LcmOptions o;
  o.num_latent = nq;
  o.fit_restarts = 0;
  o.fit_evaluations = 1;
  o.min_noise = 0.0;  // lets the jitter theta below reach a singular K
  return o;
}

/// Sizes that hit every remainder of the four- and two-wide blocks several
/// times below 18, and again around the tuning_session's 90 stacked rows.
std::vector<std::size_t> oracle_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 17; ++n) sizes.push_back(n);
  for (const int n : {89, 90, 97}) sizes.push_back(static_cast<std::size_t>(n));
  return sizes;
}

TEST(LcmGradient, BitwiseEqualToReferenceLoops) {
  for (const std::size_t nt : {std::size_t{1}, std::size_t{3}}) {
    for (const std::size_t nq : {std::size_t{1}, std::size_t{2}}) {
      for (const std::size_t n : oracle_sizes()) {
        const std::size_t dim = 2 + n % 4;  // 2..5: every length block
        const LcmOptions o = oracle_options(nq);
        const std::vector<TaskData> tasks = oracle_tasks(n, dim, nt);
        LcmModel model(dim, nt, o);
        rng::Rng fit_rng(76);
        model.fit(tasks, fit_rng);
        const reference::Stacked s = reference::stack(tasks);

        rng::Rng pick(77 + n);
        std::vector<la::Vector> thetas;
        for (int r = 0; r < 3; ++r) {
          la::Vector th(model.num_hyper());
          for (std::size_t q = 0; q < nq; ++q) {
            const std::size_t base = q * (dim + 2 * nt);
            for (std::size_t m = 0; m < dim; ++m)
              th[base + m] = pick.uniform(-2.5, 1.0);
            for (std::size_t t = 0; t < nt; ++t) {
              th[base + dim + t] = pick.uniform(-1.0, 1.5);
              th[base + dim + nt + t] = pick.uniform(-5.0, 0.5);
            }
          }
          for (std::size_t t = 0; t < nt; ++t)
            th[nq * (dim + 2 * nt) + t] = pick.uniform(-9.0, -1.0);
          thetas.push_back(std::move(th));
        }
        // Lengthscales so long that every latent kernel rounds to 1, a
        // rank-one B and no noise: K is singular, so the factor needs
        // jitter.
        la::Vector singular(model.num_hyper(), 0.0);
        for (std::size_t q = 0; q < nq; ++q) {
          const std::size_t base = q * (dim + 2 * nt);
          for (std::size_t m = 0; m < dim; ++m) singular[base + m] = 20.0;
          for (std::size_t t = 0; t < nt; ++t) {
            singular[base + dim + t] = 1.0;
            singular[base + dim + nt + t] = -40.0;
          }
        }
        for (std::size_t t = 0; t < nt; ++t)
          singular[nq * (dim + 2 * nt) + t] = -80.0;
        thetas.push_back(singular);

        for (std::size_t r = 0; r < thetas.size(); ++r) {
          const std::string what = "T=" + std::to_string(nt) +
                                   " Q=" + std::to_string(nq) +
                                   " n=" + std::to_string(n) +
                                   " theta " + std::to_string(r);
          la::Vector want_grad, grad;
          double jitter = 0.0;
          const double want = reference::nll(s, dim, nt, nq, o, thetas[r],
                                             want_grad, jitter);
          if (r + 1 == thetas.size() && n >= 4) {  // smaller K can round PD
            ASSERT_GT(jitter, 0.0) << what;
            ASSERT_LT(want, std::numeric_limits<double>::max()) << what;
          }
          EXPECT_EQ(model.neg_log_likelihood(thetas[r], grad), want)
              << what << " nll";
          ASSERT_EQ(grad.size(), want_grad.size()) << what;
          for (std::size_t p = 0; p < grad.size(); ++p)
            EXPECT_EQ(grad[p], want_grad[p]) << what << " grad[" << p << "]";
        }
      }
    }
  }
}

TEST(LcmGradient, PinnedAtTuningSessionShape) {
  // 90 rows, d = 4, T = 3, Q = 1: the stacked shape of a tuning_session fit.
  // Recorded from the row-at-a-time loops; a failure prints the new value
  // as a hexfloat.
  const LcmOptions o = oracle_options(1);
  LcmModel model(4, 3, o);
  rng::Rng fit_rng(78);
  model.fit(oracle_tasks(90, 4, 3), fit_rng);
  la::Vector theta(model.num_hyper());
  for (std::size_t p = 0; p < theta.size(); ++p)
    theta[p] = -1.0 + 0.125 * static_cast<double>(p % 7);
  la::Vector grad;
  const double nll = model.neg_log_likelihood(theta, grad);
  const double pinned_grad[13] = {
      0x1.1d55b8cb92e3ep+3,  -0x1.00f13e964ea8bp+3, -0x1.0724a9768b198p+3,
      -0x1.bf2e3aa45b94fp+1, 0x1.f410226906497p+1,  0x1.38a0ba2a4102fp+2,
      0x1.2acea95e44f8fp+2,  0x1.55acddede326p-1,   0x1.7c4c270dee33bp+0,
      0x1.366dd944fd6b8p-1,  0x1.307e08533c35ap+3,  0x1.06a4bac0274c2p+3,
      0x1.0b2bcacdcef1fp+2};
  expect_bits(nll, 0x1.a0b05ee08b125p+6, "nll");
  ASSERT_EQ(grad.size(), 13u);
  for (std::size_t p = 0; p < grad.size(); ++p)
    expect_bits(grad[p], pinned_grad[p], "grad[" + std::to_string(p) + "]");
}

TEST(LcmPredict, BitwiseEqualToReferenceLoops) {
  // Five points per span: one four-column tile of the forward solve and
  // one single column, each over every row remainder of oracle_sizes().
  for (const std::size_t nt : {std::size_t{1}, std::size_t{3}}) {
    for (const std::size_t nq : {std::size_t{1}, std::size_t{2}}) {
      for (const std::size_t n : oracle_sizes()) {
        const std::size_t dim = 2 + n % 4;
        LcmOptions o = oracle_options(nq);
        o.fit_evaluations = 8;
        const std::vector<TaskData> tasks = oracle_tasks(n, dim, nt);
        LcmModel model(dim, nt, o);
        rng::Rng fit_rng(79);
        model.fit(tasks, fit_rng);
        const reference::Stacked s = reference::stack(tasks);
        rng::Rng pick(80 + n);
        std::vector<la::Vector> xs(5, la::Vector(dim));
        for (la::Vector& x : xs)
          for (double& v : x) v = pick.uniform();
        std::vector<Prediction> got(xs.size());
        for (std::size_t t = 0; t < nt; ++t) {
          model.predict(t, xs, got);
          for (std::size_t r = 0; r < xs.size(); ++r) {
            const std::string what = "T=" + std::to_string(nt) +
                                     " Q=" + std::to_string(nq) +
                                     " n=" + std::to_string(n) + " task " +
                                     std::to_string(t) + " point " +
                                     std::to_string(r);
            const Prediction want = reference::predict(
                s, dim, nt, nq, o, model.hyperparameters(), t, xs[r]);
            EXPECT_EQ(got[r].mean, want.mean) << what;
            EXPECT_EQ(got[r].variance, want.variance) << what;
          }
        }
      }
    }
  }
}

/// Predicting a span gives each point bitwise what predicting it alone
/// does, for spans of 1, 2, 7, 8, 24 and 25 points (every remainder of the
/// four-column tile) and for a span that starts mid-batch.
void expect_span_matches_points(
    const std::function<void(std::span<const la::Vector>,
                             std::span<Prediction>)>& span_predict,
    const std::function<Prediction(const la::Vector&)>& point_predict,
    std::size_t dim, const std::string& what) {
  rng::Rng pick(81);
  std::vector<la::Vector> xs(25, la::Vector(dim));
  for (la::Vector& x : xs)
    for (double& v : x) v = pick.uniform();
  std::vector<Prediction> want;
  for (const la::Vector& x : xs) want.push_back(point_predict(x));
  for (const std::size_t size : {1u, 2u, 7u, 8u, 24u, 25u}) {
    for (const std::size_t start : {std::size_t{0}, 25 - size}) {
      std::vector<Prediction> got(size);
      span_predict(std::span<const la::Vector>(xs).subspan(start, size), got);
      for (std::size_t i = 0; i < size; ++i) {
        EXPECT_EQ(got[i].mean, want[start + i].mean)
            << what << " span " << size << " from " << start << " point " << i;
        EXPECT_EQ(got[i].variance, want[start + i].variance)
            << what << " span " << size << " from " << start << " point " << i;
      }
    }
  }
}

TEST(LcmPredict, SpanBitwiseEqualToOnePoint) {
  for (const std::size_t nt : {std::size_t{1}, std::size_t{3}}) {
    for (const std::size_t nq : {std::size_t{1}, std::size_t{2}}) {
      LcmOptions o = oracle_options(nq);
      o.fit_evaluations = 8;
      auto model = std::make_shared<LcmModel>(3, nt, o);
      rng::Rng fit_rng(82);
      model->fit(oracle_tasks(30, 3, nt), fit_rng);
      for (std::size_t t = 0; t < nt; ++t) {
        const std::string what = "T=" + std::to_string(nt) +
                                 " Q=" + std::to_string(nq) + " task " +
                                 std::to_string(t);
        expect_span_matches_points(
            [&](std::span<const la::Vector> x, std::span<Prediction> out) {
              model->predict(t, x, out);
            },
            [&](const la::Vector& x) { return model->predict(t, x); }, 3,
            what);
        const SurrogatePtr view = LcmModel::task_view(model, t);
        expect_span_matches_points(
            [&](std::span<const la::Vector> x, std::span<Prediction> out) {
              view->predict(x, out);
            },
            [&](const la::Vector& x) { return model->predict(t, x); }, 3,
            what + " view");
      }
    }
  }
}

}  // namespace
}  // namespace gptc::gp
