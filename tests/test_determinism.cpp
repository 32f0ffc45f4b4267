// Serial-vs-parallel equivalence suite: every parallelized path must
// produce BITWISE identical results for any thread count. These tests run
// each path at num_threads in {0 (serial), 1, 4, 7} and compare exactly —
// no tolerances. A failure here means a parallel loop leaked execution
// order into its result (shared RNG, unordered reduction, racy write).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/tuner.hpp"
#include "gp/lcm.hpp"
#include "opt/optimize.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"

namespace gptc {
namespace {

using space::Config;
using space::Value;

/// Pool sizes the equivalence tests sweep. 0 maps to a null pool (the pure
/// serial path); 7 is deliberately not a divisor of typical work counts.
const std::size_t kPoolSizes[] = {0, 1, 4, 7};

std::shared_ptr<parallel::ThreadPool> make_pool(std::size_t n) {
  if (n == 0) return nullptr;
  return std::make_shared<parallel::ThreadPool>(n);
}

/// A smooth multimodal test objective on [0,1]^d.
double rastrigin_like(const la::Vector& x) {
  double s = 0.0;
  for (double v : x) {
    const double z = 2.0 * v - 1.0;
    s += z * z - 0.3 * std::cos(7.0 * z);
  }
  return s;
}

TEST(DeterminismTest, DifferentialEvolutionIdenticalAcrossPoolSizes) {
  // Each generation (and the initial population) reaches the objective as
  // contiguous chunks, one per pool worker, whose sizes differ by at most
  // one; the result must not depend on that split.
  constexpr std::size_t kPopulation = 20;
  constexpr int kGenerations = 25;
  opt::Result reference;
  bool have_reference = false;
  for (std::size_t n : kPoolSizes) {
    opt::DifferentialEvolutionOptions o;
    o.population = static_cast<int>(kPopulation);
    o.generations = kGenerations;
    o.pool = make_pool(n);
    std::mutex mu;
    std::vector<std::size_t> chunk_sizes;
    const auto objective = [&](std::span<const la::Vector> x,
                               std::span<double> out) {
      for (std::size_t i = 0; i < x.size(); ++i) out[i] = rastrigin_like(x[i]);
      const std::lock_guard<std::mutex> lock(mu);
      chunk_sizes.push_back(x.size());
    };
    rng::Rng rng(7);  // fresh identically-seeded rng per run
    const opt::Result r = opt::differential_evolution(objective, 4, rng, o);
    const std::size_t chunks = std::max<std::size_t>(n, 1);
    EXPECT_EQ(chunk_sizes.size(), (kGenerations + 1) * chunks)
        << "pool size " << n;
    for (std::size_t size : chunk_sizes) {
      EXPECT_GE(size, kPopulation / chunks) << "pool size " << n;
      EXPECT_LE(size, (kPopulation + chunks - 1) / chunks) << "pool size " << n;
    }
    if (!have_reference) {
      reference = r;
      have_reference = true;
      continue;
    }
    EXPECT_EQ(r.value, reference.value) << "pool size " << n;
    EXPECT_EQ(r.evaluations, reference.evaluations) << "pool size " << n;
    for (std::size_t i = 0; i < r.x.size(); ++i)
      EXPECT_EQ(r.x[i], reference.x[i]) << "pool size " << n << " dim " << i;
  }
}

TEST(DeterminismTest, SingleTaskGpFitIdenticalAcrossPoolSizes) {
  // The single-task GP is the one-task LCM; its fit starts run on the pool.
  // Training data from a fixed stream.
  rng::Rng data_rng(99);
  const std::size_t kSamples = 24, kDim = 2;
  la::Matrix x(kSamples, kDim);
  la::Vector y(kSamples);
  for (std::size_t i = 0; i < kSamples; ++i) {
    la::Vector p(kDim);
    for (std::size_t d = 0; d < kDim; ++d) {
      p[d] = data_rng.uniform();
      x(i, d) = p[d];
    }
    y[i] = rastrigin_like(p) + 0.01 * data_rng.normal();
  }

  std::vector<double> reference;
  la::Vector query(kDim, 0.4);
  for (std::size_t n : kPoolSizes) {
    gp::LcmOptions o;
    o.fit_restarts = 4;  // enough starts that parallel order could matter
    o.fit_evaluations = 80;
    o.pool = make_pool(n);
    gp::LcmModel model(kDim, 1, o);
    rng::Rng fit_rng(5);
    model.fit({gp::TaskData{x, y}}, fit_rng);
    const gp::Prediction pred = model.predict(0, query);
    const std::vector<double> got = {model.task_covariance(0, 0), pred.mean,
                                     pred.variance};
    if (reference.empty()) {
      reference = got;
      continue;
    }
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i], reference[i]) << "pool size " << n << " value " << i;
  }
}

TEST(DeterminismTest, LcmFitIdenticalAcrossPoolSizes) {
  // Three tasks with 18, 7 and 3 samples; the fit restarts and the
  // stacked-covariance row blocks run on the pool and share the unpacked
  // hyperparameter tables.
  rng::Rng data_rng(101);
  const std::size_t kDim = 2;
  const std::size_t counts[] = {18, 7, 3};
  std::vector<gp::TaskData> tasks;
  for (std::size_t t = 0; t < 3; ++t) {
    std::vector<la::Vector> xs;
    la::Vector ys;
    for (std::size_t i = 0; i < counts[t]; ++i) {
      la::Vector p = {data_rng.uniform(), data_rng.uniform()};
      ys.push_back(rastrigin_like(p) + 0.2 * static_cast<double>(t) * p[0] +
                   0.01 * data_rng.normal());
      xs.push_back(std::move(p));
    }
    tasks.push_back(gp::TaskData{la::Matrix::from_rows(xs), ys});
  }

  std::vector<double> reference;
  const la::Vector query(kDim, 0.4);
  for (std::size_t n : kPoolSizes) {
    gp::LcmOptions o;
    o.num_latent = 2;
    o.fit_restarts = 3;  // enough restarts that parallel order could matter
    o.fit_evaluations = 80;
    o.pool = make_pool(n);
    gp::LcmModel model(kDim, 3, o);
    rng::Rng fit_rng(6);
    model.fit(tasks, fit_rng);
    std::vector<double> got;
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < 3; ++j)
        got.push_back(model.task_covariance(i, j));
      const gp::Prediction pred = model.predict(i, query);
      got.push_back(pred.mean);
      got.push_back(pred.variance);
    }
    if (reference.empty()) {
      reference = got;
      continue;
    }
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i], reference[i]) << "pool size " << n << " value " << i;
  }
}

TEST(DeterminismTest, EnsembleTunerRunIdenticalAcrossThreadCounts) {
  // End-to-end: a 20-iteration Ensemble(proposed) run — GP fits, LCM fits,
  // acquisition DE searches and the TLA ensemble all engaged — must yield
  // the exact same evaluation history at every thread count.
  const space::TuningProblem problem = apps::make_demo_problem();
  const core::TaskHistory source =
      core::collect_random_samples(problem, {Value(0.8)}, 60, 1234);

  std::vector<double> ref_best;
  std::vector<double> ref_outputs;
  bool have_reference = false;
  for (std::size_t n : kPoolSizes) {
    core::TunerOptions o;
    o.budget = 20;
    o.algorithm = core::TlaKind::EnsembleProposed;
    o.seed = 11;
    o.num_threads = static_cast<int>(n);
    // Shrunk fit budgets keep the 4-way sweep fast without changing what is
    // being compared.
    o.tla.lcm.fit_restarts = 1;
    o.tla.lcm.fit_evaluations = 60;
    o.tla.lcm.max_samples_per_task = 30;
    o.tla.max_source_samples = 40;
    o.tla.acquisition.de_population = 12;
    o.tla.acquisition.de_generations = 10;
    const core::TuningResult r =
        core::Tuner(problem, o).tune({Value(1.0)}, {source});
    std::vector<double> outputs;
    for (const auto& e : r.history.evals()) outputs.push_back(e.output);
    if (!have_reference) {
      ref_best = r.best_so_far;
      ref_outputs = outputs;
      have_reference = true;
      continue;
    }
    ASSERT_EQ(outputs.size(), ref_outputs.size()) << "threads " << n;
    for (std::size_t i = 0; i < outputs.size(); ++i)
      EXPECT_EQ(outputs[i], ref_outputs[i]) << "threads " << n << " iter " << i;
    ASSERT_EQ(r.best_so_far.size(), ref_best.size());
    for (std::size_t i = 0; i < ref_best.size(); ++i)
      EXPECT_EQ(r.best_so_far[i], ref_best[i]) << "threads " << n << " iter " << i;
  }
}

}  // namespace
}  // namespace gptc
