// Tests of GPTune-style simultaneous multitask tuning (Tuner::tune_multitask).
#include <gtest/gtest.h>

#include <cmath>

#include "apps/synthetic.hpp"
#include "core/tuner.hpp"

namespace gptc::core {
namespace {

using space::Value;

class MultitaskTuningTest : public ::testing::Test {
 protected:
  MultitaskTuningTest() : problem_(apps::make_demo_problem()) {}

  TunerOptions options(std::uint64_t seed, int budget) const {
    TunerOptions o;
    o.budget = budget;
    o.seed = seed;
    o.tla.lcm.fit_restarts = 0;
    o.tla.lcm.max_samples_per_task = 30;
    o.tla.acquisition.de_population = 12;
    o.tla.acquisition.de_generations = 10;
    return o;
  }

  space::TuningProblem problem_;
};

TEST_F(MultitaskTuningTest, TunesEveryTaskWithFullBudget) {
  const std::vector<space::Config> tasks = {{Value(0.9)}, {Value(1.0)},
                                            {Value(1.1)}};
  const auto results =
      Tuner(problem_, options(1, 6)).tune_multitask(tasks);
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(results[t].history.size(), 6u);
    EXPECT_EQ(results[t].history.task()[0].as_double(),
              tasks[t][0].as_double());
    ASSERT_TRUE(results[t].best_output().has_value());
    EXPECT_TRUE(std::isfinite(*results[t].best_output()));
    for (const auto& name : results[t].proposed_by)
      EXPECT_EQ(name, "Multitask(LCM)");
  }
}

TEST_F(MultitaskTuningTest, DeterministicPerSeed) {
  const std::vector<space::Config> tasks = {{Value(0.8)}, {Value(1.2)}};
  const auto a = Tuner(problem_, options(7, 4)).tune_multitask(tasks);
  const auto b = Tuner(problem_, options(7, 4)).tune_multitask(tasks);
  for (std::size_t t = 0; t < 2; ++t)
    for (std::size_t i = 0; i < 4; ++i)
      EXPECT_DOUBLE_EQ(a[t].history.evals()[i].output,
                       b[t].history.evals()[i].output);
}

TEST_F(MultitaskTuningTest, SourcesJoinTheJointModel) {
  const TaskHistory source =
      collect_random_samples(problem_, {Value(0.8)}, 40, 3);
  const auto results = Tuner(problem_, options(2, 5))
                           .tune_multitask({{Value(1.0)}}, {source});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].history.size(), 5u);
  EXPECT_TRUE(std::isfinite(*results[0].best_output()));
}

TEST_F(MultitaskTuningTest, JointTuningIsCompetitiveWithIndependent) {
  // Three correlated tasks, small per-task budget: joint LCM tuning should
  // be at least as good on average as independent NoTLA runs.
  const std::vector<space::Config> tasks = {{Value(0.9)}, {Value(1.0)},
                                            {Value(1.1)}};
  double joint = 0.0, indep = 0.0;
  const int kSeeds = 2;
  for (int s = 0; s < kSeeds; ++s) {
    const auto results =
        Tuner(problem_, options(100 + s, 6)).tune_multitask(tasks);
    for (const auto& r : results) joint += *r.best_output();
    for (const auto& task : tasks) {
      auto o = options(100 + s, 6);
      o.algorithm = TlaKind::NoTLA;
      indep += *Tuner(problem_, o).tune(task).best_output();
    }
  }
  EXPECT_LT(joint, indep + 0.5 * kSeeds);  // allow slack; must not be worse
}

TEST_F(MultitaskTuningTest, HandlesFailuresInOneTask) {
  space::TuningProblem p = problem_;
  p.objective = [base = problem_.objective](const space::Config& task,
                                            const space::Config& params) {
    // Task t=5.0 fails for x < 0.6 (most of the space).
    if (task[0].as_double() > 4.0 && params[0].as_double() < 0.6)
      return std::numeric_limits<double>::quiet_NaN();
    return base(task, params);
  };
  const auto results = Tuner(p, options(4, 8))
                           .tune_multitask({{Value(1.0)}, {Value(5.0)}});
  EXPECT_TRUE(std::isfinite(*results[0].best_output()));
  // The failing task keeps its failures recorded; with 8 tries it should
  // eventually land one success.
  EXPECT_EQ(results[1].history.size(), 8u);
}

TEST_F(MultitaskTuningTest, InvalidInputsThrow) {
  EXPECT_THROW(Tuner(problem_, options(0, 4)).tune_multitask({}),
               std::invalid_argument);
  EXPECT_THROW(
      Tuner(problem_, options(0, 4)).tune_multitask({{Value(99.0)}}),
      std::invalid_argument);
}

}  // namespace
}  // namespace gptc::core
