// Behavioural tests of the ensemble TLA strategies (Algorithm 1 and its
// ablations): pool delegation, selection statistics, exploration decay.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "apps/synthetic.hpp"
#include "core/tuner.hpp"

namespace gptc::core {
namespace {

using space::Value;

class EnsembleTest : public ::testing::Test {
 protected:
  EnsembleTest() : problem_(apps::make_demo_problem()) {
    source_ = collect_random_samples(problem_, {Value(0.8)}, 80, 5);
  }

  TunerOptions options(TlaKind kind, std::uint64_t seed, int budget) const {
    TunerOptions o;
    o.budget = budget;
    o.algorithm = kind;
    o.seed = seed;
    o.tla.lcm.fit_restarts = 0;
    o.tla.lcm.max_samples_per_task = 30;
    o.tla.max_source_samples = 40;
    o.tla.acquisition.de_population = 12;
    o.tla.acquisition.de_generations = 10;
    return o;
  }

  space::TuningProblem problem_;
  TaskHistory source_;
};

TEST_F(EnsembleTest, ProposedByReportsPoolMembers) {
  const TuningResult r =
      Tuner(problem_, options(TlaKind::EnsembleProposed, 1, 10))
          .tune({Value(1.0)}, {source_});
  ASSERT_EQ(r.proposed_by.size(), 10u);
  // Evaluation 1 is the shared WeightedSum(equal) rule; later evaluations
  // must name actual pool members (Algorithm 1, line 1).
  EXPECT_EQ(r.proposed_by[0], "WeightedSum(equal)");
  const std::set<std::string> pool = {"Multitask(TS)", "WeightedSum(dynamic)",
                                      "Stacking"};
  for (std::size_t i = 1; i < r.proposed_by.size(); ++i)
    EXPECT_TRUE(pool.count(r.proposed_by[i]))
        << "unexpected proposer: " << r.proposed_by[i];
}

TEST_F(EnsembleTest, ProposedUsesMultipleMembersOverARun) {
  // With the exploration rate of Eq. 4 high at small sample counts, a
  // 12-evaluation run should try more than one pool member.
  const TuningResult r =
      Tuner(problem_, options(TlaKind::EnsembleProposed, 3, 12))
          .tune({Value(1.0)}, {source_});
  std::set<std::string> used(r.proposed_by.begin() + 1, r.proposed_by.end());
  EXPECT_GE(used.size(), 2u);
}

TEST_F(EnsembleTest, TogglingCyclesDeterministically) {
  const TuningResult r =
      Tuner(problem_, options(TlaKind::EnsembleToggling, 4, 7))
          .tune({Value(1.0)}, {source_});
  // After the first (WeightedSum(equal)) evaluation, toggling walks the
  // pool round-robin.
  ASSERT_GE(r.proposed_by.size(), 7u);
  EXPECT_EQ(r.proposed_by[1], "Multitask(TS)");
  EXPECT_EQ(r.proposed_by[2], "WeightedSum(dynamic)");
  EXPECT_EQ(r.proposed_by[3], "Stacking");
  EXPECT_EQ(r.proposed_by[4], "Multitask(TS)");
}

TEST_F(EnsembleTest, AllEnsembleVariantsProduceFiniteResults) {
  for (const TlaKind kind :
       {TlaKind::EnsembleProposed, TlaKind::EnsembleToggling,
        TlaKind::EnsembleProb}) {
    const TuningResult r = Tuner(problem_, options(kind, 6, 6))
                               .tune({Value(1.0)}, {source_});
    ASSERT_TRUE(r.best_output().has_value()) << to_string(kind);
    EXPECT_TRUE(std::isfinite(*r.best_output())) << to_string(kind);
  }
}

TEST_F(EnsembleTest, EnsembleSurvivesNegativeOutputs) {
  // Eq. 3 weights use 1/best_output assuming non-negative objectives; with
  // negative outputs the implementation must fall back to uniform choice
  // rather than crash (demo function can dip below zero for some tasks).
  space::TuningProblem shifted = problem_;
  shifted.objective = [base = problem_.objective](const space::Config& t,
                                                  const space::Config& p) {
    return base(t, p) - 2.0;  // strictly negative outputs
  };
  TaskHistory shifted_source({Value(0.8)});
  for (const auto& e : source_.evals())
    shifted_source.add(e.params, e.output - 2.0);
  const TuningResult r =
      Tuner(shifted, options(TlaKind::EnsembleProposed, 7, 8))
          .tune({Value(1.0)}, {shifted_source});
  ASSERT_TRUE(r.best_output().has_value());
  EXPECT_LT(*r.best_output(), 0.0);
}

}  // namespace
}  // namespace gptc::core
