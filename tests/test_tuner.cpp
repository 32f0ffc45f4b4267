// End-to-end tests of the BO loop and every TLA algorithm on the synthetic
// problems of Sec. VI-A.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/synthetic.hpp"
#include "core/tuner.hpp"

namespace gptc::core {
namespace {

using space::Config;
using space::Value;

TunerOptions fast_options(TlaKind kind, std::uint64_t seed) {
  TunerOptions o;
  o.budget = 8;
  o.algorithm = kind;
  o.seed = seed;
  // Trim model-fit budgets so the full matrix of algorithms stays fast.
  o.tla.lcm.fit_restarts = 0;
  o.tla.lcm.max_samples_per_task = 40;
  o.tla.acquisition.de_population = 16;
  o.tla.acquisition.de_generations = 15;
  return o;
}

class TunerDemoTest : public ::testing::Test {
 protected:
  TunerDemoTest() : problem_(apps::make_demo_problem()) {
    source_ = collect_random_samples(problem_, {Value(0.8)}, 60, 1234);
  }

  space::TuningProblem problem_;
  TaskHistory source_;
};

TEST_F(TunerDemoTest, NoTlaFindsReasonableMinimum) {
  TunerOptions o = fast_options(TlaKind::NoTLA, 1);
  o.budget = 15;
  const TuningResult r = Tuner(problem_, o).tune({Value(1.0)});
  ASSERT_TRUE(r.best_output().has_value());
  // Demo function at t=1.0: global minimum 0.735, flat value 1.0 at x=0 and
  // x=0.5. BO with 15 evaluations must land clearly below the flat level.
  EXPECT_LT(*r.best_output(), 0.95);
  EXPECT_EQ(r.history.size(), 15u);
  EXPECT_EQ(r.best_so_far.size(), 15u);
}

TEST_F(TunerDemoTest, BestSoFarIsMonotoneNonIncreasing) {
  const TuningResult r =
      Tuner(problem_, fast_options(TlaKind::NoTLA, 2)).tune({Value(1.0)});
  for (std::size_t i = 1; i < r.best_so_far.size(); ++i)
    EXPECT_LE(r.best_so_far[i], r.best_so_far[i - 1] + 1e-15);
}

TEST_F(TunerDemoTest, ResultsAreDeterministicPerSeed) {
  const auto opts = fast_options(TlaKind::MultitaskTS, 7);
  const TuningResult a = Tuner(problem_, opts).tune({Value(1.0)}, {source_});
  const TuningResult b = Tuner(problem_, opts).tune({Value(1.0)}, {source_});
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i)
    EXPECT_DOUBLE_EQ(a.history.evals()[i].output, b.history.evals()[i].output);
}

TEST_F(TunerDemoTest, DifferentSeedsExploreDifferently) {
  const TuningResult a =
      Tuner(problem_, fast_options(TlaKind::NoTLA, 1)).tune({Value(1.0)});
  const TuningResult b =
      Tuner(problem_, fast_options(TlaKind::NoTLA, 99)).tune({Value(1.0)});
  bool any_diff = false;
  for (std::size_t i = 0; i < a.history.size(); ++i)
    if (a.history.evals()[i].output != b.history.evals()[i].output)
      any_diff = true;
  EXPECT_TRUE(any_diff);
}

// Every TLA algorithm must run end-to-end on the demo transfer scenario.
class TlaAlgorithmTest : public TunerDemoTest,
                         public ::testing::WithParamInterface<TlaKind> {};

TEST_P(TlaAlgorithmTest, RunsAndRecordsBudgetEvaluations) {
  const TuningResult r = Tuner(problem_, fast_options(GetParam(), 3))
                             .tune({Value(1.0)}, {source_});
  EXPECT_EQ(r.history.size(), 8u);
  ASSERT_TRUE(r.best_output().has_value());
  EXPECT_TRUE(std::isfinite(*r.best_output()));
  EXPECT_EQ(r.proposed_by.size(), 8u);
  for (const auto& name : r.proposed_by) EXPECT_FALSE(name.empty());
}

TEST_P(TlaAlgorithmTest, FirstEvalOfTlaUsesWeightedSumEqual) {
  if (GetParam() == TlaKind::NoTLA) GTEST_SKIP();
  const TuningResult r = Tuner(problem_, fast_options(GetParam(), 4))
                             .tune({Value(1.0)}, {source_});
  EXPECT_EQ(r.proposed_by.front(), "WeightedSum(equal)");
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, TlaAlgorithmTest,
    ::testing::ValuesIn(all_tla_kinds()),
    [](const ::testing::TestParamInfo<TlaKind>& param_info) {
      std::string n(to_string(param_info.param));
      for (char& c : n)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return n;
    });

TEST_F(TunerDemoTest, TlaBeatsNoTlaEarlyOnAverage) {
  // The paper's key claim at small budgets (Fig. 3): with a correlated
  // source task, transfer learning finds good configurations sooner.
  double tla_sum = 0.0, notla_sum = 0.0;
  const int kSeeds = 3;
  for (int s = 0; s < kSeeds; ++s) {
    TunerOptions to = fast_options(TlaKind::MultitaskTS, 100 + s);
    to.budget = 5;
    tla_sum +=
        *Tuner(problem_, to).tune({Value(1.0)}, {source_}).best_output();
    TunerOptions no = fast_options(TlaKind::NoTLA, 100 + s);
    no.budget = 5;
    notla_sum += *Tuner(problem_, no).tune({Value(1.0)}).best_output();
  }
  EXPECT_LT(tla_sum / kSeeds, notla_sum / kSeeds + 0.35);
}

TEST_F(TunerDemoTest, SourcesWithoutDataFallBackToNoTla) {
  TaskHistory empty_source({Value(0.8)});
  const TuningResult r = Tuner(problem_, fast_options(TlaKind::Stacking, 5))
                             .tune({Value(1.0)}, {empty_source});
  EXPECT_EQ(r.history.size(), 8u);
  EXPECT_EQ(r.proposed_by.front(), "NoTLA");
}

TEST_F(TunerDemoTest, FailuresAreRecordedButExcluded) {
  // Objective that fails (NaN) on the lower half of the range: the tuner
  // must survive and report a finite best.
  space::TuningProblem p = problem_;
  p.objective = [base = problem_.objective](const Config& task,
                                            const Config& params) {
    if (params[0].as_double() < 0.5)
      return std::numeric_limits<double>::quiet_NaN();
    return base(task, params);
  };
  TunerOptions o = fast_options(TlaKind::NoTLA, 6);
  o.budget = 12;
  const TuningResult r = Tuner(p, o).tune({Value(1.0)});
  EXPECT_EQ(r.history.size(), 12u);
  std::size_t failures = 0;
  for (const auto& e : r.history.evals())
    if (e.failed()) ++failures;
  EXPECT_GT(failures, 0u);
  ASSERT_TRUE(r.best_output().has_value());
  EXPECT_TRUE(std::isfinite(*r.best_output()));
}

TEST_F(TunerDemoTest, DuplicateConfigsAvoidedInTinyIntegerSpace) {
  space::TuningProblem p;
  p.name = "tiny";
  p.task_space = space::Space({space::Parameter::integer("t", 0, 2)});
  p.param_space = space::Space({space::Parameter::integer("k", 0, 10)});
  p.objective = [](const Config&, const Config& params) {
    const double k = static_cast<double>(params[0].as_int());
    return (k - 7.0) * (k - 7.0) + 1.0;
  };
  TunerOptions o = fast_options(TlaKind::NoTLA, 8);
  o.budget = 10;
  const TuningResult r = Tuner(p, o).tune({Value(std::int64_t{0})});
  // 10 distinct configs exist; with dedup retries most evaluations should
  // be unique.
  std::set<std::int64_t> seen;
  for (const auto& e : r.history.evals()) seen.insert(e.params[0].as_int());
  EXPECT_GE(seen.size(), 8u);
  EXPECT_EQ(*r.best_output(), 1.0);  // k=7 must be found in 10 tries
}

TEST_F(TunerDemoTest, CallbackSeesEveryEvaluation) {
  int calls = 0;
  TunerOptions o = fast_options(TlaKind::NoTLA, 9);
  o.on_evaluation = [&](int i, const EvalRecord& rec, double best) {
    EXPECT_EQ(i, calls);
    EXPECT_EQ(rec.params.size(), 1u);
    EXPECT_TRUE(std::isfinite(best));
    ++calls;
  };
  Tuner(problem_, o).tune({Value(1.0)});
  EXPECT_EQ(calls, 8);
}

TEST_F(TunerDemoTest, InvalidInputsThrow) {
  EXPECT_THROW(Tuner(problem_, fast_options(TlaKind::NoTLA, 0))
                   .tune({Value(50.0)}),  // outside task space
               std::invalid_argument);
  TunerOptions bad = fast_options(TlaKind::NoTLA, 0);
  bad.budget = 0;
  EXPECT_THROW(Tuner(problem_, bad), std::invalid_argument);
  space::TuningProblem no_obj = problem_;
  no_obj.objective = nullptr;
  EXPECT_THROW(Tuner(no_obj, fast_options(TlaKind::NoTLA, 0)),
               std::invalid_argument);
}

TEST(TlaNames, RoundTrip) {
  for (TlaKind k : all_tla_kinds()) {
    const auto parsed = tla_from_string(to_string(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(tla_from_string("bogus").has_value());
}

TEST(CollectRandomSamples, ProducesRequestedCount) {
  const auto problem = apps::make_demo_problem();
  const TaskHistory h = collect_random_samples(problem, {Value(0.8)}, 25, 9);
  EXPECT_EQ(h.size(), 25u);
  EXPECT_EQ(h.num_valid(), 25u);
  ASSERT_TRUE(h.best_output().has_value());
}

TEST(CollectRandomSamples, DeterministicPerSeed) {
  const auto problem = apps::make_demo_problem();
  const TaskHistory a = collect_random_samples(problem, {Value(0.8)}, 10, 5);
  const TaskHistory b = collect_random_samples(problem, {Value(0.8)}, 10, 5);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_DOUBLE_EQ(a.evals()[i].output, b.evals()[i].output);
}

}  // namespace
}  // namespace gptc::core
