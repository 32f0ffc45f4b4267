#include "core/history.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace gptc::core {
namespace {

using space::Config;
using space::Parameter;
using space::Space;
using space::Value;

class HistoryTest : public ::testing::Test {
 protected:
  Space space_{std::vector<Parameter>{
      Parameter::integer("k", 0, 10),
      Parameter::categorical("c", {"x", "y"}),
  }};
  TaskHistory history_{Config{Value(std::int64_t{5})}};
};

TEST_F(HistoryTest, StartsEmpty) {
  EXPECT_EQ(history_.size(), 0u);
  EXPECT_EQ(history_.num_valid(), 0u);
  EXPECT_FALSE(history_.best_output().has_value());
  EXPECT_FALSE(history_.best_config().has_value());
  EXPECT_EQ(history_.task()[0].as_int(), 5);
}

TEST_F(HistoryTest, TracksBestAcrossSuccessesAndFailures) {
  history_.add({Value(std::int64_t{1}), Value("x")}, 3.0);
  history_.add({Value(std::int64_t{2}), Value("y")},
               std::numeric_limits<double>::quiet_NaN());
  history_.add({Value(std::int64_t{3}), Value("x")}, 1.5);
  history_.add({Value(std::int64_t{4}), Value("y")}, 2.0);

  EXPECT_EQ(history_.size(), 4u);
  EXPECT_EQ(history_.num_valid(), 3u);
  EXPECT_DOUBLE_EQ(history_.best_output().value(), 1.5);
  EXPECT_EQ(history_.best_config().value()[0].as_int(), 3);
}

TEST_F(HistoryTest, FailedRecordsFlagged) {
  EvalRecord ok{{Value(std::int64_t{1}), Value("x")}, 1.0};
  EvalRecord bad{{Value(std::int64_t{1}), Value("x")},
                 std::numeric_limits<double>::infinity()};
  EXPECT_FALSE(ok.failed());
  EXPECT_TRUE(bad.failed());
  EXPECT_TRUE(EvalRecord{}.failed());
}

TEST_F(HistoryTest, ContainsMatchesExactConfig) {
  history_.add({Value(std::int64_t{1}), Value("x")}, 3.0);
  EXPECT_TRUE(history_.contains({Value(std::int64_t{1}), Value("x")}));
  EXPECT_FALSE(history_.contains({Value(std::int64_t{1}), Value("y")}));
  EXPECT_FALSE(history_.contains({Value(std::int64_t{2}), Value("x")}));
  EXPECT_FALSE(history_.contains({Value(std::int64_t{1})}));  // short config
}

TEST_F(HistoryTest, ContainsIsTrueForFailedEvaluationsToo) {
  history_.add({Value(std::int64_t{7}), Value("y")},
               std::numeric_limits<double>::quiet_NaN());
  // Failed configs must still count as "tried" so the tuner does not retry
  // a known-bad configuration.
  EXPECT_TRUE(history_.contains({Value(std::int64_t{7}), Value("y")}));
}

TEST_F(HistoryTest, ValidDataEncodesOnlySuccesses) {
  history_.add({Value(std::int64_t{0}), Value("x")}, 1.0);
  history_.add({Value(std::int64_t{9}), Value("y")},
               std::numeric_limits<double>::quiet_NaN());
  history_.add({Value(std::int64_t{9}), Value("y")}, 4.0);
  const TrainingData d = history_.valid_data(space_);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d.x.rows(), 2u);
  EXPECT_EQ(d.x.cols(), 2u);
  EXPECT_DOUBLE_EQ(d.y[0], 1.0);
  EXPECT_DOUBLE_EQ(d.y[1], 4.0);
  // Encoded to bin centers: k=0 -> 0.05, k=9 -> 0.95.
  EXPECT_NEAR(d.x(0, 0), 0.05, 1e-12);
  EXPECT_NEAR(d.x(1, 0), 0.95, 1e-12);
}

}  // namespace
}  // namespace gptc::core
