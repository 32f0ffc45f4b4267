// Tests of the performance-variability detector (the paper's stated
// future work, implemented in src/crowd/variability.*).
#include "crowd/variability.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "crowd/repo.hpp"

namespace gptc::crowd {
namespace {

using json::Json;

Json record(int id, double mb, double output) {
  Json r = Json::object();
  r["_id"] = std::int64_t{id};
  r["task_parameters"] = Json::parse(R"({"m":1000})");
  Json tuning = Json::object();
  tuning["mb"] = static_cast<std::int64_t>(mb);
  r["tuning_parameters"] = std::move(tuning);
  Json out = Json::object();
  out["runtime"] = std::isfinite(output) ? Json(output) : Json(nullptr);
  r["output"] = std::move(out);
  r["machine_configuration"] = Json::parse(R"({"machine_name":"Cori"})");
  r["software_configuration"] = Json::object();
  return r;
}

TEST(RobustStats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median_of({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median_of({1.0, 9.0, 5.0}), 5.0);
  EXPECT_DOUBLE_EQ(median_of({1.0, 2.0, 3.0, 10.0}), 2.5);
  EXPECT_DOUBLE_EQ(median_of({}), 0.0);
}

TEST(RobustStats, Mad) {
  // values 1,2,3,4,100: median 3, deviations 2,1,0,1,97 -> MAD 1.
  EXPECT_DOUBLE_EQ(mad_of({1, 2, 3, 4, 100}, 3.0), 1.0);
  EXPECT_DOUBLE_EQ(mad_of({5, 5, 5}, 5.0), 0.0);
}

TEST(Variability, GroupsRepeatedConfigurations) {
  std::vector<Json> records;
  for (int i = 0; i < 5; ++i) records.push_back(record(i, 4, 1.0 + 0.01 * i));
  records.push_back(record(10, 8, 2.0));  // singleton: not a group
  const VariabilityReport report = detect_variability(records);
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_EQ(report.groups[0].outputs.size(), 5u);
  EXPECT_NEAR(report.groups[0].median, 1.02, 1e-12);
}

TEST(Variability, FlagsOutlierRecord) {
  std::vector<Json> records;
  for (int i = 0; i < 7; ++i) records.push_back(record(i, 4, 1.0 + 0.005 * i));
  records.push_back(record(99, 4, 9.0));  // a 9x spike: system noise
  const VariabilityReport report = detect_variability(records);
  ASSERT_EQ(report.groups.size(), 1u);
  const auto ids = report.outlier_record_ids();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], 99);
  EXPECT_EQ(report.total_outliers(), 1u);
}

TEST(Variability, CleanGroupHasNoOutliers) {
  std::vector<Json> records;
  for (int i = 0; i < 10; ++i)
    records.push_back(record(i, 4, 1.0 + 0.002 * (i % 3)));
  const VariabilityReport report = detect_variability(records);
  EXPECT_EQ(report.total_outliers(), 0u);
}

TEST(Variability, NoisyGroupDetection) {
  std::vector<Json> records;
  // Relative MAD ~ 0.2: clearly noisy.
  const double outputs[] = {1.0, 1.3, 0.8, 1.2, 0.7};
  for (int i = 0; i < 5; ++i) records.push_back(record(i, 4, outputs[i]));
  // A quiet group at mb=8.
  for (int i = 10; i < 14; ++i)
    records.push_back(record(i, 8, 2.0 + 0.001 * i));
  const VariabilityReport report = detect_variability(records);
  ASSERT_EQ(report.groups.size(), 2u);
  const auto noisy = report.noisy_groups();
  ASSERT_EQ(noisy.size(), 1u);
  EXPECT_GT(noisy[0]->relative_mad, 0.05);
  EXPECT_FALSE(report.summary().empty());
}

TEST(Variability, FailedRecordsAreIgnored) {
  std::vector<Json> records;
  records.push_back(record(1, 4, 1.0));
  records.push_back(record(2, 4, std::numeric_limits<double>::quiet_NaN()));
  records.push_back(record(3, 4, 1.01));
  const VariabilityReport report = detect_variability(records);
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_EQ(report.groups[0].outputs.size(), 2u);
}

TEST(Variability, DifferentEnvironmentsAreDifferentGroups) {
  std::vector<Json> records = {record(1, 4, 1.0), record(2, 4, 1.0)};
  records.push_back(record(3, 4, 5.0));
  records.back()["machine_configuration"] =
      Json::parse(R"({"machine_name":"Summit"})");
  records.push_back(record(4, 4, 5.1));
  records.back()["machine_configuration"] =
      Json::parse(R"({"machine_name":"Summit"})");
  const VariabilityReport report = detect_variability(records);
  // Two groups: Cori (1.0, 1.0) and Summit (5.0, 5.1); the 5x difference
  // across machines is NOT variability.
  ASSERT_EQ(report.groups.size(), 2u);
  EXPECT_EQ(report.total_outliers(), 0u);
}

TEST(Variability, MinRepeatsOption) {
  std::vector<Json> records = {record(1, 4, 1.0), record(2, 4, 1.1),
                               record(3, 4, 1.2)};
  VariabilityOptions opts;
  opts.min_repeats = 4;
  EXPECT_TRUE(detect_variability(records, opts).groups.empty());
}

TEST(Variability, EndToEndThroughSharedRepo) {
  SharedRepo repo(3);
  const std::string key = repo.register_user("carol", "c@x.y");
  for (int i = 0; i < 6; ++i) {
    EvalUpload e;
    e.task_parameters = Json::parse(R"({"m":1000})");
    e.tuning_parameters = Json::parse(R"({"mb":4})");
    e.output = i == 5 ? 50.0 : 1.0 + 0.01 * i;  // one spike
    repo.upload_batch(key, "demo", {e});
  }
  MetaDescription meta;
  meta.api_key = key;
  meta.tuning_problem_name = "demo";
  const VariabilityReport report =
      detect_variability(repo.query_function_evaluations(meta));
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_EQ(report.total_outliers(), 1u);
}

}  // namespace
}  // namespace gptc::crowd
