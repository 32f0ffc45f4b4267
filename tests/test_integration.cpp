// End-to-end integration test: the full crowd-tuning workflow of Fig. 1
// across modules — simulate apps -> upload with environment metadata into
// a durable repository -> reopen it -> query via meta description -> feed
// the TLA tuner -> sync new evaluations back.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "apps/pdgeqrf.hpp"
#include "core/tuner.hpp"
#include "crowd/analytics.hpp"
#include "crowd/envparse.hpp"
#include "crowd/repo.hpp"

namespace gptc {
namespace {

using json::Json;
using space::Config;
using space::Value;

class CrowdWorkflowTest : public ::testing::Test {
 protected:
  CrowdWorkflowTest()
      : machine_(hpcsim::MachineModel::cori_haswell()),
        problem_(apps::make_pdgeqrf_problem(machine_, 8)),
        dir_(std::filesystem::temp_directory_path() / "gptc_workflow") {
    std::filesystem::remove_all(dir_);
  }
  ~CrowdWorkflowTest() override { std::filesystem::remove_all(dir_); }

  crowd::MetaDescription make_meta(const std::string& key) const {
    crowd::MetaDescription meta;
    meta.api_key = key;
    meta.tuning_problem_name = "pdgeqrf";
    meta.input_space = problem_.task_space;
    meta.parameter_space = problem_.param_space;
    crowd::MachineFilter f;
    f.machine_name = "Cori";
    f.partition = "haswell";
    meta.machine_filters.push_back(f);
    return meta;
  }

  void upload_history(crowd::SharedRepo& repo, const std::string& key,
                      const Config& task, const core::TaskHistory& history) {
    const Json machine_config = crowd::parse_slurm_env({
        {"SLURM_CLUSTER_NAME", "cori"},
        {"SLURM_JOB_PARTITION", "haswell"},
        {"SLURM_JOB_NUM_NODES", "8"},
        {"SLURM_CPUS_ON_NODE", "32"},
    });
    const Json software =
        crowd::parse_spack_manifest("scalapack@2.1.0%gcc@8.3.0\n");
    for (const auto& eval : history.evals()) {
      crowd::EvalUpload upload;
      upload.task_parameters = problem_.task_space.config_to_json(task);
      upload.tuning_parameters =
          problem_.param_space.config_to_json(eval.params);
      upload.output = eval.output;
      upload.machine_configuration = machine_config;
      upload.software_configuration = software;
      repo.upload_batch(key, "pdgeqrf", {upload});
    }
  }

  hpcsim::MachineModel machine_;
  space::TuningProblem problem_;
  std::filesystem::path dir_;
};

TEST_F(CrowdWorkflowTest, FullRoundTrip) {
  const Config source_task = {Value(std::int64_t{10000}),
                              Value(std::int64_t{10000})};
  const Config target_task = {Value(std::int64_t{13000}),
                              Value(std::int64_t{13000})};

  // --- Phase 1: Alice contributes crowd data and the repo is persisted ----
  std::string alice_key;
  {
    crowd::SharedRepo repo = crowd::SharedRepo::open_durable(dir_, 42);
    alice_key = repo.register_user("alice", "alice@lab.gov");
    const core::TaskHistory samples =
        core::collect_random_samples(problem_, source_task, 50, 9);
    upload_history(repo, alice_key, source_task, samples);
    ASSERT_EQ(repo.num_records("pdgeqrf"), 50u);
    repo.sync();
  }

  // --- Phase 2: Bob reopens the repo, queries, and tunes with TLA ----------
  crowd::SharedRepo repo = crowd::SharedRepo::open_durable(dir_);
  EXPECT_EQ(repo.authenticate_user(alice_key).value().username(), "alice");
  const std::string bob_key = repo.register_user("bob", "bob@uni.edu");

  const crowd::MetaDescription meta = make_meta(bob_key);
  const auto records = repo.query_function_evaluations(meta);
  EXPECT_EQ(records.size(), 50u);
  // Tag normalization happened on upload ("cori" -> "Cori").
  EXPECT_EQ(records[0]
                .at("machine_configuration")
                .at("machine_name")
                .as_string(),
            "Cori");

  const auto sources = crowd::source_histories(records, meta);
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(sources[0].num_valid(), 50u);

  core::TunerOptions options;
  options.budget = 6;
  options.algorithm = core::TlaKind::EnsembleProposed;
  options.seed = 5;
  options.tla.lcm.max_samples_per_task = 40;
  options.tla.max_source_samples = 40;
  const core::TuningResult result =
      core::Tuner(problem_, options).tune(target_task, sources);
  ASSERT_TRUE(result.best_output().has_value());
  EXPECT_TRUE(std::isfinite(*result.best_output()));
  EXPECT_EQ(result.proposed_by.front(), "WeightedSum(equal)");

  // --- Phase 3: Bob syncs his new evaluations back --------------------------
  upload_history(repo, bob_key, target_task, result.history);
  EXPECT_EQ(repo.num_records("pdgeqrf"), 56u);
  const crowd::MetaDescription synced = make_meta(bob_key);
  const auto merged = repo.query_function_evaluations(synced);
  const auto histories = crowd::source_histories(merged, synced);
  ASSERT_EQ(histories.size(), 2u);  // two tasks in the crowd now
  EXPECT_EQ(histories[0].num_valid(), 50u);

  // The surrogate utilities work on the merged crowd data.
  const auto surrogate = crowd::fit_surrogate(merged, synced, 3);
  EXPECT_EQ(surrogate->dim(), problem_.param_space.dim());
}

TEST_F(CrowdWorkflowTest, AccessControlSurvivesPersistence) {
  std::string alice_key, bob_key;
  {
    crowd::SharedRepo repo = crowd::SharedRepo::open_durable(dir_, 43);
    alice_key = repo.register_user("alice", "a@x");
    bob_key = repo.register_user("bob", "b@x");
    const Config task = {Value(std::int64_t{10000}),
                         Value(std::int64_t{10000})};
    crowd::EvalUpload priv;
    priv.task_parameters = problem_.task_space.config_to_json(task);
    // Note lg2npernode in [0, 5) per Table II: 4 is the maximum.
    priv.tuning_parameters = problem_.param_space.config_to_json(
        {Value(std::int64_t{4}), Value(std::int64_t{4}),
         Value(std::int64_t{4}), Value(std::int64_t{16})});
    priv.output = 1.0;
    priv.machine_configuration = machine_.machine_configuration(8);
    priv.accessibility.level = crowd::Accessibility::Level::Private;
    repo.upload_batch(alice_key, "pdgeqrf", {priv});
    repo.sync();
  }
  const crowd::SharedRepo repo = crowd::SharedRepo::open_durable(dir_);
  EXPECT_EQ(repo.query_function_evaluations(make_meta(alice_key)).size(), 1u);
  EXPECT_EQ(repo.query_function_evaluations(make_meta(bob_key)).size(), 0u);
}

}  // namespace
}  // namespace gptc
