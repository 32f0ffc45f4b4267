// The crowd workflow (paper Secs. III & IV): users, API keys, automatic
// environment parsing, uploads with access control, meta-description
// queries, and the analytics over the queried records (one query, one
// surrogate fit).
//
//   $ ./crowd_database
#include <cstdio>

#include "apps/pdgeqrf.hpp"
#include "core/tuner.hpp"
#include "crowd/analytics.hpp"
#include "crowd/envparse.hpp"
#include "crowd/repo.hpp"
#include "sa/sobol.hpp"

using namespace gptc;

int main() {
  crowd::SharedRepo repo(/*seed=*/2024);

  // --- Users and API keys ----------------------------------------------------
  const std::string alice_key = repo.register_user("alice", "alice@lab.gov");
  const std::string bob_key = repo.register_user("bob", "bob@uni.edu");
  std::printf("Registered alice and bob; alice's API key: %s\n",
              alice_key.c_str());

  // --- Automatic environment parsing ------------------------------------------
  const json::Json machine_config = crowd::parse_slurm_env({
      {"SLURM_CLUSTER_NAME", "cori"},     // alias: normalized to "Cori"
      {"SLURM_JOB_PARTITION", "haswell"},
      {"SLURM_JOB_NUM_NODES", "8"},
      {"SLURM_CPUS_ON_NODE", "32"},
  });
  const json::Json software_config =
      crowd::parse_spack_manifest("scalapack@2.1.0%gcc@8.3.0\n");
  std::printf("Parsed Slurm machine config: %s\n",
              machine_config.dump().c_str());

  // --- Alice uploads tuning data -----------------------------------------------
  const auto machine = hpcsim::MachineModel::cori_haswell();
  const auto problem = apps::make_pdgeqrf_problem(machine, 8);
  const space::Config task = {space::Value(std::int64_t{10000}),
                              space::Value(std::int64_t{10000})};
  const core::TaskHistory samples =
      core::collect_random_samples(problem, task, 60, /*seed=*/11);

  std::vector<crowd::EvalUpload> uploads;
  for (const auto& eval : samples.evals()) {
    crowd::EvalUpload upload;
    upload.task_parameters = problem.task_space.config_to_json(task);
    upload.tuning_parameters =
        problem.param_space.config_to_json(eval.params);
    upload.output = eval.output;
    upload.machine_configuration = machine_config;
    upload.software_configuration = software_config;
    uploads.push_back(std::move(upload));
  }
  repo.upload_batch(alice_key, "pdgeqrf", uploads);
  std::printf("Alice uploaded %zu evaluations (public).\n",
              repo.num_records("pdgeqrf"));

  // --- Bob queries with a meta description -------------------------------------
  crowd::MetaDescription meta = crowd::MetaDescription::from_json(
      json::Json::parse(R"({
        "api_key": "set-below",
        "tuning_problem_name": "pdgeqrf",
        "problem_space": {
          "input_space": [
            {"name":"m","type":"integer","lower_bound":1000,"upper_bound":20000},
            {"name":"n","type":"integer","lower_bound":1000,"upper_bound":20000}
          ],
          "parameter_space": [
            {"name":"mb","type":"integer","lower_bound":1,"upper_bound":16},
            {"name":"nb","type":"integer","lower_bound":1,"upper_bound":16},
            {"name":"lg2npernode","type":"integer","lower_bound":0,"upper_bound":5},
            {"name":"p","type":"integer","lower_bound":1,"upper_bound":256}
          ]
        },
        "configuration_space": {
          "machine_configurations": [
            {"Cori": {"haswell": {"nodes": 8, "cores": 32}}}
          ],
          "software_configurations": [
            {"gcc": {"version_from": [8,0,0], "version_to": [9,0,0]}}
          ]
        }
      })"));
  meta.api_key = bob_key;

  const auto records = repo.query_function_evaluations(meta);
  std::printf("Bob's query matched %zu records.\n", records.size());

  // --- Analytics over those records: one fit, predict, sensitivity ----------
  const std::uint64_t seed = 5;
  const auto surrogate = crowd::fit_surrogate(records, meta, seed);
  const space::Config candidate = {
      space::Value(std::int64_t{8}), space::Value(std::int64_t{8}),
      space::Value(std::int64_t{5}), space::Value(std::int64_t{16})};
  std::printf(
      "QueryPredictOutput(mb=8,nb=8,lg2npernode=5,p=16) = %.3f s\n",
      surrogate->predict(meta.parameter_space.encode(candidate)).mean);

  sa::SobolOptions sa_options;
  sa_options.base_samples = 256;
  rng::Rng sa_rng(rng::splitmix64(seed + 0x51ab1edULL));
  const sa::SobolResult sens = sa::analyze_surrogate(
      *surrogate, meta.parameter_space, sa_rng, sa_options);
  std::printf("\nQuerySensitivityAnalysis:\n%s", sens.to_table().c_str());

  // --- Crowd data feeds a transfer-learning run --------------------------------
  const auto sources = crowd::source_histories(records, meta);
  core::TunerOptions options;
  options.budget = 8;
  options.algorithm = core::TlaKind::EnsembleProposed;
  options.seed = 3;
  const space::Config target_task = {space::Value(std::int64_t{12000}),
                                     space::Value(std::int64_t{12000})};
  const auto result =
      core::Tuner(problem, options).tune(target_task, sources);
  std::printf("\nBob tunes m=n=12000 with the crowd's data: best %.3f s\n",
              result.best_output().value());
  return 0;
}
