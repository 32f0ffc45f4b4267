// Performance-variability detection (the paper's stated future work,
// implemented in this repo): find noisy configurations and outlier
// measurements in crowd data before trusting it for transfer learning.
//
//   $ ./variability_detection
#include <cstdio>

#include "crowd/repo.hpp"
#include "crowd/variability.hpp"
#include "hpcsim/machine.hpp"

using namespace gptc;
using json::Json;

int main() {
  crowd::SharedRepo repo(7);
  const std::string key = repo.register_user("dana", "dana@hpc.org");

  // Simulate a crowd where the same configuration was measured repeatedly,
  // with one user's node suffering interference (a 6x runtime spike).
  hpcsim::Allocation alloc{hpcsim::MachineModel::cori_haswell(), 8, 32};
  rng::Rng rng(1);
  std::vector<crowd::EvalUpload> uploads;
  for (int config = 0; config < 3; ++config) {
    const double true_runtime = 1.0 + 0.8 * config;
    const int repeats = 6;
    for (int r = 0; r < repeats; ++r) {
      crowd::EvalUpload e;
      e.task_parameters = Json::parse(R"({"m":10000,"n":10000})");
      Json tuning = Json::object();
      tuning["mb"] = std::int64_t{4 + config};
      e.tuning_parameters = std::move(tuning);
      double runtime = true_runtime * rng.lognoise(0.02);
      if (config == 1 && r == 3) runtime *= 6.0;  // the interference victim
      e.output = runtime;
      e.machine_configuration = alloc.machine.machine_configuration(8);
      uploads.push_back(std::move(e));
    }
  }
  repo.upload_batch(key, "pdgeqrf", uploads);
  std::printf("Uploaded %zu records (3 configurations x 6 repeats).\n",
              repo.num_records("pdgeqrf"));

  crowd::MetaDescription meta;
  meta.api_key = key;
  meta.tuning_problem_name = "pdgeqrf";

  crowd::VariabilityOptions options;
  options.noisy_relative_mad = 0.05;
  const crowd::VariabilityReport report =
      repo.query_variability_report(meta, options);

  std::printf("\n%s\n\n", report.summary().c_str());
  for (const auto& group : report.groups) {
    std::printf("group median=%.3f s, relative MAD=%.4f%s\n", group.median,
                group.relative_mad,
                group.noisy(options.noisy_relative_mad) ? "  <-- noisy" : "");
    for (std::size_t i = 0; i < group.outputs.size(); ++i) {
      const bool outlier = std::find(group.outliers.begin(),
                                     group.outliers.end(),
                                     i) != group.outliers.end();
      std::printf("    record %lld: %.3f s%s\n",
                  static_cast<long long>(group.record_ids[i]),
                  group.outputs[i], outlier ? "  <-- OUTLIER" : "");
    }
  }
  std::printf(
      "\nDropping the flagged record ids before surrogate fitting protects\n"
      "every TLA algorithm from system-noise contamination.\n");
  return 0;
}
