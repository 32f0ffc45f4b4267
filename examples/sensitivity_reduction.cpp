// Sensitivity-driven search-space reduction on Hypre (paper Sec. VI-E).
//
// Runs a Sobol analysis on a surrogate trained from pre-collected samples
// of the 12-parameter Hypre tuning problem, picks the most influential
// parameters, and compares tuning on the reduced space against the
// original space with the same small budget.
//
//   $ ./sensitivity_reduction
#include <cstdio>

#include "apps/hypre.hpp"
#include "core/tuner.hpp"
#include "gp/lcm.hpp"
#include "sa/sobol.hpp"

using namespace gptc;

int main() {
  const auto machine = hpcsim::MachineModel::cori_haswell();
  const space::TuningProblem problem = apps::make_hypre_problem(machine);
  const space::Config task = {space::Value(std::int64_t{100}),
                              space::Value(std::int64_t{100}),
                              space::Value(std::int64_t{100})};

  // Pre-collected crowd data: 450 random samples on nx=ny=nz=100 (the
  // paper uses 1000; ~450 is where the surrogate's Sobol ranking becomes
  // stable on this 12-parameter mixed space).
  std::printf("Collecting 450 samples of the 12-parameter space...\n");
  const core::TaskHistory samples =
      core::collect_random_samples(problem, task, 450, /*seed=*/21);

  // Fit a surrogate and run the Sobol analysis on it.
  core::TrainingData data = samples.valid_data(problem.param_space);
  gp::LcmOptions gp_options;
  gp_options.max_samples_per_task = 450;  // fit on every sample
  rng::Rng fit_rng(5);
  const gp::SurrogatePtr surrogate = gp::fit_single_task(
      problem.param_space.dim(), {std::move(data.x), std::move(data.y)},
      gp_options, fit_rng);

  sa::SobolOptions sa_options;
  sa_options.base_samples = 512;
  rng::Rng sa_rng(6);
  const sa::SobolResult sens =
      sa::analyze_surrogate(*surrogate, problem.param_space, sa_rng, sa_options);
  std::printf("\nSobol indices (surrogate, 450 samples):\n%s\n",
              sens.to_table().c_str());

  // Keep the three most sensitive parameters (the paper keeps smooth_type,
  // smooth_num_levels, agg_num_levels).
  const auto ranked = sens.ranked_by_total_effect();
  std::vector<std::string> keep;
  for (std::size_t i = 0; i < 3; ++i) keep.push_back(sens.names[ranked[i]]);
  std::printf("Keeping: %s, %s, %s\n\n", keep[0].c_str(), keep[1].c_str(),
              keep[2].c_str());

  // Freeze known defaults; everything else gets a fixed random value.
  json::Json frozen = json::Json::parse(R"({
    "strong_threshold": 0.25, "trunc_factor": 0.0, "P_max_elmts": 4,
    "coarsen_type": "Falgout", "relax_type": "hybrid-GS",
    "interp_type": "classical"
  })");
  const space::TuningProblem reduced =
      sa::reduce_problem(problem, keep, frozen, /*seed=*/3);

  // Same budget on both spaces.
  for (const auto* label : {"original", "reduced"}) {
    const space::TuningProblem& p =
        std::string(label) == "original" ? problem : reduced;
    double sum = 0.0;
    const int kSeeds = 3;
    for (int s = 0; s < kSeeds; ++s) {
      core::TunerOptions options;
      options.budget = 10;
      options.algorithm = core::TlaKind::NoTLA;
      options.seed = 100 + static_cast<std::uint64_t>(s);
      sum += core::Tuner(p, options).tune(task).best_output().value();
    }
    std::printf("%-8s space (%2zu params): mean best over %d seeds = %.4f s\n",
                label, p.param_space.dim(), kSeeds, sum / kSeeds);
  }
  std::printf(
      "\nWith a 10-evaluation budget, concentrating the search on the\n"
      "sensitive parameters finds better configurations (paper Fig. 7).\n");
  return 0;
}
