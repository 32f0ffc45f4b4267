// Table V + Figure 7: sensitivity analysis and reduced-space tuning of
// Hypre (GMRES + BoomerAMG) on one Cori Haswell node, nx=ny=nz=100.
//
// Table V: Sobol S1/ST of the 12-parameter space from 1000 pre-collected
// samples. Expected shape: smooth_type / agg_num_levels /
// smooth_num_levels on top; Px, strong_threshold, trunc_factor,
// P_max_elmts, coarsen_type, relax_type, interp_type near zero.
//
// Fig. 7: tune with 20 evaluations on the reduced space — the 3 most
// sensitive parameters [smooth_type, smooth_num_levels, agg_num_levels] —
// freezing the parameters with known defaults and fixing Px/Py/Nproc at
// random values (their defaults are unknown, as in the paper). Paper:
// 1.35x better at 10 evaluations.
//
//   $ ./bench_fig7_hypre [--only=table|figure] [--seeds=5] [--budget=20]
#include "apps/hypre.hpp"
#include "bench_common.hpp"
#include "gp/lcm.hpp"
#include "sa/sobol.hpp"

using namespace gptc;
using bench::BenchConfig;

int main(int argc, char** argv) {
  BenchConfig config = BenchConfig::parse(argc, argv);

  const auto machine = hpcsim::MachineModel::cori_haswell();
  const auto problem = apps::make_hypre_problem(machine);
  const space::Config task = {space::Value(std::int64_t{100}),
                              space::Value(std::int64_t{100}),
                              space::Value(std::int64_t{100})};

  if (config.only.empty() || config.only == "table") {
    const int n_samples = config.full ? 1000 : 500;
    std::printf("Table V: %d samples on nx=ny=nz=100...\n", n_samples);
    const core::TaskHistory samples =
        core::collect_random_samples(problem, task, n_samples, 111);
    core::TrainingData data = samples.valid_data(problem.param_space);
    // ~450 GP training points is where the surrogate's Sobol ranking of
    // this 12-parameter space becomes stable (O(n^3) fit above that).
    gp::LcmOptions gp_options;
    gp_options.max_samples_per_task = 450;
    rng::Rng fit_rng(2);
    const gp::SurrogatePtr surrogate = gp::fit_single_task(
        problem.param_space.dim(), {std::move(data.x), std::move(data.y)},
        gp_options, fit_rng);

    sa::SobolOptions sa_options;
    sa_options.base_samples = config.full ? 1024 : 512;
    rng::Rng sa_rng(3);
    const sa::SobolResult result = sa::analyze_surrogate(
        *surrogate, problem.param_space, sa_rng, sa_options);
    std::printf("\n== Table V: Hypre Sobol indices (nx=ny=nz=100) ==\n%s\n",
                result.to_table().c_str());
    std::printf(
        "paper shape: smooth_type (S1 .11/ST .71), agg_num_levels "
        "(.11/.56),\n  smooth_num_levels (.05/.35) on top; Px, thresholds, "
        "coarsen/relax/interp ~0\n");
  }

  if (config.only.empty() || config.only == "figure") {
    json::Json frozen = json::Json::parse(R"({
      "strong_threshold": 0.25, "trunc_factor": 0.0, "P_max_elmts": 4,
      "coarsen_type": "Falgout", "relax_type": "hybrid-GS",
      "interp_type": "classical"
    })");
    // Px, Py, Nproc are intentionally NOT frozen: reduce_problem fixes them
    // at random values (paper Fig. 7 caption).
    const space::TuningProblem reduced = sa::reduce_problem(
        problem, {"smooth_type", "smooth_num_levels", "agg_num_levels"},
        frozen, /*seed=*/12);

    const std::vector<core::TlaKind> tuner = {core::TlaKind::NoTLA};
    const auto full_series = bench::run_comparison(
        problem, task, {}, tuner, config, /*seed_base=*/7100);
    const auto reduced_series = bench::run_comparison(
        reduced, task, {}, tuner, config, /*seed_base=*/7100);

    std::printf("\n== Fig. 7: Hypre tuning (mean best-so-far) ==\n");
    std::printf("%5s  %15s  %14s\n", "eval", "original(12p)", "reduced(3p)");
    for (int i = 0; i < config.budget; ++i) {
      const auto& f = full_series.at(core::TlaKind::NoTLA);
      const auto& r = reduced_series.at(core::TlaKind::NoTLA);
      std::printf("%5d  %8.4g +-%5.2g  %7.4g +-%5.2g\n", i + 1,
                  f.mean[static_cast<std::size_t>(i)],
                  f.stddev[static_cast<std::size_t>(i)],
                  r.mean[static_cast<std::size_t>(i)],
                  r.stddev[static_cast<std::size_t>(i)]);
    }
    const auto at = static_cast<std::size_t>(std::min(config.budget, 10) - 1);
    const double vf = full_series.at(core::TlaKind::NoTLA).mean[at];
    const double vr = reduced_series.at(core::TlaKind::NoTLA).mean[at];
    std::printf(
        "headline [fig7] at eval %zu: reduced %.4g vs original %.4g -> "
        "%.2fx (%.1f%% improvement; paper: 1.35x)\n",
        at + 1, vr, vf, vf / vr, 100.0 * (vf - vr) / vf);
  }
  return 0;
}
