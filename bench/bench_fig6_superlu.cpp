// Table IV + Figure 6: sensitivity analysis and reduced-space tuning of
// SuperLU_DIST on 4 Cori Haswell nodes.
//
// Table IV: Sobol S1/ST of [COLPERM, LOOKAHEAD, nprows, NSUP, NREL] from
// 500 samples on the Si5H12-like matrix. Expected shape: COLPERM dominant,
// nprows second, NSUP moderate, LOOKAHEAD/NREL weak.
//
// Fig. 6: tune the H2O-like matrix (same sparsity family) on the original
// 5-parameter space vs the reduced space that freezes LOOKAHEAD and NREL
// at their defaults (10 and 20). Paper: 1.17x better at 10 evaluations.
//
//   $ ./bench_fig6_superlu [--only=table|figure] [--seeds=3] [--budget=10]
#include "apps/superlu.hpp"
#include "bench_common.hpp"
#include "gp/lcm.hpp"
#include "sa/sobol.hpp"

using namespace gptc;
using bench::BenchConfig;

int main(int argc, char** argv) {
  BenchConfig config = BenchConfig::parse(argc, argv);
  if (config.budget == 20) config.budget = 10;

  hpcsim::Allocation alloc;
  alloc.machine = hpcsim::MachineModel::cori_haswell();
  alloc.nodes = 4;
  alloc.ranks_per_node = 32;
  const auto problem = apps::make_superlu_problem(alloc);
  const space::Config si5h12 = {space::Value("si5h12")};
  const space::Config h2o = {space::Value("h2o")};

  if (config.only.empty() || config.only == "table") {
    const int n_samples = config.full ? 500 : 300;
    std::printf("Table IV: %d samples on the Si5H12-like matrix...\n",
                n_samples);
    const core::TaskHistory samples =
        core::collect_random_samples(problem, si5h12, n_samples, 99);
    core::TrainingData data = samples.valid_data(problem.param_space);
    gp::LcmOptions gp_options;
    gp_options.max_samples_per_task = 250;
    rng::Rng fit_rng(2);
    const gp::SurrogatePtr surrogate = gp::fit_single_task(
        problem.param_space.dim(), {std::move(data.x), std::move(data.y)},
        gp_options, fit_rng);

    sa::SobolOptions sa_options;
    sa_options.base_samples = config.full ? 1024 : 512;
    rng::Rng sa_rng(3);
    const sa::SobolResult result = sa::analyze_surrogate(
        *surrogate, problem.param_space, sa_rng, sa_options);
    std::printf("\n== Table IV: SuperLU_DIST Sobol indices (Si5H12) ==\n%s\n",
                result.to_table().c_str());
    std::printf("paper shape: COLPERM highest, then nprows; NSUP moderate; "
                "LOOKAHEAD and NREL low\n");
  }

  if (config.only.empty() || config.only == "figure") {
    // Reduced problem: tune COLPERM, nprows, NSUP; freeze LOOKAHEAD=10,
    // NREL=20 (the library defaults, as in the paper).
    json::Json frozen = json::Json::object();
    frozen["LOOKAHEAD"] = std::int64_t{10};
    frozen["NREL"] = std::int64_t{20};
    const space::TuningProblem reduced = sa::reduce_problem(
        problem, {"COLPERM", "nprows", "NSUP"}, frozen);

    const std::vector<core::TlaKind> tuner = {core::TlaKind::NoTLA};
    const auto full_series = bench::run_comparison(
        problem, h2o, {}, tuner, config, /*seed_base=*/6100);
    const auto reduced_series = bench::run_comparison(
        reduced, h2o, {}, tuner, config, /*seed_base=*/6100);

    std::printf("\n== Fig. 6: SuperLU_DIST tuning on H2O (mean best-so-far) ==\n");
    std::printf("%5s  %14s  %14s\n", "eval", "original(5p)", "reduced(3p)");
    for (int i = 0; i < config.budget; ++i) {
      const auto& f = full_series.at(core::TlaKind::NoTLA);
      const auto& r = reduced_series.at(core::TlaKind::NoTLA);
      std::printf("%5d  %7.4g +-%5.2g  %7.4g +-%5.2g\n", i + 1,
                  f.mean[static_cast<std::size_t>(i)],
                  f.stddev[static_cast<std::size_t>(i)],
                  r.mean[static_cast<std::size_t>(i)],
                  r.stddev[static_cast<std::size_t>(i)]);
    }
    const auto at = static_cast<std::size_t>(config.budget - 1);
    const double vf = full_series.at(core::TlaKind::NoTLA).mean[at];
    const double vr = reduced_series.at(core::TlaKind::NoTLA).mean[at];
    std::printf(
        "headline [fig6] at eval %d: reduced %.4g vs original %.4g -> %.2fx "
        "(%.1f%% improvement; paper: 1.17x)\n",
        config.budget, vr, vf, vf / vr, 100.0 * (vf - vr) / vf);
  }
  return 0;
}
