// Shared harness for the figure/table benchmarks.
//
// Each bench binary reproduces one figure or table of the paper: it runs a
// set of tuners over a transfer scenario for several seeds and prints the
// paper's series — mean and standard deviation of the best-so-far output
// per function evaluation — as an aligned table plus the headline ratios
// the paper quotes.
//
// Flags (shared by every bench): --seeds=N --budget=N --fast --full
// `--fast` shrinks model-fit budgets for smoke runs; `--full` uses the
// paper's sample counts everywhere (slower).
#pragma once

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/tuner.hpp"

namespace gptc::bench {

struct BenchConfig {
  int seeds = 3;
  int budget = 20;
  bool fast = false;
  bool full = false;
  std::string only;  // run a single scenario / table selector

  static BenchConfig parse(int argc, char** argv) {
    BenchConfig c;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--seeds=", 0) == 0) c.seeds = std::stoi(arg.substr(8));
      else if (arg.rfind("--budget=", 0) == 0)
        c.budget = std::stoi(arg.substr(9));
      else if (arg == "--fast") c.fast = true;
      else if (arg == "--full") c.full = true;
      else if (arg.rfind("--only=", 0) == 0) c.only = arg.substr(7);
      else if (arg == "--help") {
        std::printf(
            "flags: --seeds=N --budget=N --fast --full --only=<scenario>\n");
        std::exit(0);
      }
    }
    return c;
  }

  /// Tuner options tuned for bench throughput (or fidelity with --full).
  core::TunerOptions tuner_options(core::TlaKind kind,
                                   std::uint64_t seed) const {
    core::TunerOptions o;
    o.budget = budget;
    o.algorithm = kind;
    o.seed = seed;
    if (fast) {
      o.tla.lcm.fit_restarts = 0;
      o.tla.lcm.max_samples_per_task = 40;
      o.tla.max_source_samples = 60;
      o.tla.acquisition.de_population = 16;
      o.tla.acquisition.de_generations = 15;
    } else if (!full) {
      o.tla.lcm.fit_restarts = 0;
      o.tla.lcm.max_samples_per_task = 80;
      o.tla.max_source_samples = 100;
    }
    return o;
  }
};

/// mean/std series of best-so-far values for one tuner (NaN-aware: failed
/// prefixes are skipped, like the paper's Fig. 5(c) plots).
struct Series {
  std::vector<double> mean;
  std::vector<double> stddev;
};

/// Runs `kinds` x `seeds` tuning runs and aggregates best-so-far series.
inline std::map<core::TlaKind, Series> run_comparison(
    const space::TuningProblem& problem, const space::Config& target_task,
    const std::vector<core::TaskHistory>& sources,
    const std::vector<core::TlaKind>& kinds, const BenchConfig& config,
    std::uint64_t seed_base = 1000) {
  std::map<core::TlaKind, Series> result;
  for (const core::TlaKind kind : kinds) {
    std::vector<std::vector<double>> runs;
    for (int s = 0; s < config.seeds; ++s) {
      const auto options =
          config.tuner_options(kind, seed_base + static_cast<std::uint64_t>(s));
      const core::TuningResult r =
          core::Tuner(problem, options).tune(target_task, sources);
      runs.push_back(r.best_so_far);
      std::fprintf(stderr, "  %-22s seed %d/%d best %.4g\n",
                   std::string(core::to_string(kind)).c_str(), s + 1,
                   config.seeds,
                   r.best_output() ? *r.best_output()
                                   : std::numeric_limits<double>::quiet_NaN());
    }
    Series series;
    for (int i = 0; i < config.budget; ++i) {
      double sum = 0.0, sum2 = 0.0;
      int n = 0;
      for (const auto& run : runs) {
        const double v = run[static_cast<std::size_t>(i)];
        if (!std::isfinite(v)) continue;  // all-failed prefix: skip
        sum += v;
        sum2 += v * v;
        ++n;
      }
      if (n == 0) {
        series.mean.push_back(std::numeric_limits<double>::quiet_NaN());
        series.stddev.push_back(0.0);
      } else {
        const double m = sum / n;
        series.mean.push_back(m);
        series.stddev.push_back(std::sqrt(std::max(sum2 / n - m * m, 0.0)));
      }
    }
    result[kind] = series;
  }
  return result;
}

/// Prints the aggregated series as the paper's figure data: one row per
/// evaluation count, one column pair (mean, std) per tuner. Means print at
/// round-trip precision (%.17g), so runs whose means differ in any bit
/// print differently and bench/ablation_verdict.py ranks them apart.
inline void print_series_table(
    const std::string& title,
    const std::map<core::TlaKind, Series>& series) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%5s", "eval");
  for (const auto& [kind, s] : series) {
    (void)s;
    std::printf("  %33s", std::string(core::to_string(kind)).c_str());
  }
  std::printf("\n");
  const std::size_t budget =
      series.empty() ? 0 : series.begin()->second.mean.size();
  for (std::size_t i = 0; i < budget; ++i) {
    std::printf("%5zu", i + 1);
    for (const auto& [kind, s] : series) {
      (void)kind;
      if (std::isfinite(s.mean[i]))
        std::printf("  %24.17g +-%6.2g", s.mean[i], s.stddev[i]);
      else
        std::printf("  %33s", "-");
    }
    std::printf("\n");
  }
}

/// Prints the paper's headline comparison: mean best at evaluation `at`
/// for `better` vs `baseline` ("X.XXx speedup, YY.Y% improvement").
inline void print_headline(const std::map<core::TlaKind, Series>& series,
                           core::TlaKind better, core::TlaKind baseline,
                           int at, const char* what) {
  const auto b = series.find(better);
  const auto n = series.find(baseline);
  if (b == series.end() || n == series.end()) return;
  const auto idx = static_cast<std::size_t>(at - 1);
  if (idx >= b->second.mean.size()) return;
  const double vb = b->second.mean[idx];
  const double vn = n->second.mean[idx];
  if (!std::isfinite(vb) || !std::isfinite(vn) || vb <= 0.0) return;
  std::printf(
      "headline [%s] at eval %d: %s %.4g vs %s %.4g -> %.2fx (%.1f%% "
      "improvement)\n",
      what, at, std::string(core::to_string(better)).c_str(), vb,
      std::string(core::to_string(baseline)).c_str(), vn, vn / vb,
      100.0 * (vn - vb) / vn);
}

}  // namespace gptc::bench
