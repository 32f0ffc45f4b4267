// Variance-based global sensitivity analysis (paper Sec. IV-B).
//
// GPTuneCrowd's QuerySensitivityAnalysis trains a surrogate on crowd data
// and runs a Sobol analysis on it (via SALib in the paper). This module is
// the SALib-equivalent: a Saltelli sample design over the encoded parameter
// space and the standard first-order (S1, Saltelli 2010) and total-effect
// (ST, Jansen 1999) estimators with bootstrap confidence intervals — the
// same estimators SALib's `sobol.analyze` implements.
//
// Discrete parameters are handled by snapping each unit-cube sample through
// Space::decode/encode before evaluation, so the indices reflect the
// parameter's actual (quantized) effect — e.g. Hypre's categorical
// smoother choices.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gp/surrogate.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "space/space.hpp"

namespace gptc::sa {

struct SobolOptions {
  /// Base sample count N; total model evaluations are N * (dim + 2).
  std::size_t base_samples = 512;
  /// Bootstrap resamples for the confidence intervals.
  int bootstrap = 100;
  /// Saltelli-design rows (the N * (dim + 2) model evaluations) run
  /// concurrently on this pool (null = serial). The analyzed function must
  /// then be thread-safe — surrogate predictions are; arbitrary CubeFns
  /// must be pure. Indices are bitwise identical for any pool size.
  std::shared_ptr<parallel::ThreadPool> pool;
};

/// Per-parameter Sobol indices, in the parameter order of the analyzed
/// space/function. Mirrors the columns of the paper's Tables IV and V.
struct SobolResult {
  std::vector<std::string> names;
  la::Vector s1;        // first-order (main effect) index
  la::Vector s1_conf;   // bootstrap 95% confidence radius (1.96 sigma)
  la::Vector st;        // total-effect index
  la::Vector st_conf;

  std::size_t dim() const { return names.size(); }

  /// Indices of parameters ranked by descending total effect.
  std::vector<std::size_t> ranked_by_total_effect() const;

  /// Parameters whose S1 or ST exceeds the thresholds — the paper's rule
  /// for picking what to keep tuning (e.g. Hypre keeps ST >= 0.3).
  std::vector<std::string> influential(double s1_threshold,
                                       double st_threshold) const;

  /// Formats an aligned table like Table IV/V.
  std::string to_table() const;
};

/// A real-valued function of an encoded (unit-cube) point.
using CubeFn = std::function<double(const la::Vector&)>;

/// Sobol analysis of an arbitrary function over [0,1]^dim (no snapping).
/// Used for estimator validation against analytic test functions.
SobolResult analyze_function(const CubeFn& f, std::size_t dim,
                             std::vector<std::string> names, rng::Rng& rng,
                             const SobolOptions& options = {});

/// Sobol analysis of a surrogate's predictive mean over a parameter space,
/// with unit-cube samples snapped to valid configurations.
SobolResult analyze_surrogate(const gp::Surrogate& model,
                              const space::Space& space, rng::Rng& rng,
                              const SobolOptions& options = {});

/// Builds the reduced tuning problem of the paper's Sec. VI-D/E: keeps only
/// `keep` parameters tunable and freezes every other parameter at the value
/// given in `frozen` (an object {"name": value, ...}). Parameters that are
/// neither kept nor frozen are fixed at a uniformly random value drawn once
/// at construction (the paper does this for Hypre's Px/Py/Nproc, whose
/// defaults are unknown), using a deterministic stream derived from `seed`.
space::TuningProblem reduce_problem(const space::TuningProblem& problem,
                                    const std::vector<std::string>& keep,
                                    const json::Json& frozen,
                                    std::uint64_t seed = 0);

}  // namespace gptc::sa
