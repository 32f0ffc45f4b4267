// Acquisition functions and the acquisition-search step of the BO loop.
//
// All tuning problems in the paper are minimization problems (runtime), so
// Expected Improvement is defined with respect to the incumbent minimum.
// The acquisition is maximized over the encoded unit cube with differential
// evolution seeded by random points plus the incumbent, then snapped back to
// a valid configuration by Space::decode.
#pragma once

#include <memory>

#include "gp/surrogate.hpp"
#include "la/matrix.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"

namespace gptc::core {

/// Standard normal density.
double normal_pdf(double z);

/// Standard normal CDF (via erf).
double normal_cdf(double z);

/// Expected improvement below `best` for a minimization problem.
/// Returns 0 when the predictive stddev collapses.
double expected_improvement(const gp::Prediction& p, double best);

struct AcquisitionOptions {
  int de_population = 24;
  int de_generations = 30;
  /// Each DE generation is predicted in contiguous chunks, one per worker
  /// of this pool, concurrently (null = one chunk, serially); the proposed
  /// point is bitwise identical for any pool size.
  std::shared_ptr<parallel::ThreadPool> pool;
};

/// Maximizes EI(surrogate, best) over [0,1]^dim. `seeds` (e.g. the incumbent
/// best point) are injected into the search population.
la::Vector maximize_ei(const gp::Surrogate& surrogate, double best,
                       rng::Rng& rng, const std::vector<la::Vector>& seeds = {},
                       const AcquisitionOptions& options = {});

/// Minimizes the surrogate posterior mean over [0,1]^dim — the proposal rule
/// used for the very first target evaluation, when there is no incumbent
/// (paper Sec. VI-A uses WeightedSum(equal)'s model for evaluation 1).
la::Vector minimize_mean(const gp::Surrogate& surrogate, rng::Rng& rng,
                         const std::vector<la::Vector>& seeds = {},
                         const AcquisitionOptions& options = {});

}  // namespace gptc::core
