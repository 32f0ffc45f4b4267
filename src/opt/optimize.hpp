// Local and global optimizers and space-filling samplers.
//
// Two very different optimization jobs live in the tuner:
//   1. Surrogate hyperparameter fitting — smooth, low-dimensional, expensive
//      objective (log marginal likelihood): multistart L-BFGS on the
//      analytic gradient, for the LCM and for the single-task GP (the
//      one-task LCM) alike.
//   2. Acquisition maximization over the (encoded) unit cube — cheap,
//      multimodal objective with plateaus from integer/categorical
//      encoding: differential evolution over random points plus the
//      incumbent, whose winner is the proposal, evaluated one generation
//      at a time so the surrogate can predict a population at once.
// Plus the space-filling designs used for initial samples and for the
// Saltelli sensitivity design (Latin hypercube, scrambled Halton).
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <span>

#include "la/matrix.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"

namespace gptc::opt {

/// Objective value f(x) for L-BFGS to minimize.
using ObjectiveFn = std::function<double(const la::Vector&)>;

/// Writes into `grad` (already sized like x) the gradient of f at the point
/// of the most recent ObjectiveFn call.
using GradientFn = std::function<void(la::Vector& grad)>;

/// One generation of differential evolution at a time: writes f(x[i]) to
/// out[i] for every point of the span. out[i] must depend on x[i] alone,
/// not on the span's other points or its length.
using GenerationFn =
    std::function<void(std::span<const la::Vector> x, std::span<double> out)>;

struct Result {
  la::Vector x;
  double value = std::numeric_limits<double>::infinity();
  int evaluations = 0;
};

/// Limited-memory BFGS from `start` with a budget of evaluations of f,
/// line-search trials included: a history of 6 curvature pairs, two-loop
/// recursion and a backtracking (halving) Armijo line search. The gradient
/// is asked for only at the start and at a trial that passes the Armijo
/// test, right after f at that point; a rejected trial costs f alone, and
/// gradients are not counted as evaluations. The first step, and any step
/// after the history stops giving a descent direction, is steepest descent
/// of length 1. A point where f is non-finite or DBL_MAX (the convention
/// for a failed likelihood), or where the gradient has a non-finite entry,
/// is never accepted: the line search backtracks past it. Stops on the
/// budget, on max_i |g_i| < 1e-5, or on a step whose relative decrease is
/// below 1e-10. Deterministic: no clock, no randomness.
Result lbfgs(const ObjectiveFn& f, const GradientFn& gradient,
             const la::Vector& start, int max_evaluations);

/// Runs `run(i)` for every start index i < num_starts — concurrently on
/// `pool` when one is given — and returns the best result, with
/// evaluations summed over all runs. Ties on the value resolve to the
/// lowest start index, so the winner does not depend on the order in which
/// the runs execute (or on the pool size).
Result multistart(parallel::ThreadPool* pool, std::size_t num_starts,
                  const std::function<Result(std::size_t)>& run);

struct DifferentialEvolutionOptions {
  int population = 32;
  int generations = 40;
  /// Additional points injected into the initial population (e.g. the
  /// incumbent best and previously evaluated configurations).
  std::vector<la::Vector> seeds;
  /// Each generation is split into contiguous chunks, one per pool worker,
  /// evaluated concurrently (null = one chunk, serially). The objective must
  /// then be thread-safe. Results are bitwise identical for any pool size.
  std::shared_ptr<parallel::ThreadPool> pool;
};

/// Differential evolution (rand/1/bin) over the unit cube [0,1]^d, with
/// crossover rate 0.8 and differential weight 0.6.
///
/// Synchronous (generational) variant: every trial vector of a generation
/// is built from the previous generation's population before any selection
/// is applied, so a whole generation goes to `f` at once, and its chunks
/// can run in parallel without changing the result. A non-finite objective
/// value counts as DBL_MAX, so any finite point beats it.
Result differential_evolution(const GenerationFn& f, std::size_t dim,
                              rng::Rng& rng,
                              const DifferentialEvolutionOptions& options = {});

/// Latin hypercube design: n points, each of the dim coordinates stratified
/// into n equal bins with one point per bin, jittered within the bin.
std::vector<la::Vector> latin_hypercube(std::size_t n, std::size_t dim,
                                        rng::Rng& rng);

/// Deterministic low-discrepancy sequence: Halton with per-dimension
/// digit-permutation scrambling (seeded), which removes the well-known
/// correlation artifacts of plain Halton in higher dimensions. Supports up
/// to 64 dimensions. `skip` drops the first points of the sequence.
std::vector<la::Vector> scrambled_halton(std::size_t n, std::size_t dim,
                                         rng::Rng& rng, std::size_t skip = 16);

}  // namespace gptc::opt
