#include "opt/optimize.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

namespace gptc::opt {

namespace {

/// Differential evolution's rand/1/bin constants: the per-coordinate
/// crossover rate and the weight of the difference vector.
constexpr double kCrossover = 0.8;
constexpr double kDifferentialWeight = 0.6;

void clamp01(la::Vector& x) {
  for (double& v : x) v = std::clamp(v, 0.0, 1.0);
}

/// f over `points` in contiguous chunks, one per worker of `pool` (one
/// chunk without a pool), with non-finite values as DBL_MAX so they cannot
/// poison the population.
std::vector<double> evaluate(const GenerationFn& f,
                             const std::vector<la::Vector>& points,
                             parallel::ThreadPool* pool) {
  std::vector<double> out(points.size());
  const std::size_t n = points.size();
  const std::size_t chunks =
      std::min(n, std::max<std::size_t>(pool ? pool->size() : 1, 1));
  parallel::parallel_for(pool, chunks, [&](std::size_t c) {
    const std::size_t begin = n * c / chunks, end = n * (c + 1) / chunks;
    f(std::span<const la::Vector>(points).subspan(begin, end - begin),
      std::span<double>(out).subspan(begin, end - begin));
  });
  for (double& v : out)
    if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  return out;
}

}  // namespace

Result multistart(parallel::ThreadPool* pool, std::size_t num_starts,
                  const std::function<Result(std::size_t)>& run) {
  if (num_starts == 0) throw std::invalid_argument("multistart: no starts");
  // Each run is independent and deterministic; they may execute
  // concurrently in any order.
  std::vector<Result> runs = parallel::parallel_map(pool, num_starts, run);
  // Reduce in fixed index order, breaking value ties toward the lowest
  // start index: the winner is a function of the runs alone, not of which
  // run happened to finish (or be scanned) last.
  Result best;
  std::size_t best_index = runs.size();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    best.evaluations += runs[i].evaluations;
    if (best_index == runs.size() || runs[i].value < best.value) {
      best.value = runs[i].value;
      best_index = i;
    }
  }
  best.x = std::move(runs[best_index].x);
  return best;
}

Result lbfgs(const ObjectiveFn& f, const GradientFn& gradient,
             const la::Vector& start, int max_evaluations) {
  const std::size_t d = start.size();
  if (d == 0) throw std::invalid_argument("lbfgs: empty start point");
  constexpr std::size_t kHistory = 6;
  constexpr double kArmijo = 1e-4;
  constexpr double kGradientTolerance = 1e-5;
  constexpr double kRelativeTolerance = 1e-10;
  constexpr double kFailed = std::numeric_limits<double>::max();

  Result result;
  const auto value = [&](const la::Vector& x) {
    ++result.evaluations;
    const double v = f(x);
    return std::isfinite(v) ? v : kFailed;
  };
  // The gradient at the last valued point; false if an entry is non-finite.
  const auto gradient_at_last = [&](la::Vector& grad) {
    gradient(grad);
    for (double gi : grad)
      if (!std::isfinite(gi)) return false;
    return true;
  };
  la::Vector g(d), g_next(d), x_next(d), dir(d);
  result.x = start;
  result.value = value(result.x);
  if (result.value == kFailed || !gradient_at_last(g)) {
    result.value = kFailed;
    return result;  // no gradient to follow
  }

  // Curvature pairs in a ring; `newest` is the most recent slot.
  std::array<la::Vector, kHistory> s, y;
  std::array<double, kHistory> rho{}, coef{};
  std::size_t stored = 0, newest = 0;
  const auto slot = [&](std::size_t age) {
    return (newest + kHistory - age) % kHistory;
  };

  while (result.evaluations < max_evaluations) {
    double gmax = 0.0;
    for (double gi : g) gmax = std::max(gmax, std::abs(gi));
    if (gmax < kGradientTolerance) break;

    // Two-loop recursion: dir = -H g, newest pair first, then oldest first.
    dir = g;
    for (std::size_t age = 0; age < stored; ++age) {
      const std::size_t k = slot(age);
      coef[k] = rho[k] * la::dot(s[k], dir);
      la::axpy(-coef[k], y[k], dir);
    }
    if (stored > 0) {
      const double gamma =
          la::dot(s[newest], y[newest]) / la::dot(y[newest], y[newest]);
      for (double& v : dir) v *= gamma;
      for (std::size_t age = stored; age-- > 0;) {
        const std::size_t k = slot(age);
        la::axpy(coef[k] - rho[k] * la::dot(y[k], dir), s[k], dir);
      }
    }
    for (double& v : dir) v = -v;
    double slope = la::dot(g, dir);
    double step = 1.0;
    if (stored == 0 || !(slope < 0.0)) {
      stored = 0;
      for (std::size_t i = 0; i < d; ++i) dir[i] = -g[i];
      slope = -la::dot(g, g);
      step = 1.0 / std::sqrt(-slope);
    }

    // Backtracking Armijo search; a failed evaluation always backtracks.
    // Only an accepted trial pays for its gradient.
    double f_next = kFailed;
    bool accepted = false;
    while (result.evaluations < max_evaluations) {
      for (std::size_t i = 0; i < d; ++i)
        x_next[i] = result.x[i] + step * dir[i];
      if (x_next == result.x) break;  // the step underflowed
      f_next = value(x_next);
      if (f_next <= result.value + kArmijo * step * slope &&
          gradient_at_last(g_next)) {
        accepted = true;
        break;
      }
      step *= 0.5;
    }
    if (!accepted) break;

    la::Vector sk = la::subtract(x_next, result.x);
    la::Vector yk = la::subtract(g_next, g);
    const double sy = la::dot(sk, yk);
    if (sy > 0.0) {  // keep H positive definite
      newest = stored == 0 ? 0 : (newest + 1) % kHistory;
      s[newest] = std::move(sk);
      y[newest] = std::move(yk);
      rho[newest] = 1.0 / sy;
      stored = std::min(stored + 1, kHistory);
    }
    const double decrease = result.value - f_next;
    const double scale =
        std::max({std::abs(result.value), std::abs(f_next), 1.0});
    std::swap(result.x, x_next);
    std::swap(g, g_next);
    result.value = f_next;
    if (decrease < kRelativeTolerance * scale) break;
  }
  return result;
}

Result differential_evolution(const GenerationFn& f, std::size_t dim,
                              rng::Rng& rng,
                              const DifferentialEvolutionOptions& options) {
  if (dim == 0)
    throw std::invalid_argument("differential_evolution: dim == 0");
  const int pop_size = std::max(options.population, 4);

  Result result;
  std::vector<la::Vector> pop;
  std::vector<double> fitness;
  pop.reserve(static_cast<std::size_t>(pop_size));

  for (const auto& s : options.seeds) {
    if (s.size() != dim)
      throw std::invalid_argument("differential_evolution: bad seed dim");
    if (pop.size() < static_cast<std::size_t>(pop_size)) {
      la::Vector x = s;
      clamp01(x);
      pop.push_back(std::move(x));
    }
  }
  while (pop.size() < static_cast<std::size_t>(pop_size)) {
    la::Vector x(dim);
    for (double& v : x) v = rng.uniform();
    pop.push_back(std::move(x));
  }
  parallel::ThreadPool* pool = options.pool.get();
  fitness = evaluate(f, pop, pool);
  result.evaluations += static_cast<int>(pop.size());
  for (std::size_t i = 0; i < pop.size(); ++i) {
    if (fitness[i] < result.value) {
      result.value = fitness[i];
      result.x = pop[i];
    }
  }

  // Synchronous (generational) loop: all of a generation's trial vectors
  // are built from the previous generation's population by the calling
  // thread's RNG, then evaluated as one generation — in chunks, possibly
  // concurrently — and selection is applied in index order. Evaluation
  // order and chunking can therefore never influence the result.
  std::vector<la::Vector> trials(pop.size(), la::Vector(dim));
  for (int gen = 0; gen < options.generations; ++gen) {
    for (int i = 0; i < pop_size; ++i) {
      la::Vector& trial = trials[static_cast<std::size_t>(i)];
      // Pick three distinct partners != i.
      int a, b, c;
      do { a = static_cast<int>(rng.uniform_int(0, pop_size - 1)); } while (a == i);
      do { b = static_cast<int>(rng.uniform_int(0, pop_size - 1)); } while (b == i || b == a);
      do { c = static_cast<int>(rng.uniform_int(0, pop_size - 1)); } while (c == i || c == a || c == b);
      const auto jrand =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(dim) - 1));
      for (std::size_t j = 0; j < dim; ++j) {
        if (j == jrand || rng.uniform() < kCrossover) {
          trial[j] = pop[static_cast<std::size_t>(a)][j] +
                     kDifferentialWeight *
                         (pop[static_cast<std::size_t>(b)][j] -
                          pop[static_cast<std::size_t>(c)][j]);
          trial[j] = std::clamp(trial[j], 0.0, 1.0);
        } else {
          trial[j] = pop[static_cast<std::size_t>(i)][j];
        }
      }
    }
    const std::vector<double> trial_fitness = evaluate(f, trials, pool);
    result.evaluations += pop_size;
    for (std::size_t i = 0; i < trials.size(); ++i) {
      if (trial_fitness[i] <= fitness[i]) {
        pop[i] = trials[i];
        fitness[i] = trial_fitness[i];
        if (trial_fitness[i] < result.value) {
          result.value = trial_fitness[i];
          result.x = trials[i];
        }
      }
    }
  }
  return result;
}

std::vector<la::Vector> latin_hypercube(std::size_t n, std::size_t dim,
                                        rng::Rng& rng) {
  std::vector<la::Vector> pts(n, la::Vector(dim));
  for (std::size_t d = 0; d < dim; ++d) {
    const auto perm = rng.permutation(n);
    for (std::size_t i = 0; i < n; ++i) {
      pts[i][d] = (static_cast<double>(perm[i]) + rng.uniform()) /
                  static_cast<double>(n);
    }
  }
  return pts;
}

namespace {

constexpr std::array<int, 64> kPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,
    43,  47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101,
    103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167,
    173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233, 239,
    241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311};

/// Radical-inverse of `index` in base `base` with a fixed digit permutation.
double permuted_radical_inverse(std::uint64_t index, int base,
                                const std::vector<int>& perm) {
  double inv_base = 1.0 / base;
  double inv = inv_base;
  double value = 0.0;
  while (index > 0) {
    const auto digit = static_cast<std::size_t>(index % static_cast<std::uint64_t>(base));
    value += perm[digit] * inv;
    index /= static_cast<std::uint64_t>(base);
    inv *= inv_base;
  }
  return value;
}

}  // namespace

std::vector<la::Vector> scrambled_halton(std::size_t n, std::size_t dim,
                                         rng::Rng& rng, std::size_t skip) {
  if (dim > kPrimes.size())
    throw std::invalid_argument("scrambled_halton: dim > 64 unsupported");
  // One random digit permutation per dimension, with perm[0] == 0 so that 0
  // maps to 0 (keeps the sequence inside [0,1)).
  std::vector<std::vector<int>> perms(dim);
  for (std::size_t d = 0; d < dim; ++d) {
    const int base = kPrimes[d];
    auto& perm = perms[d];
    perm.resize(static_cast<std::size_t>(base));
    rng::Rng sub = rng.split(d + 1);
    const auto shuffled = sub.permutation(static_cast<std::size_t>(base) - 1);
    perm[0] = 0;
    for (std::size_t i = 0; i + 1 < static_cast<std::size_t>(base); ++i)
      perm[i + 1] = static_cast<int>(shuffled[i]) + 1;
  }
  std::vector<la::Vector> pts(n, la::Vector(dim));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t d = 0; d < dim; ++d)
      pts[i][d] = permuted_radical_inverse(i + skip + 1, kPrimes[d], perms[d]);
  return pts;
}

}  // namespace gptc::opt
