#include "opt/optimize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <ios>
#include <limits>
#include <memory>
#include <span>
#include <vector>

namespace gptc::opt {
namespace {

double sphere(const la::Vector& x) {
  double s = 0.0;
  for (double v : x) s += (v - 0.3) * (v - 0.3);
  return s;
}

double rosenbrock(const la::Vector& x) {
  double s = 0.0;
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    const double a = x[i + 1] - x[i] * x[i];
    const double b = 1.0 - x[i];
    s += 100.0 * a * a + b * b;
  }
  return s;
}

/// Differential evolution's generation objective from a pointwise one.
GenerationFn each(const ObjectiveFn& f) {
  return [f](std::span<const la::Vector> x, std::span<double> out) {
    for (std::size_t i = 0; i < x.size(); ++i) out[i] = f(x[i]);
  };
}

// ---------------------------------------------------------------------------
// L-BFGS

/// f(x), with its gradient written to g.
using ValueAndGradient =
    std::function<double(const la::Vector& x, la::Vector& g)>;

/// L-BFGS on a ValueAndGradient: the value callback keeps its point, and
/// the gradient callback evaluates f there again for the gradient.
Result lbfgs_on(const ValueAndGradient& f, const la::Vector& start,
                int budget) {
  la::Vector last, scratch;
  return lbfgs(
      [&](const la::Vector& x) {
        last = x;
        scratch.assign(x.size(), 0.0);
        return f(x, scratch);
      },
      [&](la::Vector& g) { f(last, g); }, start, budget);
}

double rosenbrock_grad(const la::Vector& x, la::Vector& g) {
  std::fill(g.begin(), g.end(), 0.0);
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    const double a = x[i + 1] - x[i] * x[i];
    g[i] += -400.0 * a * x[i] - 2.0 * (1.0 - x[i]);
    g[i + 1] += 200.0 * a;
  }
  return rosenbrock(x);
}

/// sum_i c_i (x_i - 0.5)^2 with c_i from 1 to 1e4 (condition number 1e4).
double ill_conditioned(const la::Vector& x, la::Vector& g) {
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double c = std::pow(1e4, static_cast<double>(i) /
                                       static_cast<double>(x.size() - 1));
    s += c * (x[i] - 0.5) * (x[i] - 0.5);
    g[i] = 2.0 * c * (x[i] - 0.5);
  }
  return s;
}

TEST(Lbfgs, MinimizesRosenbrock2d) {
  const int budget = 300;
  const Result r = lbfgs_on(rosenbrock_grad, {-1.2, 1.0}, budget);
  EXPECT_LT(r.value, 1e-8);
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 1.0, 1e-3);
  EXPECT_LE(r.evaluations, budget);
}

TEST(Lbfgs, MinimizesRosenbrock6d) {
  const int budget = 500;
  const Result r = lbfgs_on(rosenbrock_grad, la::Vector(6, -0.5), budget);
  EXPECT_LT(r.value, 1e-8);
  for (double v : r.x) EXPECT_NEAR(v, 1.0, 1e-3);
  EXPECT_LE(r.evaluations, budget);
}

TEST(Lbfgs, MinimizesIllConditionedQuadratic) {
  const int budget = 200;
  const Result r = lbfgs_on(ill_conditioned, la::Vector(5, 2.0), budget);
  EXPECT_LT(r.value, 1e-10);
  for (double v : r.x) EXPECT_NEAR(v, 0.5, 1e-4);
  EXPECT_LE(r.evaluations, budget);
}

TEST(Lbfgs, RespectsEvaluationBudget) {
  for (int budget : {1, 2, 5, 17}) {
    int calls = 0;
    la::Vector last;
    const Result r = lbfgs(
        [&](const la::Vector& x) {
          ++calls;
          last = x;
          la::Vector g(x.size());
          return rosenbrock_grad(x, g);
        },
        [&](la::Vector& g) { rosenbrock_grad(last, g); }, {-1.2, 1.0},
        budget);
    EXPECT_EQ(r.evaluations, calls);
    EXPECT_LE(calls, budget);
    EXPECT_LE(r.value, rosenbrock({-1.2, 1.0}));
  }
}

TEST(Lbfgs, GradientOnlyAtAcceptedPoints) {
  // The gradient is asked for at the start and at each trial that passes
  // the Armijo test, always right after the value there: gradient calls =
  // 1 + accepted steps, each accepted point lower than the one before, and
  // a rejected trial costs its value alone.
  std::vector<la::Vector> valued;     // every point f saw, in order
  std::vector<double> values;
  std::vector<std::size_t> accepted;  // index into valued per gradient call
  const Result r = lbfgs(
      [&](const la::Vector& x) {
        la::Vector g(x.size());
        valued.push_back(x);
        values.push_back(rosenbrock_grad(x, g));
        return values.back();
      },
      [&](la::Vector& g) {
        accepted.push_back(valued.size() - 1);
        rosenbrock_grad(valued.back(), g);
      },
      {-1.2, 1.0}, 200);
  ASSERT_FALSE(accepted.empty());
  EXPECT_EQ(accepted.front(), 0u);  // the start
  for (std::size_t s = 1; s < accepted.size(); ++s) {
    EXPECT_GT(accepted[s], accepted[s - 1]);
    EXPECT_LT(values[accepted[s]], values[accepted[s - 1]]);
  }
  // The iterate moves exactly at the accepted points.
  EXPECT_EQ(valued[accepted.back()], r.x);
  EXPECT_EQ(values[accepted.back()], r.value);
  EXPECT_EQ(r.evaluations, static_cast<int>(valued.size()));
  // This run backtracks, and its rejected trials cost no gradient.
  EXPECT_LT(accepted.size() + 10, valued.size());
}

TEST(Lbfgs, BacktracksFromNonFiniteGradient) {
  // f is finite everywhere, but its gradient is NaN outside the ball
  // |x| < 1.5: a trial there passes the Armijo test on its value and must
  // still be rejected, so the iterates stay inside, as with a failed value.
  const auto value = [](const la::Vector& x) {
    return (x[0] - 2.0) * (x[0] - 2.0) + (x[1] - 2.0) * (x[1] - 2.0);
  };
  la::Vector last;
  int outside = 0;
  const Result r = lbfgs(
      [&](const la::Vector& x) {
        last = x;
        return value(x);
      },
      [&](la::Vector& g) {
        if (last[0] * last[0] + last[1] * last[1] >= 1.5 * 1.5) {
          ++outside;
          g.assign(g.size(), std::numeric_limits<double>::quiet_NaN());
          return;
        }
        g[0] = 2.0 * (last[0] - 2.0);
        g[1] = 2.0 * (last[1] - 2.0);
      },
      {0.0, 0.0}, 60);
  EXPECT_GT(outside, 0);
  EXPECT_LT(r.x[0] * r.x[0] + r.x[1] * r.x[1], 1.5 * 1.5);
  EXPECT_GT(r.x[0], 1.0);
  EXPECT_EQ(r.value, value(r.x));
}

TEST(Lbfgs, BacktracksFromFailedEvaluations) {
  // Minimum at (2, 2) is outside the ball |x| < 1.5, where f "fails" with
  // DBL_MAX (the convention of a failed factor); the iterates must stay
  // inside and end near the boundary point closest to the minimum.
  int failed = 0;
  const auto f = [&](const la::Vector& x, la::Vector& g) {
    if (x[0] * x[0] + x[1] * x[1] >= 1.5 * 1.5) {
      ++failed;
      g.assign(g.size(), std::numeric_limits<double>::quiet_NaN());
      return std::numeric_limits<double>::max();
    }
    g[0] = 2.0 * (x[0] - 2.0);
    g[1] = 2.0 * (x[1] - 2.0);
    return (x[0] - 2.0) * (x[0] - 2.0) + (x[1] - 2.0) * (x[1] - 2.0);
  };
  const int budget = 60;
  const Result r = lbfgs_on(f, {0.0, 0.0}, budget);
  EXPECT_GT(failed, 0);
  EXPECT_LE(r.evaluations, budget);
  EXPECT_LT(r.x[0] * r.x[0] + r.x[1] * r.x[1], 1.5 * 1.5);
  EXPECT_NEAR(r.x[0], r.x[1], 1e-9);
  EXPECT_GT(r.x[0], 1.0);  // close to (1.06, 1.06)
  // A non-finite value backtracks the same way.
  const Result nan_run = lbfgs_on(
      [&](const la::Vector& x, la::Vector& g) {
        const double v = f(x, g);
        return v == std::numeric_limits<double>::max()
                   ? std::numeric_limits<double>::quiet_NaN()
                   : v;
      },
      {0.0, 0.0}, budget);
  EXPECT_EQ(nan_run.x, r.x);
  // A failed start, DBL_MAX or NaN, has nowhere to go.
  const Result stuck = lbfgs_on(f, {3.0, 0.0}, budget);
  EXPECT_EQ(stuck.evaluations, 1);
  EXPECT_EQ(stuck.x, (la::Vector{3.0, 0.0}));
  const Result nan_start = lbfgs_on(
      [](const la::Vector&, la::Vector& g) {
        g.assign(g.size(), 1.0);
        return std::numeric_limits<double>::quiet_NaN();
      },
      {3.0, 0.0}, budget);
  EXPECT_EQ(nan_start.evaluations, 1);
  EXPECT_EQ(nan_start.value, std::numeric_limits<double>::max());
}

TEST(Lbfgs, RunsAreBitwiseIdentical) {
  const int budget = 80;
  const Result a = lbfgs_on(rosenbrock_grad, la::Vector(6, -0.5), budget);
  const Result b = lbfgs_on(rosenbrock_grad, la::Vector(6, -0.5), budget);
  EXPECT_EQ(a.x, b.x);  // exact, element by element
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(BitwisePins, LbfgsRosenbrock6d) {
  // Any change to the order or kind of floating-point operations in the
  // L-BFGS iteration shows up as an exact mismatch; a failure prints the
  // new value as a hexfloat.
  const double x[6] = {0x1.fffff299448aep-1, 0x1.ffffe5e92fb3fp-1,
                       0x1.ffffcf10b6cb8p-1, 0x1.ffffa7dd5e3dcp-1,
                       0x1.ffff495111862p-1, 0x1.fffe94c178ce3p-1};
  const Result r = lbfgs_on(rosenbrock_grad, la::Vector(6, -0.5), 80);
  ASSERT_EQ(r.x.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_EQ(r.x[i], x[i]) << "x[" << i << "] = " << std::hexfloat << r.x[i];
  EXPECT_EQ(r.value, 0x1.d12167a689b62p-35) << "value = " << std::hexfloat << r.value;
  EXPECT_EQ(r.evaluations, 57);
}

TEST(Lbfgs, StopsAtStationaryPointAndRejectsEmptyStart) {
  const Result r = lbfgs_on(ill_conditioned, la::Vector(3, 0.5), 100);
  EXPECT_EQ(r.evaluations, 1);
  EXPECT_EQ(r.value, 0.0);
  EXPECT_THROW(lbfgs_on(ill_conditioned, {}, 100), std::invalid_argument);
}

TEST(Multistart, ReducesInIndexOrderAcrossPoolSizes) {
  // Starts 1 and 3 tie on the best value: the lowest index must win, and
  // the result must not depend on the pool.
  const auto run = [](std::size_t i) {
    Result r;
    r.x = {static_cast<double>(i)};
    r.value = (i == 1 || i == 3) ? -1.0 : static_cast<double>(i);
    r.evaluations = 2;
    return r;
  };
  for (std::size_t threads : {0u, 1u, 3u}) {
    std::shared_ptr<parallel::ThreadPool> pool;
    if (threads > 0) pool = std::make_shared<parallel::ThreadPool>(threads);
    const Result best = multistart(pool.get(), 5, run);
    EXPECT_EQ(best.x, la::Vector{1.0});
    EXPECT_EQ(best.value, -1.0);
    EXPECT_EQ(best.evaluations, 10);
  }
  EXPECT_THROW(multistart(nullptr, 0, run), std::invalid_argument);
}

TEST(DifferentialEvolution, MinimizesMultimodalFunction) {
  // Rastrigin-flavoured function over [0,1]^2, minimum at (0.7, 0.7).
  const auto f = [](const la::Vector& x) {
    double s = 0.0;
    for (double v : x) {
      const double d = v - 0.7;
      s += d * d - 0.05 * std::cos(20.0 * d);
    }
    return s;
  };
  rng::Rng rng(3);
  DifferentialEvolutionOptions opt;
  opt.population = 30;
  opt.generations = 60;
  const Result r = differential_evolution(each(f), 2, rng, opt);
  EXPECT_NEAR(r.x[0], 0.7, 0.02);
  EXPECT_NEAR(r.x[1], 0.7, 0.02);
}

TEST(DifferentialEvolution, SeedsJoinPopulation) {
  // With the optimum passed as a seed, the result can't be worse.
  rng::Rng rng(4);
  DifferentialEvolutionOptions opt;
  opt.generations = 0;  // no evolution: only the initial population counts
  opt.seeds = {{0.3, 0.3, 0.3}};
  const Result r = differential_evolution(each(sphere), 3, rng, opt);
  EXPECT_LE(r.value, 1e-12);
}

TEST(DifferentialEvolution, StaysInUnitCube) {
  rng::Rng rng(5);
  const auto f = [](const la::Vector& x) {
    for (double v : x) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
    return -x[0];
  };
  const Result r = differential_evolution(each(f), 2, rng);
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
}

TEST(DifferentialEvolution, SurvivesNonFiniteObjective) {
  // NaN below x = 0.2 and -inf above x = 0.9: any finite point must beat
  // every non-finite one, -inf included, and the search still finds the
  // minimum at 0.5.
  const auto f = [](const la::Vector& x) {
    if (x[0] < 0.2) return std::numeric_limits<double>::quiet_NaN();
    if (x[0] > 0.9) return -std::numeric_limits<double>::infinity();
    return (x[0] - 0.5) * (x[0] - 0.5);
  };
  rng::Rng rng(9);
  DifferentialEvolutionOptions opt;
  opt.generations = 0;
  // Only non-finite seeds but one: the finite seed must win.
  opt.population = 4;
  opt.seeds = {{0.1}, {0.95}, {0.85}, {0.05}};
  const Result one = differential_evolution(each(f), 1, rng, opt);
  EXPECT_EQ(one.x, la::Vector{0.85});
  EXPECT_EQ(one.value, f({0.85}));
  // A whole run from a population that starts in the NaN region.
  opt.population = 12;
  opt.generations = 40;
  opt.seeds.assign(8, la::Vector{0.0});
  const Result r = differential_evolution(each(f), 1, rng, opt);
  EXPECT_TRUE(std::isfinite(r.value));
  EXPECT_NEAR(r.x[0], 0.5, 1e-3);
}

TEST(DifferentialEvolution, InvalidInputsThrow) {
  rng::Rng rng(6);
  EXPECT_THROW(differential_evolution(each(sphere), 0, rng),
               std::invalid_argument);
  DifferentialEvolutionOptions opt;
  opt.seeds = {{0.1, 0.2}};  // wrong dim
  EXPECT_THROW(differential_evolution(each(sphere), 3, rng, opt),
               std::invalid_argument);
}

TEST(Sampling, LatinHypercubeStratifies) {
  rng::Rng rng(8);
  const std::size_t n = 20;
  const auto pts = latin_hypercube(n, 2, rng);
  // Exactly one point per bin in each dimension.
  for (std::size_t d = 0; d < 2; ++d) {
    std::vector<int> bins(n, 0);
    for (const auto& p : pts)
      ++bins[std::min(n - 1, static_cast<std::size_t>(p[d] * n))];
    for (int b : bins) EXPECT_EQ(b, 1);
  }
}

TEST(Sampling, ScrambledHaltonIsLowDiscrepancy) {
  rng::Rng rng(9);
  const std::size_t n = 512;
  const auto pts = scrambled_halton(n, 2, rng);
  // Check 4x4 stratification: each cell should hold roughly n/16 points.
  int cells[4][4] = {};
  for (const auto& p : pts)
    ++cells[std::min(3, static_cast<int>(p[0] * 4))]
           [std::min(3, static_cast<int>(p[1] * 4))];
  for (auto& row : cells)
    for (int c : row) EXPECT_NEAR(c, 32, 12);
}

TEST(Sampling, ScrambledHaltonDeterministicPerSeed) {
  rng::Rng r1(10), r2(10), r3(11);
  const auto a = scrambled_halton(8, 3, r1);
  const auto b = scrambled_halton(8, 3, r2);
  const auto c = scrambled_halton(8, 3, r3);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Sampling, ScrambledHaltonHighDimSupported) {
  rng::Rng rng(12);
  const auto pts = scrambled_halton(16, 24, rng);  // Hypre Saltelli needs 2*12
  EXPECT_EQ(pts.front().size(), 24u);
  EXPECT_THROW(scrambled_halton(4, 65, rng), std::invalid_argument);
}

}  // namespace
}  // namespace gptc::opt
