#include "sa/sobol.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "opt/optimize.hpp"

namespace gptc::sa {

std::vector<std::size_t> SobolResult::ranked_by_total_effect() const {
  std::vector<std::size_t> idx(dim());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return st[a] > st[b]; });
  return idx;
}

std::vector<std::string> SobolResult::influential(double s1_threshold,
                                                  double st_threshold) const {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < dim(); ++i)
    if (s1[i] >= s1_threshold || st[i] >= st_threshold)
      out.push_back(names[i]);
  return out;
}

std::string SobolResult::to_table() const {
  std::ostringstream os;
  std::size_t width = 9;
  for (const auto& n : names) width = std::max(width, n.size());
  os << std::string(width, ' ') << "    S1  S1.conf     ST  ST.conf\n";
  char buf[128];
  for (std::size_t i = 0; i < dim(); ++i) {
    std::snprintf(buf, sizeof buf, "%-*s  %5.2f  %7.2f  %5.2f  %7.2f\n",
                  static_cast<int>(width), names[i].c_str(), s1[i],
                  s1_conf[i], st[i], st_conf[i]);
    os << buf;
  }
  return os.str();
}

namespace {

/// z-score of the reported confidence radius (~95%).
constexpr double kZScore = 1.96;

struct SaltelliEvaluations {
  la::Vector f_a;                  // N
  la::Vector f_b;                  // N
  std::vector<la::Vector> f_ab;    // dim vectors of N
};

/// Runs the Saltelli design: base matrices A and B come from a scrambled
/// low-discrepancy sequence in 2*dim dimensions; AB_i replaces column i of
/// A with column i of B.
SaltelliEvaluations saltelli_evaluate(const CubeFn& f, std::size_t dim,
                                      rng::Rng& rng,
                                      const SobolOptions& options) {
  const std::size_t n = options.base_samples;
  if (n < 8) throw std::invalid_argument("sobol: base_samples too small");
  rng::Rng design_rng = rng.split("saltelli-design");
  const auto base = opt::scrambled_halton(n, 2 * dim, design_rng);

  SaltelliEvaluations ev;
  ev.f_a.resize(n);
  ev.f_b.resize(n);
  ev.f_ab.assign(dim, la::Vector(n));
  // Each design row j owns the slots f_a[j], f_b[j], f_ab[*][j] — disjoint
  // writes, so the dim+2 model evaluations per row batch across the pool.
  parallel::parallel_for(options.pool.get(), n, [&](std::size_t j) {
    la::Vector a(dim), b(dim), ab(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      a[i] = base[j][i];
      b[i] = base[j][dim + i];
    }
    ev.f_a[j] = f(a);
    ev.f_b[j] = f(b);
    for (std::size_t i = 0; i < dim; ++i) {
      ab = a;
      ab[i] = b[i];
      ev.f_ab[i][j] = f(ab);
    }
  });
  return ev;
}

struct Indices {
  double s1;
  double st;
};

/// Saltelli-2010 S1 and Jansen ST estimators over a subset of sample rows.
Indices estimate(const SaltelliEvaluations& ev, std::size_t param,
                 const std::vector<std::size_t>& rows) {
  const auto n = static_cast<double>(rows.size());
  double mean = 0.0;
  for (auto j : rows) mean += ev.f_a[j] + ev.f_b[j];
  mean /= 2.0 * n;
  double var = 0.0;
  for (auto j : rows) {
    var += (ev.f_a[j] - mean) * (ev.f_a[j] - mean);
    var += (ev.f_b[j] - mean) * (ev.f_b[j] - mean);
  }
  var /= 2.0 * n;
  if (var < 1e-24) return {0.0, 0.0};

  double s1_acc = 0.0, st_acc = 0.0;
  const auto& fab = ev.f_ab[param];
  for (auto j : rows) {
    s1_acc += ev.f_b[j] * (fab[j] - ev.f_a[j]);
    const double d = ev.f_a[j] - fab[j];
    st_acc += d * d;
  }
  return {s1_acc / n / var, st_acc / (2.0 * n) / var};
}

SobolResult analyze_impl(const CubeFn& f, std::size_t dim,
                         std::vector<std::string> names, rng::Rng& rng,
                         const SobolOptions& options) {
  if (names.size() != dim)
    throw std::invalid_argument("sobol: name count != dim");
  const SaltelliEvaluations ev = saltelli_evaluate(f, dim, rng, options);
  const std::size_t n = options.base_samples;

  SobolResult result;
  result.names = std::move(names);
  result.s1.resize(dim);
  result.s1_conf.resize(dim);
  result.st.resize(dim);
  result.st_conf.resize(dim);

  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  rng::Rng boot_rng = rng.split("bootstrap");

  for (std::size_t i = 0; i < dim; ++i) {
    const Indices point = estimate(ev, i, all);
    result.s1[i] = point.s1;
    result.st[i] = point.st;

    // Bootstrap over sample rows.
    double s1_sum = 0.0, s1_sum2 = 0.0, st_sum = 0.0, st_sum2 = 0.0;
    std::vector<std::size_t> rows(n);
    for (int b = 0; b < options.bootstrap; ++b) {
      for (auto& r : rows)
        r = static_cast<std::size_t>(
            boot_rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const Indices e = estimate(ev, i, rows);
      s1_sum += e.s1;
      s1_sum2 += e.s1 * e.s1;
      st_sum += e.st;
      st_sum2 += e.st * e.st;
    }
    const auto nb = static_cast<double>(options.bootstrap);
    const double s1_var = std::max(s1_sum2 / nb - (s1_sum / nb) * (s1_sum / nb), 0.0);
    const double st_var = std::max(st_sum2 / nb - (st_sum / nb) * (st_sum / nb), 0.0);
    result.s1_conf[i] = kZScore * std::sqrt(s1_var);
    result.st_conf[i] = kZScore * std::sqrt(st_var);
  }
  return result;
}

}  // namespace

SobolResult analyze_function(const CubeFn& f, std::size_t dim,
                             std::vector<std::string> names, rng::Rng& rng,
                             const SobolOptions& options) {
  return analyze_impl(f, dim, std::move(names), rng, options);
}

SobolResult analyze_surrogate(const gp::Surrogate& model,
                              const space::Space& space, rng::Rng& rng,
                              const SobolOptions& options) {
  if (model.dim() != space.dim())
    throw std::invalid_argument("analyze_surrogate: dim mismatch");
  const CubeFn f = [&](const la::Vector& u) {
    // Snap to a valid configuration so discrete parameters contribute their
    // quantized effect.
    const space::Config c = space.decode(u);
    return model.predict(space.encode(c)).mean;
  };
  std::vector<std::string> names;
  for (const auto& p : space.params()) names.push_back(p.name());
  return analyze_impl(f, space.dim(), std::move(names), rng, options);
}

space::TuningProblem reduce_problem(const space::TuningProblem& problem,
                                    const std::vector<std::string>& keep,
                                    const json::Json& frozen,
                                    std::uint64_t seed) {
  std::vector<space::Parameter> kept_params;
  for (const auto& name : keep) {
    const auto idx = problem.param_space.index_of(name);
    if (!idx)
      throw std::invalid_argument("reduce_problem: unknown parameter " + name);
    kept_params.push_back(problem.param_space[*idx]);
  }
  if (kept_params.empty())
    throw std::invalid_argument("reduce_problem: nothing to tune");

  // Precompute the full-space value for every non-kept parameter: the
  // frozen value when given, otherwise one random draw (fixed for the
  // lifetime of the reduced problem).
  rng::Rng rng(rng::splitmix64(seed + 0x5eed5eedULL));
  const std::size_t full_dim = problem.param_space.dim();
  std::vector<std::optional<space::Value>> fixed(full_dim);
  for (std::size_t i = 0; i < full_dim; ++i) {
    const auto& p = problem.param_space[i];
    if (std::find(keep.begin(), keep.end(), p.name()) != keep.end()) continue;
    if (frozen.contains(p.name())) {
      if (!p.contains(frozen.at(p.name())))
        throw std::invalid_argument("reduce_problem: frozen value for " +
                                    p.name() + " outside range");
      fixed[i] = frozen.at(p.name());
    } else {
      fixed[i] = p.sample(rng);
    }
  }

  space::TuningProblem reduced;
  reduced.name = problem.name + "-reduced";
  reduced.task_space = problem.task_space;
  reduced.param_space = space::Space(std::move(kept_params));
  reduced.output_name = problem.output_name;

  const space::Space full_space = problem.param_space;
  const space::Space kept_space = reduced.param_space;
  reduced.objective = [full_space, kept_space, fixed,
                       base = problem.objective](
                          const space::Config& task,
                          const space::Config& params) {
    space::Config full(full_space.dim());
    for (std::size_t i = 0; i < full_space.dim(); ++i) {
      if (fixed[i]) {
        full[i] = *fixed[i];
      } else {
        const auto k = kept_space.index_of(full_space[i].name());
        full[i] = params[k.value()];
      }
    }
    return base(task, full);
  };
  return reduced;
}

}  // namespace gptc::sa
