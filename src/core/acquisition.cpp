#include "core/acquisition.hpp"

#include <cmath>
#include <functional>
#include <numbers>
#include <span>
#include <vector>

#include "opt/optimize.hpp"

namespace gptc::core {

double normal_pdf(double z) {
  return std::exp(-0.5 * z * z) / std::sqrt(2.0 * std::numbers::pi);
}

double normal_cdf(double z) {
  return 0.5 * std::erfc(-z / std::numbers::sqrt2);
}

double expected_improvement(const gp::Prediction& p, double best) {
  const double sigma = p.stddev();
  if (sigma < 1e-12) return std::max(best - p.mean, 0.0);
  const double z = (best - p.mean) / sigma;
  return (best - p.mean) * normal_cdf(z) + sigma * normal_pdf(z);
}

namespace {

/// Minimizes score(prediction) over [0,1]^dim with differential evolution
/// on the caller's "acq-de" stream, predicting each generation's chunk as
/// one span.
la::Vector search(const gp::Surrogate& surrogate,
                  const std::function<double(const gp::Prediction&)>& score,
                  rng::Rng& rng, const std::vector<la::Vector>& seeds,
                  const AcquisitionOptions& options) {
  opt::DifferentialEvolutionOptions de;
  de.population = options.de_population;
  de.generations = options.de_generations;
  de.seeds = seeds;
  de.pool = options.pool;
  const auto objective = [&](std::span<const la::Vector> x,
                             std::span<double> out) {
    std::vector<gp::Prediction> p(x.size());
    surrogate.predict(x, p);
    for (std::size_t i = 0; i < x.size(); ++i) out[i] = score(p[i]);
  };
  rng::Rng sub = rng.split("acq-de");
  return opt::differential_evolution(objective, surrogate.dim(), sub, de).x;
}

}  // namespace

la::Vector maximize_ei(const gp::Surrogate& surrogate, double best,
                       rng::Rng& rng, const std::vector<la::Vector>& seeds,
                       const AcquisitionOptions& options) {
  return search(
      surrogate,
      [best](const gp::Prediction& p) {
        return -expected_improvement(p, best);
      },
      rng, seeds, options);
}

la::Vector minimize_mean(const gp::Surrogate& surrogate, rng::Rng& rng,
                         const std::vector<la::Vector>& seeds,
                         const AcquisitionOptions& options) {
  return search(
      surrogate, [](const gp::Prediction& p) { return p.mean; }, rng, seeds,
      options);
}

}  // namespace gptc::core
