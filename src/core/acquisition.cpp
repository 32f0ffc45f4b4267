#include "core/acquisition.hpp"

#include <cmath>
#include <numbers>

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

la::Vector search(const opt::ObjectiveFn& objective, std::size_t dim,
                  rng::Rng& rng, const std::vector<la::Vector>& seeds,
                  const AcquisitionOptions& options) {
  opt::DifferentialEvolutionOptions de;
  de.population = options.de_population;
  de.generations = options.de_generations;
  de.seeds = seeds;
  de.pool = options.pool;
  rng::Rng sub = rng.split("acq-de");
  return opt::differential_evolution(objective, dim, sub, de).x;
}

}  // namespace

la::Vector maximize_ei(const gp::Surrogate& surrogate, double best,
                       rng::Rng& rng, const std::vector<la::Vector>& seeds,
                       const AcquisitionOptions& options) {
  const auto objective = [&](const la::Vector& x) {
    return -expected_improvement(surrogate.predict(x), best);
  };
  return search(objective, surrogate.dim(), rng, seeds, options);
}

la::Vector minimize_mean(const gp::Surrogate& surrogate, rng::Rng& rng,
                         const std::vector<la::Vector>& seeds,
                         const AcquisitionOptions& options) {
  const auto objective = [&](const la::Vector& x) {
    return surrogate.predict(x).mean;
  };
  return search(objective, surrogate.dim(), rng, seeds, options);
}

}  // namespace gptc::core
