#include "core/combined.hpp"

#include <cmath>
#include <stdexcept>

namespace gptc::core {

WeightedSurrogate::WeightedSurrogate(std::vector<gp::SurrogatePtr> models,
                                     la::Vector weights)
    : models_(std::move(models)), weights_(std::move(weights)) {
  if (models_.empty())
    throw std::invalid_argument("WeightedSurrogate: no models");
  if (models_.size() != weights_.size())
    throw std::invalid_argument("WeightedSurrogate: weight count mismatch");
  double total = 0.0;
  for (double w : weights_) {
    if (w < 0.0 || !std::isfinite(w))
      throw std::invalid_argument("WeightedSurrogate: weights must be >= 0");
    total += w;
  }
  if (total <= 0.0)
    throw std::invalid_argument("WeightedSurrogate: all weights zero");
  for (double& w : weights_) w /= total;
  for (const auto& m : models_) {
    if (!m) throw std::invalid_argument("WeightedSurrogate: null model");
    if (m->dim() != models_.front()->dim())
      throw std::invalid_argument("WeightedSurrogate: dim mismatch");
  }
}

std::shared_ptr<WeightedSurrogate> WeightedSurrogate::equal(
    std::vector<gp::SurrogatePtr> models) {
  la::Vector w(models.size(), 1.0);
  return std::make_shared<WeightedSurrogate>(std::move(models), std::move(w));
}

gp::Prediction WeightedSurrogate::predict(const la::Vector& x) const {
  double mean = 0.0;
  double log_sigma = 0.0;
  bool sigma_zero = false;
  for (std::size_t i = 0; i < models_.size(); ++i) {
    const gp::Prediction p = models_[i]->predict(x);
    mean += weights_[i] * p.mean;
    const double s = p.stddev();
    if (weights_[i] > 0.0) {
      if (s <= 1e-300)
        sigma_zero = true;
      else
        log_sigma += weights_[i] * std::log(s);
    }
  }
  gp::Prediction out;
  out.mean = mean;
  const double sigma = sigma_zero ? 0.0 : std::exp(log_sigma);
  out.variance = sigma * sigma;
  return out;
}

std::size_t WeightedSurrogate::dim() const { return models_.front()->dim(); }

void ResidualStack::add_layer(const la::Matrix& x, const la::Vector& y,
                              const gp::LcmOptions& options, rng::Rng& rng) {
  if (x.rows() != y.size())
    throw std::invalid_argument("ResidualStack::add_layer: shape mismatch");
  if (x.rows() == 0)
    throw std::invalid_argument("ResidualStack::add_layer: empty layer");
  if (x.cols() != dim_)
    throw std::invalid_argument("ResidualStack::add_layer: dim mismatch");

  la::Vector residuals = y;
  if (!layers_.empty()) {
    for (std::size_t i = 0; i < x.rows(); ++i) {
      la::Vector xi(x.row(i).begin(), x.row(i).end());
      residuals[i] -= predict(xi).mean;
    }
  }
  rng::Rng sub = rng.split("stack-layer").split(layers_.size());
  auto layer = std::make_shared<gp::LcmModel>(dim_, 1, options);
  layer->fit({gp::TaskData{x, std::move(residuals)}}, sub);
  layers_.push_back(std::move(layer));
}

gp::Prediction ResidualStack::predict(const la::Vector& x) const {
  if (layers_.empty())
    throw std::logic_error("ResidualStack::predict: no layers");
  double mean = 0.0;
  double sigma = 0.0;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const gp::Prediction p = layers_[i]->predict(0, x);
    mean += p.mean;
    const double s = p.stddev();
    if (i == 0) {
      sigma = s;
    } else {
      // Weighted geometric mean of the new layer's stddev and the previous
      // stack's stddev, beta = n_new / (n_new + n_prev).
      const double n_new = static_cast<double>(layers_[i]->num_samples(0));
      const double n_prev =
          static_cast<double>(layers_[i - 1]->num_samples(0));
      const double beta = n_new / (n_new + n_prev);
      if (s <= 1e-300 || sigma <= 1e-300)
        sigma = 0.0;
      else
        sigma = std::pow(s, beta) * std::pow(sigma, 1.0 - beta);
    }
  }
  gp::Prediction out;
  out.mean = mean;
  out.variance = sigma * sigma;
  return out;
}

}  // namespace gptc::core
