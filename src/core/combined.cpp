#include "core/combined.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

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

void WeightedSurrogate::predict(std::span<const la::Vector> x,
                                std::span<gp::Prediction> out) const {
  if (out.size() != x.size())
    throw std::invalid_argument("WeightedSurrogate::predict: span sizes");
  const std::size_t m = x.size();
  std::vector<gp::Prediction> member(m);
  la::Vector mean(m, 0.0), log_sigma(m, 0.0);
  std::vector<char> sigma_zero(m, 0);
  for (std::size_t i = 0; i < models_.size(); ++i) {
    models_[i]->predict(x, member);
    for (std::size_t p = 0; p < m; ++p) {
      mean[p] += weights_[i] * member[p].mean;
      const double s = member[p].stddev();
      if (weights_[i] > 0.0) {
        if (s <= 1e-300)
          sigma_zero[p] = 1;
        else
          log_sigma[p] += weights_[i] * std::log(s);
      }
    }
  }
  for (std::size_t p = 0; p < m; ++p) {
    out[p].mean = mean[p];
    const double sigma = sigma_zero[p] ? 0.0 : std::exp(log_sigma[p]);
    out[p].variance = sigma * sigma;
  }
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
    std::vector<la::Vector> rows;
    for (std::size_t i = 0; i < x.rows(); ++i)
      rows.emplace_back(x.row(i).begin(), x.row(i).end());
    std::vector<gp::Prediction> stack(rows.size());
    predict(rows, stack);
    for (std::size_t i = 0; i < rows.size(); ++i) residuals[i] -= stack[i].mean;
  }
  rng::Rng sub = rng.split("stack-layer").split(layers_.size());
  auto layer = std::make_shared<gp::LcmModel>(dim_, 1, options);
  layer->fit({gp::TaskData{x, std::move(residuals)}}, sub);
  layers_.push_back(std::move(layer));
}

void ResidualStack::predict(std::span<const la::Vector> x,
                            std::span<gp::Prediction> out) const {
  if (layers_.empty())
    throw std::logic_error("ResidualStack::predict: no layers");
  if (out.size() != x.size())
    throw std::invalid_argument("ResidualStack::predict: span sizes");
  const std::size_t m = x.size();
  std::vector<gp::Prediction> layer(m);
  la::Vector mean(m, 0.0), sigma(m, 0.0);
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->predict(0, x, layer);
    // Weighted geometric mean of the new layer's stddev and the previous
    // stack's stddev, beta = n_new / (n_new + n_prev).
    const double n_new = static_cast<double>(layers_[i]->num_samples(0));
    const double n_prev =
        i == 0 ? 0.0 : static_cast<double>(layers_[i - 1]->num_samples(0));
    const double beta = n_new / (n_new + n_prev);
    for (std::size_t p = 0; p < m; ++p) {
      mean[p] += layer[p].mean;
      const double s = layer[p].stddev();
      if (i == 0)
        sigma[p] = s;
      else if (s <= 1e-300 || sigma[p] <= 1e-300)
        sigma[p] = 0.0;
      else
        sigma[p] = std::pow(s, beta) * std::pow(sigma[p], 1.0 - beta);
    }
  }
  for (std::size_t p = 0; p < m; ++p) {
    out[p].mean = mean[p];
    out[p].variance = sigma[p] * sigma[p];
  }
}

}  // namespace gptc::core
