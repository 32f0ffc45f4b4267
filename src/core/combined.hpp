// Combined surrogate models used by the weighted-sum and stacking TLA
// algorithms (paper Sec. V-B/V-D).
//
// Both are Surrogates themselves, so the acquisition search and the crowd
// utilities (QuerySurrogateModel) can consume them like any single-task GP.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "gp/lcm.hpp"
#include "gp/surrogate.hpp"

namespace gptc::core {

/// Weighted sum of surrogate models (HiPerBOt-style, paper Eq. 1–2):
///   mu(x)    = sum_i w_i * mu_i(x)                (arithmetic)
///   sigma(x) = prod_i sigma_i(x)^{w_i}            (geometric)
/// Weights are normalized to sum to 1 at construction, which keeps the
/// combined output on the scale of the member models and makes the
/// geometric standard deviation well defined.
class WeightedSurrogate final : public gp::Surrogate {
 public:
  WeightedSurrogate(std::vector<gp::SurrogatePtr> models,
                    la::Vector weights);

  /// Convenience: equal weights over all models.
  static std::shared_ptr<WeightedSurrogate> equal(
      std::vector<gp::SurrogatePtr> models);

  using gp::Surrogate::predict;
  /// Each member predicts the whole span, then every point combines its
  /// members in member order.
  void predict(std::span<const la::Vector> x,
               std::span<gp::Prediction> out) const override;
  std::size_t dim() const override;

  const la::Vector& weights() const { return weights_; }

 private:
  std::vector<gp::SurrogatePtr> models_;
  la::Vector weights_;
};

/// Residual-stacking surrogate (Vizier-style, paper Sec. V-D).
///
/// Built incrementally: the first layer is a single-task GP (a one-task
/// LCM) on the first source task; each following layer is one on the
/// residuals between the next task's observations and the stack-so-far's
/// mean. The stacked mean is the sum of
/// layer means; the stacked stddev is the geometric mean of the newest
/// layer's stddev and the previous stack's stddev, weighted by sample
/// counts (beta = n_new / (n_new + n_prev)).
class ResidualStack final : public gp::Surrogate {
 public:
  explicit ResidualStack(std::size_t dim) : dim_(dim) {}

  /// Adds a task layer: fits a one-task LCM to (x, y - current_mean(x))
  /// and pushes it onto the stack. `options`/`rng` control the fit; the
  /// layer counts the samples the LCM kept after its per-task cap.
  void add_layer(const la::Matrix& x, const la::Vector& y,
                 const gp::LcmOptions& options, rng::Rng& rng);

  std::size_t num_layers() const { return layers_.size(); }

  using gp::Surrogate::predict;
  /// Each layer predicts the whole span, then every point combines its
  /// layers in layer order.
  void predict(std::span<const la::Vector> x,
               std::span<gp::Prediction> out) const override;
  std::size_t dim() const override { return dim_; }

 private:
  std::size_t dim_;
  std::vector<std::shared_ptr<const gp::LcmModel>> layers_;
};

}  // namespace gptc::core
