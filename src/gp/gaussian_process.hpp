// Single-task Gaussian-process regression.
//
// This is the NoTLA surrogate of the paper and the building block of the
// WeightedSum and Stacking TLA algorithms. Outputs are standardized
// internally (zero mean, unit variance) so kernel hyperparameter bounds are
// scale-free; predictions are returned in original units.
//
// Hyperparameters (ARD lengthscales, signal variance, noise variance) are
// fitted by maximizing the log marginal likelihood with multistart
// Nelder–Mead in log space — the same estimator GP libraries use, minus
// analytic gradients, which at tuning-scale data sizes (tens to a few
// hundred samples) is a fine trade.
#pragma once

#include <cmath>
#include <memory>
#include <optional>

#include "gp/kernel.hpp"
#include "gp/surrogate.hpp"
#include "la/matrix.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"

namespace gptc::gp {

struct GpOptions {
  KernelKind kernel = KernelKind::Matern52;
  /// Number of random restarts for hyperparameter optimization (the
  /// incumbent hyperparameters are always one of the starts).
  int fit_restarts = 2;
  /// Nelder–Mead budget per restart.
  int fit_evaluations = 150;
  /// Lower bound applied to the learned noise variance (relative to the
  /// standardized outputs).
  double min_noise = 1e-8;
  HyperBounds bounds;
  /// Fit restarts run concurrently on this pool (null = serial; the Tuner
  /// wires this from TunerOptions::num_threads). Fitted hyperparameters are
  /// bitwise identical for any pool size.
  std::shared_ptr<parallel::ThreadPool> pool;
};

class GaussianProcess final : public Surrogate {
 public:
  GaussianProcess(std::size_t dim, GpOptions options = {});

  /// Fits hyperparameters to (X, y) and precomputes the predictive state.
  /// X rows are encoded points; y are raw outputs. Requires at least one
  /// sample. Non-finite outputs must be filtered out by the caller: non-finite
  /// inputs or outputs throw std::invalid_argument. On any throw the model
  /// keeps its previous fit.
  void fit(la::Matrix x, la::Vector y, rng::Rng& rng);

  /// Refits the predictive state for the current hyperparameters with new
  /// data (no hyperparameter optimization) — used for fast incremental
  /// updates and by the stacking algorithm.
  void refit_state(la::Matrix x, la::Vector y);

  Prediction predict(const la::Vector& x) const override;
  std::size_t dim() const override { return kernel_.dim(); }

  bool is_fitted() const { return fitted_; }
  std::size_t num_samples() const { return x_.rows(); }
  const la::Matrix& train_x() const { return x_; }
  const la::Vector& train_y() const { return y_raw_; }

  /// Log marginal likelihood of the standardized training data under the
  /// current hyperparameters.
  double log_marginal_likelihood() const;

  const Kernel& kernel() const { return kernel_; }
  double noise_variance() const;  // standardized units

  /// Direct hyperparameter control (log space, layout: kernel hypers then
  /// log noise variance). Used by tests and by warm-started refits.
  la::Vector log_hyper() const;
  void set_log_hyper(const la::Vector& h);

 private:
  double neg_log_marginal_likelihood(const la::Vector& log_hyper,
                                     const la::Matrix& x,
                                     const la::Vector& y_std) const;
  /// Factors K at log_hyper over (x, y) and only then replaces the model's
  /// data, hyperparameters and predictive state.
  void install(la::Matrix x, la::Vector y, const la::Vector& log_hyper);

  GpOptions options_;
  Kernel kernel_;
  double log_noise_ = std::log(1e-4);

  bool fitted_ = false;
  la::Matrix x_;       // training inputs
  la::Vector y_raw_;   // original outputs
  la::Vector y_std_;   // standardized outputs
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;
  std::optional<la::Cholesky> chol_;  // of K + noise I
  la::Vector alpha_;                  // (K + noise I)^-1 y_std
};

}  // namespace gptc::gp
