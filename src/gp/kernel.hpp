// Covariance kernels for Gaussian-process surrogates.
//
// Inputs are points in the encoded unit cube (see space::Space), so ARD
// lengthscales live on a common scale across parameters. Hyperparameters
// are exposed in log space — the fit optimizers work on unconstrained
// vectors.
#pragma once

#include <memory>
#include <string>

#include "la/matrix.hpp"

namespace gptc::gp {

enum class KernelKind { SquaredExponential, Matern52 };

/// Stationary ARD kernel: k(x, x') = s_f^2 * g(r), with
/// r^2 = sum_i ((x_i - x'_i) / l_i)^2 and g either the squared-exponential
/// exp(-r^2/2) or the Matérn-5/2 correlation.
class Kernel {
 public:
  Kernel(KernelKind kind, std::size_t dim);

  std::size_t dim() const { return dim_; }
  KernelKind kind() const { return kind_; }

  /// Number of hyperparameters: dim lengthscales + 1 signal variance.
  std::size_t num_hyper() const { return dim_ + 1; }

  /// Log-space hyperparameters, layout [log l_1..log l_d, log s_f^2].
  const la::Vector& log_hyper() const { return log_hyper_; }
  void set_log_hyper(la::Vector h);

  double signal_variance() const;
  double lengthscale(std::size_t i) const;

  /// k(x, x').
  double operator()(std::span<const double> x, std::span<const double> y) const;

  /// Dense kernel matrix K(X, X) for row-stacked points.
  la::Matrix gram(const la::Matrix& x) const;

  /// Cross-kernel matrix K(X, Z).
  la::Matrix cross(const la::Matrix& x, const la::Matrix& z) const;

 private:
  /// k(x, y) for points already known to have dim() coordinates.
  double eval(const double* x, const double* y) const;

  KernelKind kind_;
  std::size_t dim_;
  la::Vector log_hyper_;
  la::Vector lengthscale_;  // exp(log l_i), decoded once per set_log_hyper
  double sf2_ = 1.0;        // exp(log s_f^2)
};

/// Bounds used by hyperparameter optimizers (log space), wide enough for
/// unit-cube inputs: lengthscales in [e^-4.6, e^2] ~ [0.01, 7.4].
struct HyperBounds {
  double log_lengthscale_min = -4.6;
  double log_lengthscale_max = 2.0;
  double log_signal_min = -6.0;
  double log_signal_max = 4.0;
  double log_noise_min = -14.0;
  double log_noise_max = 1.0;
};

}  // namespace gptc::gp
