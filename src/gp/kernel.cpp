#include "gp/kernel.hpp"

#include <cmath>
#include <stdexcept>

namespace gptc::gp {

Kernel::Kernel(KernelKind kind, std::size_t dim) : kind_(kind), dim_(dim) {
  if (dim == 0) throw std::invalid_argument("Kernel: dim == 0");
  // Default: lengthscale 0.3 (a third of the unit cube), unit variance.
  la::Vector h(num_hyper(), 0.0);
  for (std::size_t i = 0; i < dim_; ++i) h[i] = std::log(0.3);
  set_log_hyper(std::move(h));
}

void Kernel::set_log_hyper(la::Vector h) {
  if (h.size() != num_hyper())
    throw std::invalid_argument("Kernel::set_log_hyper: size mismatch");
  log_hyper_ = std::move(h);
  lengthscale_.resize(dim_);
  for (std::size_t i = 0; i < dim_; ++i)
    lengthscale_[i] = std::exp(log_hyper_[i]);
  sf2_ = std::exp(log_hyper_[dim_]);
}

double Kernel::signal_variance() const { return sf2_; }

double Kernel::lengthscale(std::size_t i) const { return lengthscale_[i]; }

double Kernel::operator()(std::span<const double> x,
                          std::span<const double> y) const {
  if (x.size() != dim_ || y.size() != dim_)
    throw std::invalid_argument("Kernel: point dimension mismatch");
  return eval(x.data(), y.data());
}

double Kernel::eval(const double* x, const double* y) const {
  double r2 = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) {
    const double d = (x[i] - y[i]) / lengthscale_[i];
    r2 += d * d;
  }
  switch (kind_) {
    case KernelKind::SquaredExponential:
      return sf2_ * std::exp(-0.5 * r2);
    case KernelKind::Matern52: {
      const double r = std::sqrt(r2);
      const double a = std::sqrt(5.0) * r;
      return sf2_ * (1.0 + a + 5.0 * r2 / 3.0) * std::exp(-a);
    }
  }
  return 0.0;
}

la::Matrix Kernel::gram(const la::Matrix& x) const {
  if (x.rows() > 0 && x.cols() != dim_)
    throw std::invalid_argument("Kernel: point dimension mismatch");
  const std::size_t n = x.rows();
  la::Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* xi = x.row(i).data();
    k(i, i) = eval(xi, xi);
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = eval(xi, x.row(j).data());
      k(i, j) = v;
      k(j, i) = v;
    }
  }
  return k;
}

la::Matrix Kernel::cross(const la::Matrix& x, const la::Matrix& z) const {
  if ((x.rows() > 0 && x.cols() != dim_) || (z.rows() > 0 && z.cols() != dim_))
    throw std::invalid_argument("Kernel: point dimension mismatch");
  la::Matrix k(x.rows(), z.rows());
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t j = 0; j < z.rows(); ++j)
      k(i, j) = eval(x.row(i).data(), z.row(j).data());
  return k;
}

}  // namespace gptc::gp
