#include "gp/gaussian_process.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "opt/optimize.hpp"

namespace gptc::gp {

double Prediction::stddev() const {
  return std::sqrt(std::max(variance, 0.0));
}

GaussianProcess::GaussianProcess(std::size_t dim, GpOptions options)
    : options_(options), kernel_(options.kernel, dim) {}

la::Vector GaussianProcess::log_hyper() const {
  la::Vector h = kernel_.log_hyper();
  h.push_back(log_noise_);
  return h;
}

void GaussianProcess::set_log_hyper(const la::Vector& h) {
  if (h.size() != kernel_.num_hyper() + 1)
    throw std::invalid_argument("GaussianProcess::set_log_hyper: bad size");
  if (fitted_) {
    install(x_, y_raw_, h);
    return;
  }
  la::Vector kh(h.begin(), h.end() - 1);
  kernel_.set_log_hyper(std::move(kh));
  log_noise_ = h.back();
}

double GaussianProcess::noise_variance() const {
  return std::max(std::exp(log_noise_), options_.min_noise);
}

double GaussianProcess::neg_log_marginal_likelihood(
    const la::Vector& log_hyper, const la::Matrix& x,
    const la::Vector& y_std) const {
  // Penalize out-of-bounds hyperparameters smoothly so Nelder–Mead can walk
  // back inside the box.
  const auto& b = options_.bounds;
  double penalty = 0.0;
  const auto pen = [&](double v, double lo, double hi) {
    if (v < lo) penalty += (lo - v) * (lo - v);
    if (v > hi) penalty += (v - hi) * (v - hi);
  };
  const std::size_t d = kernel_.dim();
  for (std::size_t i = 0; i < d; ++i)
    pen(log_hyper[i], b.log_lengthscale_min, b.log_lengthscale_max);
  pen(log_hyper[d], b.log_signal_min, b.log_signal_max);
  pen(log_hyper[d + 1], b.log_noise_min, b.log_noise_max);

  Kernel k = kernel_;
  la::Vector kh(log_hyper.begin(), log_hyper.end() - 1);
  k.set_log_hyper(std::move(kh));
  const double noise =
      std::max(std::exp(log_hyper.back()), options_.min_noise);

  la::Matrix km = k.gram(x);
  km.add_diagonal(noise);
  try {
    const la::Cholesky chol(std::move(km));
    const la::Vector alpha = chol.solve(y_std);
    const auto n = static_cast<double>(x.rows());
    const double nll = 0.5 * la::dot(y_std, alpha) + 0.5 * chol.log_det() +
                       0.5 * n * std::log(2.0 * std::numbers::pi);
    return nll + 100.0 * penalty;
  } catch (const std::runtime_error&) {
    return std::numeric_limits<double>::max();
  }
}

namespace {

struct Standardized {
  la::Vector y;
  double mean = 0.0, scale = 1.0;
};

Standardized standardize(const la::Vector& y) {
  Standardized s;
  const auto n = static_cast<double>(y.size());
  for (double v : y) s.mean += v;
  s.mean /= n;
  double var = 0.0;
  for (double v : y) var += (v - s.mean) * (v - s.mean);
  var /= n;
  s.scale = var > 1e-24 ? std::sqrt(var) : 1.0;
  s.y.resize(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) s.y[i] = (y[i] - s.mean) / s.scale;
  return s;
}

}  // namespace

void GaussianProcess::fit(la::Matrix x, la::Vector y, rng::Rng& rng) {
  if (x.rows() == 0 || x.rows() != y.size())
    throw std::invalid_argument("GaussianProcess::fit: bad data shape");
  if (x.cols() != kernel_.dim())
    throw std::invalid_argument("GaussianProcess::fit: dim mismatch");
  for (double v : x.data())
    if (!std::isfinite(v))
      throw std::invalid_argument("GaussianProcess::fit: non-finite input");
  for (double v : y)
    if (!std::isfinite(v))
      throw std::invalid_argument(
          "GaussianProcess::fit: non-finite output (filter failures first)");

  // Hyperparameter optimization (skip for a single sample — the marginal
  // likelihood is then uninformative about lengthscales).
  la::Vector h = log_hyper();  // warm start from incumbent hypers
  if (x.rows() >= 2) {
    const la::Vector y_std = standardize(y).y;
    const auto objective = [&](const la::Vector& hh) {
      return neg_log_marginal_likelihood(hh, x, y_std);
    };
    std::vector<la::Vector> starts;
    starts.push_back(h);
    rng::Rng sub = rng.split("gp-fit");
    for (int r = 0; r < options_.fit_restarts; ++r) {
      la::Vector hr(kernel_.num_hyper() + 1);
      const auto& b = options_.bounds;
      for (std::size_t i = 0; i < kernel_.dim(); ++i)
        hr[i] = sub.uniform(std::log(0.05), std::log(2.0));
      hr[kernel_.dim()] = sub.uniform(-1.0, 1.0);       // log signal var
      hr[kernel_.dim() + 1] = sub.uniform(b.log_noise_min / 2.0, -2.0);
      starts.push_back(std::move(hr));
    }
    opt::NelderMeadOptions nm;
    nm.max_evaluations = options_.fit_evaluations;
    nm.initial_step = 0.5;
    nm.pool = options_.pool;  // objective is const over (x, y_std)
    h = opt::multistart_nelder_mead(objective, starts, nm).x;
  }
  install(std::move(x), std::move(y), h);
}

void GaussianProcess::refit_state(la::Matrix x, la::Vector y) {
  if (x.rows() == 0 || x.rows() != y.size())
    throw std::invalid_argument("GaussianProcess::refit_state: bad shape");
  install(std::move(x), std::move(y), log_hyper());
}

void GaussianProcess::install(la::Matrix x, la::Vector y,
                              const la::Vector& log_hyper) {
  Standardized s = standardize(y);
  Kernel kernel = kernel_;
  kernel.set_log_hyper(la::Vector(log_hyper.begin(), log_hyper.end() - 1));
  la::Matrix km = kernel.gram(x);
  km.add_diagonal(std::max(std::exp(log_hyper.back()), options_.min_noise));
  la::Cholesky chol(std::move(km));
  la::Vector alpha = chol.solve(s.y);
  kernel_ = std::move(kernel);
  log_noise_ = log_hyper.back();
  x_ = std::move(x);
  y_raw_ = std::move(y);
  y_std_ = std::move(s.y);
  y_mean_ = s.mean;
  y_scale_ = s.scale;
  chol_.emplace(std::move(chol));
  alpha_ = std::move(alpha);
  fitted_ = true;
}

double GaussianProcess::log_marginal_likelihood() const {
  if (!fitted_) throw std::logic_error("GP not fitted");
  const auto n = static_cast<double>(x_.rows());
  return -0.5 * la::dot(y_std_, alpha_) - 0.5 * chol_->log_det() -
         0.5 * n * std::log(2.0 * std::numbers::pi);
}

Prediction GaussianProcess::predict(const la::Vector& x) const {
  if (!fitted_) throw std::logic_error("GP not fitted");
  if (x.size() != kernel_.dim())
    throw std::invalid_argument("GaussianProcess::predict: dim mismatch");

  const std::size_t n = x_.rows();
  la::Vector kstar(n);
  for (std::size_t i = 0; i < n; ++i)
    kstar[i] = kernel_(x_.row(i), std::span<const double>(x.data(), x.size()));

  const double mean_std = la::dot(kstar, alpha_);
  const la::Vector v = chol_->solve_lower(kstar);
  const double kss =
      kernel_(std::span<const double>(x.data(), x.size()),
              std::span<const double>(x.data(), x.size()));
  const double var_std = std::max(kss - la::dot(v, v), 0.0);

  Prediction p;
  p.mean = y_mean_ + y_scale_ * mean_std;
  p.variance = y_scale_ * y_scale_ * var_std;
  return p;
}

}  // namespace gptc::gp
