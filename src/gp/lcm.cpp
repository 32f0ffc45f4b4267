#include "gp/lcm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "opt/optimize.hpp"

namespace gptc::gp {

namespace {

/// Surrogate adapter exposing one task of a shared LCM model.
class LcmTaskView final : public Surrogate {
 public:
  LcmTaskView(std::shared_ptr<const LcmModel> model, std::size_t task)
      : model_(std::move(model)), task_(task) {}

  Prediction predict(const la::Vector& x) const override {
    return model_->predict(task_, x);
  }
  std::size_t dim() const override { return model_->dim(); }

 private:
  std::shared_ptr<const LcmModel> model_;
  std::size_t task_;
};

}  // namespace

LcmModel::LcmModel(std::size_t dim, std::size_t num_tasks, LcmOptions options)
    : dim_(dim), num_tasks_(num_tasks), options_(options) {
  if (dim == 0) throw std::invalid_argument("LcmModel: dim == 0");
  if (num_tasks == 0) throw std::invalid_argument("LcmModel: no tasks");
  if (options_.num_latent == 0)
    throw std::invalid_argument("LcmModel: num_latent == 0");
}

std::size_t LcmModel::theta_size() const {
  // Per latent: d lengthscales + T coregionalization weights + T diagonals;
  // plus T per-task noise terms.
  return options_.num_latent * (dim_ + 2 * num_tasks_) + num_tasks_;
}

LcmModel::Unpacked LcmModel::unpack(const la::Vector& theta) const {
  const std::size_t nq = options_.num_latent, t = num_tasks_;
  Unpacked u;
  u.lengthscale.resize(nq * dim_);
  u.coreg.resize(nq * t * t);
  u.noise.resize(t);
  for (std::size_t q = 0; q < nq; ++q) {
    const std::size_t base = q * (dim_ + 2 * t);
    for (std::size_t i = 0; i < dim_; ++i)
      u.lengthscale[q * dim_ + i] = std::exp(theta[base + i]);
    // B_q = a a^T + diag(kappa).
    for (std::size_t i = 0; i < t; ++i) {
      for (std::size_t j = 0; j < t; ++j) {
        double v = theta[base + dim_ + i] * theta[base + dim_ + j];
        if (i == j) v += std::exp(theta[base + dim_ + t + i]);
        u.coreg[(q * t + i) * t + j] = v;
      }
    }
  }
  for (std::size_t i = 0; i < t; ++i)
    u.noise[i] = std::max(std::exp(theta[nq * (dim_ + 2 * t) + i]),
                          options_.min_noise);
  return u;
}

double LcmModel::cov_entry(const Unpacked& u, std::size_t task_i,
                           std::span<const double> xi, std::size_t task_j,
                           std::span<const double> xj) const {
  double v = 0.0;
  for (std::size_t q = 0; q < options_.num_latent; ++q) {
    // Unit-variance latent kernel k_q(xi, xj).
    const double* l = u.lengthscale.data() + q * dim_;
    double r2 = 0.0;
    for (std::size_t i = 0; i < dim_; ++i) {
      const double d = (xi[i] - xj[i]) / l[i];
      r2 += d * d;
    }
    double k = 0.0;
    switch (options_.kernel) {
      case KernelKind::SquaredExponential:
        k = std::exp(-0.5 * r2);
        break;
      case KernelKind::Matern52: {
        const double r = std::sqrt(r2);
        const double a = std::sqrt(5.0) * r;
        k = (1.0 + a + 5.0 * r2 / 3.0) * std::exp(-a);
        break;
      }
    }
    v += u.coreg[(q * num_tasks_ + task_i) * num_tasks_ + task_j] * k;
  }
  return v;
}

double LcmModel::neg_log_likelihood(const la::Vector& theta) const {
  const std::size_t n = x_.rows();
  // Smooth out-of-bounds penalty (same scheme as the single-task GP).
  const auto& b = options_.bounds;
  double penalty = 0.0;
  const auto pen = [&](double v, double lo, double hi) {
    if (v < lo) penalty += (lo - v) * (lo - v);
    if (v > hi) penalty += (v - hi) * (v - hi);
  };
  for (std::size_t q = 0; q < options_.num_latent; ++q) {
    const std::size_t base = q * (dim_ + 2 * num_tasks_);
    for (std::size_t i = 0; i < dim_; ++i)
      pen(theta[base + i], b.log_lengthscale_min, b.log_lengthscale_max);
    for (std::size_t t = 0; t < num_tasks_; ++t) {
      pen(theta[base + dim_ + t], -4.0, 4.0);  // a weights
      pen(theta[base + dim_ + num_tasks_ + t], b.log_signal_min, 2.0);
    }
  }
  const std::size_t noise_base =
      options_.num_latent * (dim_ + 2 * num_tasks_);
  for (std::size_t t = 0; t < num_tasks_; ++t)
    pen(theta[noise_base + t], b.log_noise_min, b.log_noise_max);

  la::Matrix km = stacked_covariance(unpack(theta));
  try {
    const la::Cholesky chol(std::move(km));
    const la::Vector alpha = chol.solve(y_std_);
    const double nll =
        0.5 * la::dot(y_std_, alpha) + 0.5 * chol.log_det() +
        0.5 * static_cast<double>(n) * std::log(2.0 * std::numbers::pi);
    return nll + 100.0 * penalty;
  } catch (const std::runtime_error&) {
    return std::numeric_limits<double>::max();
  }
}

void LcmModel::fit(std::vector<TaskData> tasks, rng::Rng& rng) {
  if (tasks.size() != num_tasks_)
    throw std::invalid_argument("LcmModel::fit: task count mismatch");

  // Subsample, standardize and stack.
  x_ = la::Matrix();
  task_of_.clear();
  y_std_.clear();
  y_mean_.assign(num_tasks_, 0.0);
  y_scale_.assign(num_tasks_, 1.0);
  n_per_task_.assign(num_tasks_, 0);

  std::vector<la::Vector> rows;
  std::vector<double> ys;
  for (std::size_t t = 0; t < num_tasks_; ++t) {
    auto& td = tasks[t];
    if (td.x.rows() != td.y.size())
      throw std::invalid_argument("LcmModel::fit: shape mismatch");
    if (td.x.rows() > 0 && td.x.cols() != dim_)
      throw std::invalid_argument("LcmModel::fit: dim mismatch");
    for (double v : td.y)
      if (!std::isfinite(v))
        throw std::invalid_argument("LcmModel::fit: non-finite output");

    std::vector<std::size_t> keep(td.x.rows());
    for (std::size_t i = 0; i < keep.size(); ++i) keep[i] = i;
    if (keep.size() > options_.max_samples_per_task) {
      rng::Rng sub = rng.split("lcm-subsample").split(t);
      keep = sub.permutation(keep.size());
      keep.resize(options_.max_samples_per_task);
      std::sort(keep.begin(), keep.end());
    }

    const auto nt = static_cast<double>(keep.size());
    if (!keep.empty()) {
      double mean = 0.0;
      for (auto i : keep) mean += td.y[i];
      mean /= nt;
      double var = 0.0;
      for (auto i : keep) var += (td.y[i] - mean) * (td.y[i] - mean);
      var /= nt;
      y_mean_[t] = mean;
      y_scale_[t] = var > 1e-24 ? std::sqrt(var) : 1.0;
    }
    for (auto i : keep) {
      rows.emplace_back(td.x.row(i).begin(), td.x.row(i).end());
      ys.push_back((td.y[i] - y_mean_[t]) / y_scale_[t]);
      task_of_.push_back(t);
    }
    n_per_task_[t] = keep.size();
  }
  if (rows.empty())
    throw std::invalid_argument("LcmModel::fit: no samples in any task");
  x_ = la::Matrix::from_rows(rows);
  y_std_ = la::Vector(ys.begin(), ys.end());

  // Initial hyperparameters: medium lengthscales, positive cross-task
  // correlation, small diagonals and noise.
  la::Vector theta0(theta_size(), 0.0);
  for (std::size_t q = 0; q < options_.num_latent; ++q) {
    const std::size_t base = q * (dim_ + 2 * num_tasks_);
    for (std::size_t i = 0; i < dim_; ++i) theta0[base + i] = std::log(0.3);
    for (std::size_t t = 0; t < num_tasks_; ++t) {
      theta0[base + dim_ + t] = 0.8;
      theta0[base + dim_ + num_tasks_ + t] = std::log(0.2);
    }
  }
  const std::size_t noise_base =
      options_.num_latent * (dim_ + 2 * num_tasks_);
  for (std::size_t t = 0; t < num_tasks_; ++t)
    theta0[noise_base + t] = std::log(1e-2);

  const auto objective = [&](const la::Vector& th) {
    return neg_log_likelihood(th);
  };
  std::vector<la::Vector> starts;
  if (fitted_ && theta_.size() == theta_size())
    starts.push_back(theta_);  // warm start across BO iterations
  starts.push_back(theta0);
  rng::Rng sub = rng.split("lcm-fit");
  for (int r = 0; r < options_.fit_restarts; ++r) {
    la::Vector th = theta0;
    for (double& v : th) v += sub.normal(0.0, 0.4);
    starts.push_back(std::move(th));
  }
  opt::NelderMeadOptions nm;
  nm.max_evaluations = options_.fit_evaluations;
  nm.initial_step = 0.4;
  nm.pool = options_.pool;  // objective is const over the stacked data
  const opt::Result best = opt::multistart_nelder_mead(objective, starts, nm);
  theta_ = best.x;
  fitted_ = true;
  compute_state();
}

la::Matrix LcmModel::stacked_covariance(const Unpacked& u) const {
  const std::size_t n = x_.rows();
  la::Matrix km(n, n);
  // Row block i fills the diagonal entry plus the upper row i and its
  // mirrored column — disjoint writes per i, so the blocks parallelize
  // without changing a single bit of the matrix.
  parallel::parallel_for(options_.pool.get(), n, [&](std::size_t i) {
    km(i, i) = cov_entry(u, task_of_[i], x_.row(i), task_of_[i], x_.row(i)) +
               u.noise[task_of_[i]];
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = cov_entry(u, task_of_[i], x_.row(i), task_of_[j],
                                 x_.row(j));
      km(i, j) = v;
      km(j, i) = v;
    }
  });
  return km;
}

void LcmModel::compute_state() {
  hyper_ = unpack(theta_);
  chol_.emplace(stacked_covariance(hyper_));
  alpha_ = chol_->solve(y_std_);
}

std::size_t LcmModel::num_samples(std::size_t task) const {
  if (task >= num_tasks_) throw std::out_of_range("LcmModel::num_samples");
  return fitted_ ? n_per_task_[task] : 0;
}

double LcmModel::task_covariance(std::size_t i, std::size_t j) const {
  if (!fitted_) throw std::logic_error("LCM not fitted");
  if (i >= num_tasks_ || j >= num_tasks_)
    throw std::out_of_range("LcmModel::task_covariance");
  double v = 0.0;
  for (std::size_t q = 0; q < options_.num_latent; ++q)
    v += hyper_.coreg[(q * num_tasks_ + i) * num_tasks_ + j];
  return v;
}

Prediction LcmModel::predict(std::size_t task, const la::Vector& x) const {
  if (!fitted_) throw std::logic_error("LCM not fitted");
  if (task >= num_tasks_) throw std::out_of_range("LcmModel::predict: task");
  if (x.size() != dim_)
    throw std::invalid_argument("LcmModel::predict: dim mismatch");

  const std::size_t n = x_.rows();
  const std::span<const double> xs(x.data(), x.size());
  la::Vector kstar(n);
  for (std::size_t i = 0; i < n; ++i)
    kstar[i] = cov_entry(hyper_, task, xs, task_of_[i], x_.row(i));
  const double mean_std = la::dot(kstar, alpha_);
  const la::Vector v = chol_->solve_lower(kstar);
  const double kss = cov_entry(hyper_, task, xs, task, xs);
  const double var_std = std::max(kss - la::dot(v, v), 0.0);

  Prediction p;
  p.mean = y_mean_[task] + y_scale_[task] * mean_std;
  p.variance = y_scale_[task] * y_scale_[task] * var_std;
  return p;
}

SurrogatePtr LcmModel::task_view(std::shared_ptr<const LcmModel> model,
                                 std::size_t task) {
  if (!model) throw std::invalid_argument("LcmModel::task_view: null model");
  if (task >= model->num_tasks())
    throw std::out_of_range("LcmModel::task_view: task");
  return std::make_shared<LcmTaskView>(std::move(model), task);
}

}  // namespace gptc::gp
