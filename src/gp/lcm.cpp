#include "gp/lcm.hpp"

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
  if (options_.max_samples_per_task == 0)
    throw std::invalid_argument("LcmModel: max_samples_per_task == 0");
}

std::size_t LcmModel::num_hyper() const {
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

namespace {

/// Unit-variance Matern-5/2 latent kernel k(xi, xj) under lengthscales l,
/// and the factor g with dk/dlog l_m = g * ((xi_m - xj_m) / l_m)^2.
struct Latent {
  double k, g;
};

inline Latent latent_kernel(std::size_t dim, const double* l, const double* xi,
                            const double* xj) {
  double r2 = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    const double d = (xi[i] - xj[i]) / l[i];
    r2 += d * d;
  }
  const double r = std::sqrt(r2);
  const double a = std::sqrt(5.0) * r;
  const double e = std::exp(-a);
  return {(1.0 + a + 5.0 * r2 / 3.0) * e, 5.0 / 3.0 * (1.0 + a) * e};
}

}  // namespace

double LcmModel::cov_entry(const Unpacked& u, std::size_t task_i,
                           std::span<const double> xi, std::size_t task_j,
                           std::span<const double> xj) const {
  double v = 0.0;
  for (std::size_t q = 0; q < options_.num_latent; ++q)
    v += u.coreg[(q * num_tasks_ + task_i) * num_tasks_ + task_j] *
         latent_kernel(dim_, u.lengthscale.data() + q * dim_, xi.data(),
                       xj.data())
             .k;
  return v;
}

/// Scratch for nll_and_gradient, sized once per fit start and reused by
/// every evaluation of that start.
struct LcmModel::Workspace {
  Workspace(std::size_t n, std::size_t nq, std::size_t t, std::size_t dim)
      : k(n * (n + 1) / 2 * nq),
        g(k.size()),
        linv(n, n),
        w(n, n),
        task_sum(nq * t * t),
        length_sum(nq * dim),
        noise_sum(t) {}

  la::Vector k, g;  // [p * Q + q]: latent q at pair p (i >= j, row by row)
  la::Matrix linv;  // L^-1, lower triangle
  la::Matrix w;     // alpha alpha^T - K^-1, lower triangle
  // Gradient accumulators: per latent and task pair, sum of W_ij k_q; per
  // latent and dimension, sum of W_ij B_q g_q (x_i - x_j)^2; per task,
  // sum of W_ii.
  la::Vector task_sum, length_sum, noise_sum;
};

LcmModel::Stacked LcmModel::stack(const std::vector<TaskData>& tasks,
                                  rng::Rng& rng) const {
  if (tasks.size() != num_tasks_)
    throw std::invalid_argument("LcmModel::fit: task count mismatch");
  bool any = false;
  for (const TaskData& td : tasks) {
    if (td.x.rows() != td.y.size())
      throw std::invalid_argument("LcmModel::fit: shape mismatch");
    if (td.x.rows() > 0 && td.x.cols() != dim_)
      throw std::invalid_argument("LcmModel::fit: dim mismatch");
    for (double v : td.x.data())
      if (!std::isfinite(v))
        throw std::invalid_argument("LcmModel::fit: non-finite input");
    for (double v : td.y)
      if (!std::isfinite(v))
        throw std::invalid_argument("LcmModel::fit: non-finite output");
    any = any || td.x.rows() > 0;
  }
  if (!any)
    throw std::invalid_argument("LcmModel::fit: no samples in any task");

  Stacked data;
  data.y_mean.assign(num_tasks_, 0.0);
  data.y_scale.assign(num_tasks_, 1.0);
  data.n_per_task.assign(num_tasks_, 0);
  std::vector<la::Vector> rows;
  std::vector<double> ys;
  for (std::size_t t = 0; t < num_tasks_; ++t) {
    const TaskData& td = tasks[t];
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
      data.y_mean[t] = mean;
      data.y_scale[t] = var > 1e-24 ? std::sqrt(var) : 1.0;
    }
    for (auto i : keep) {
      rows.emplace_back(td.x.row(i).begin(), td.x.row(i).end());
      ys.push_back((td.y[i] - data.y_mean[t]) / data.y_scale[t]);
      data.task_of.push_back(t);
    }
    data.n_per_task[t] = keep.size();
  }
  data.x = la::Matrix::from_rows(rows);
  data.y_std = la::Vector(ys.begin(), ys.end());
  return data;
}

la::Matrix LcmModel::stacked_covariance(const Stacked& data,
                                        const Unpacked& u,
                                        Workspace* ws) const {
  const std::size_t n = data.x.rows(), nq = options_.num_latent;
  la::Matrix km(n, n);
  std::size_t p = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t ti = data.task_of[i];
    const double* xi = data.x.row(i).data();
    for (std::size_t j = 0; j <= i; ++j, ++p) {
      const std::size_t tj = data.task_of[j];
      double v = 0.0;
      for (std::size_t q = 0; q < nq; ++q) {
        const Latent lk = latent_kernel(
            dim_, u.lengthscale.data() + q * dim_, xi, data.x.row(j).data());
        if (ws) {
          ws->k[p * nq + q] = lk.k;
          ws->g[p * nq + q] = lk.g;
        }
        v += u.coreg[(q * num_tasks_ + ti) * num_tasks_ + tj] * lk.k;
      }
      if (i == j) v += u.noise[ti];
      km(i, j) = v;
      km(j, i) = v;
    }
  }
  return km;
}

double LcmModel::nll_and_gradient(const Stacked& data, const la::Vector& theta,
                                  la::Vector& grad, Workspace& ws) const {
  const std::size_t n = data.x.rows(), nq = options_.num_latent,
                    nt = num_tasks_;
  std::fill(grad.begin(), grad.end(), 0.0);

  // Smooth out-of-bounds penalty, so L-BFGS can walk back inside the box.
  const auto& b = options_.bounds;
  double penalty = 0.0;
  const auto pen = [&](std::size_t p, double lo, double hi) {
    const double v = theta[p];
    if (v < lo) {
      penalty += (lo - v) * (lo - v);
      grad[p] -= 200.0 * (lo - v);
    }
    if (v > hi) {
      penalty += (v - hi) * (v - hi);
      grad[p] += 200.0 * (v - hi);
    }
  };
  for (std::size_t q = 0; q < nq; ++q) {
    const std::size_t base = q * (dim_ + 2 * nt);
    for (std::size_t i = 0; i < dim_; ++i)
      pen(base + i, b.log_lengthscale_min, b.log_lengthscale_max);
    for (std::size_t t = 0; t < nt; ++t) {
      pen(base + dim_ + t, -4.0, 4.0);  // a weights
      pen(base + dim_ + nt + t, b.log_signal_min, 2.0);
    }
  }
  const std::size_t noise_base = nq * (dim_ + 2 * nt);
  for (std::size_t t = 0; t < nt; ++t)
    pen(noise_base + t, b.log_noise_min, b.log_noise_max);

  const Unpacked u = unpack(theta);
  std::optional<la::Cholesky> chol;
  try {
    chol.emplace(stacked_covariance(data, u, &ws));
  } catch (const std::runtime_error&) {
    std::fill(grad.begin(), grad.end(), 0.0);
    return std::numeric_limits<double>::max();
  }
  const la::Vector alpha = chol->solve(data.y_std);
  const double nll =
      0.5 * la::dot(data.y_std, alpha) + 0.5 * chol->log_det() +
      0.5 * static_cast<double>(n) * std::log(2.0 * std::numbers::pi);

  // L^-1 by row-oriented forward substitution:
  // row i = (e_i - sum_{k<i} L_ik row k) / L_ii.
  const la::Matrix& l = chol->lower();
  for (std::size_t i = 0; i < n; ++i) {
    double* ri = ws.linv.row(i).data();
    std::fill(ri, ri + i + 1, 0.0);
    ri[i] = 1.0;
    for (std::size_t k = 0; k < i; ++k) {
      const double lik = l(i, k);
      const double* rk = ws.linv.row(k).data();
      for (std::size_t c = 0; c <= k; ++c) ri[c] -= lik * rk[c];
    }
    const double lii = l(i, i);
    for (std::size_t c = 0; c <= i; ++c) ri[c] /= lii;
  }
  // W = alpha alpha^T - K^-1 with K^-1 = sum_k r_k r_k^T over the rows r_k
  // of L^-1, added in k order (lower triangle only).
  for (std::size_t i = 0; i < n; ++i) {
    double* wi = ws.w.row(i).data();
    for (std::size_t j = 0; j <= i; ++j) wi[j] = alpha[i] * alpha[j];
  }
  for (std::size_t k = 0; k < n; ++k) {
    const double* rk = ws.linv.row(k).data();
    for (std::size_t i = 0; i <= k; ++i) {
      const double rki = rk[i];
      double* wi = ws.w.row(i).data();
      for (std::size_t j = 0; j <= i; ++j) wi[j] -= rki * rk[j];
    }
  }

  // dNLL/dtheta_p = -1/2 sum_ij W_ij dK_ij/dtheta_p, summed over the pairs
  // i >= j (off-diagonal pairs count twice).
  std::fill(ws.task_sum.begin(), ws.task_sum.end(), 0.0);
  std::fill(ws.length_sum.begin(), ws.length_sum.end(), 0.0);
  std::fill(ws.noise_sum.begin(), ws.noise_sum.end(), 0.0);
  std::size_t p = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t ti = data.task_of[i];
    const double* xi = data.x.row(i).data();
    for (std::size_t j = 0; j <= i; ++j, ++p) {
      const std::size_t tj = data.task_of[j];
      const double wij = (i == j ? 1.0 : 2.0) * ws.w(i, j);
      if (i == j) ws.noise_sum[ti] += wij;
      const double* xj = data.x.row(j).data();
      for (std::size_t q = 0; q < nq; ++q) {
        const std::size_t bq = (q * nt + ti) * nt + tj;
        ws.task_sum[bq] += wij * ws.k[p * nq + q];
        const double c = wij * u.coreg[bq] * ws.g[p * nq + q];
        double* acc = ws.length_sum.data() + q * dim_;
        for (std::size_t m = 0; m < dim_; ++m) {
          const double d = xi[m] - xj[m];
          acc[m] += c * d * d;
        }
      }
    }
  }
  for (std::size_t q = 0; q < nq; ++q) {
    const std::size_t base = q * (dim_ + 2 * nt);
    for (std::size_t m = 0; m < dim_; ++m) {
      const double lm = u.lengthscale[q * dim_ + m];
      grad[base + m] -= 0.5 * ws.length_sum[q * dim_ + m] / (lm * lm);
    }
    // dB_q/da_t = e_t a^T + a e_t^T; dB_q/dlog kappa_t = kappa_t e_t e_t^T.
    for (std::size_t s = 0; s < nt; ++s) {
      for (std::size_t t = 0; t < nt; ++t) {
        const double sum = ws.task_sum[(q * nt + s) * nt + t];
        grad[base + dim_ + s] -= 0.5 * sum * theta[base + dim_ + t];
        grad[base + dim_ + t] -= 0.5 * sum * theta[base + dim_ + s];
        if (s == t)
          grad[base + dim_ + nt + s] -=
              0.5 * sum * std::exp(theta[base + dim_ + nt + s]);
      }
    }
  }
  for (std::size_t t = 0; t < nt; ++t) {
    const double raw = std::exp(theta[noise_base + t]);
    if (raw > options_.min_noise)  // the clamp is flat below min_noise
      grad[noise_base + t] -= 0.5 * ws.noise_sum[t] * raw;
  }
  return nll + 100.0 * penalty;
}

double LcmModel::neg_log_likelihood(const la::Vector& theta,
                                    la::Vector& grad) const {
  if (!fitted_) throw std::logic_error("LCM not fitted");
  if (theta.size() != num_hyper())
    throw std::invalid_argument("LcmModel::neg_log_likelihood: bad size");
  grad.assign(theta.size(), 0.0);
  Workspace ws(data_.x.rows(), options_.num_latent, num_tasks_, dim_);
  return nll_and_gradient(data_, theta, grad, ws);
}

void LcmModel::fit(std::vector<TaskData> tasks, rng::Rng& rng) {
  Stacked data = stack(tasks, rng);

  // Initial hyperparameters: medium lengthscales, positive cross-task
  // correlation, small diagonals and noise.
  la::Vector theta0(num_hyper(), 0.0);
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

  std::vector<la::Vector> starts;
  if (fitted_ && theta_.size() == num_hyper())
    starts.push_back(theta_);  // warm start across BO iterations
  starts.push_back(theta0);
  rng::Rng sub = rng.split("lcm-fit");
  for (int r = 0; r < options_.fit_restarts; ++r) {
    la::Vector th = theta0;
    for (double& v : th) v += sub.normal(0.0, 0.4);
    starts.push_back(std::move(th));
  }
  // Starts share only the const stacked data; each has its own workspace.
  const opt::Result best = opt::multistart(
      options_.pool.get(), starts.size(), [&](std::size_t s) {
        Workspace ws(data.x.rows(), options_.num_latent, num_tasks_, dim_);
        return opt::lbfgs(
            [&](const la::Vector& th, la::Vector& grad) {
              return nll_and_gradient(data, th, grad, ws);
            },
            starts[s], options_.fit_evaluations);
      });
  commit(std::move(data), best.x);
}

void LcmModel::commit(Stacked data, la::Vector theta) {
  Unpacked hyper = unpack(theta);
  la::Cholesky chol(stacked_covariance(data, hyper, nullptr));
  la::Vector alpha = chol.solve(data.y_std);
  data_ = std::move(data);
  theta_ = std::move(theta);
  hyper_ = std::move(hyper);
  chol_.emplace(std::move(chol));
  alpha_ = std::move(alpha);
  fitted_ = true;
}

std::size_t LcmModel::num_samples(std::size_t task) const {
  if (task >= num_tasks_) throw std::out_of_range("LcmModel::num_samples");
  return fitted_ ? data_.n_per_task[task] : 0;
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

  const std::size_t n = data_.x.rows();
  const std::span<const double> xs(x.data(), x.size());
  la::Vector kstar(n);
  for (std::size_t i = 0; i < n; ++i)
    kstar[i] = cov_entry(hyper_, task, xs, data_.task_of[i], data_.x.row(i));
  const double mean_std = la::dot(kstar, alpha_);
  const la::Vector v = chol_->solve_lower(kstar);
  const double kss = cov_entry(hyper_, task, xs, task, xs);
  const double var_std = std::max(kss - la::dot(v, v), 0.0);

  Prediction p;
  p.mean = data_.y_mean[task] + data_.y_scale[task] * mean_std;
  p.variance = data_.y_scale[task] * data_.y_scale[task] * var_std;
  return p;
}

SurrogatePtr LcmModel::task_view(std::shared_ptr<const LcmModel> model,
                                 std::size_t task) {
  if (!model) throw std::invalid_argument("LcmModel::task_view: null model");
  if (task >= model->num_tasks())
    throw std::out_of_range("LcmModel::task_view: task");
  return std::make_shared<LcmTaskView>(std::move(model), task);
}

SurrogatePtr fit_single_task(std::size_t dim, TaskData data,
                             const LcmOptions& options, rng::Rng& rng) {
  auto model = std::make_shared<LcmModel>(dim, 1, options);
  std::vector<TaskData> tasks;
  tasks.push_back(std::move(data));
  model->fit(std::move(tasks), rng);
  return LcmModel::task_view(std::move(model), 0);
}

}  // namespace gptc::gp
