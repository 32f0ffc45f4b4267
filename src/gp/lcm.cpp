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

  using Surrogate::predict;
  void predict(std::span<const la::Vector> x,
               std::span<Prediction> out) const override {
    model_->predict(task_, x, out);
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

/// Unit-variance Matern-5/2 latent kernel at squared scaled distance r2,
/// and the factor g with dk/dlog l_m = g * ((xi_m - xj_m) / l_m)^2.
struct Latent {
  double k, g;
};

inline Latent matern(double r2) {
  const double r = std::sqrt(r2);
  const double a = std::sqrt(5.0) * r;
  const double e = std::exp(-a);
  return {(1.0 + a + 5.0 * r2 / 3.0) * e, 5.0 / 3.0 * (1.0 + a) * e};
}

/// r2[j] = sum_m ((x_m - xt(m, j)) / l_m)^2 for the first `count` columns
/// of xt (the stacked rows, transposed): one j-contiguous pass per
/// dimension, two columns per step, so every r2[j] adds its terms in m
/// order from 0.0, as a one-pair loop would. The division stays a
/// division: a reciprocal multiply would change the bits.
inline void scaled_r2(std::size_t dim, const double* l, const double* x,
                      const la::Matrix& xt, std::size_t count, double* r2) {
  std::fill(r2, r2 + count, 0.0);
  for (std::size_t m = 0; m < dim; ++m) {
    const double xm = x[m], lm = l[m];
    const double* col = xt.row(m).data();
    std::size_t j = 0;
    for (; j + 2 <= count; j += 2) {
      const double d0 = (xm - col[j]) / lm, d1 = (xm - col[j + 1]) / lm;
      r2[j] += d0 * d0;
      r2[j + 1] += d1 * d1;
    }
    if (j < count) {
      const double d = (xm - col[j]) / lm;
      r2[j] += d * d;
    }
  }
}

/// R = L^-1 into the lower triangle of r by row-oriented forward
/// substitution: row i = (e_i - sum_{k<i} L_ik row k) / L_ii, four k per
/// pass over the row: entries c <= k take the terms k..k+3 in order (two
/// entries per step), and entries k+1..k+3 of the pass's own triangle take
/// theirs, so each entry subtracts in k order. (A 4 x 4 tile of rows and
/// columns measured slower: see EXPERIMENTS.md.)
void invert_lower(const la::Matrix& l, la::Matrix& r) {
  const std::size_t n = l.rows();
  for (std::size_t i = 0; i < n; ++i) {
    double* ri = r.row(i).data();
    const double* li = l.row(i).data();
    std::fill(ri, ri + i + 1, 0.0);
    ri[i] = 1.0;
    std::size_t k = 0;
    for (; k + 4 <= i; k += 4) {
      const double a0 = li[k], a1 = li[k + 1], a2 = li[k + 2], a3 = li[k + 3];
      const double* r0 = r.row(k).data();
      const double* r1 = r.row(k + 1).data();
      const double* r2 = r.row(k + 2).data();
      const double* r3 = r.row(k + 3).data();
      std::size_t c = 0;
      for (; c + 2 <= k + 1; c += 2) {
        const double s0 = ri[c], s1 = ri[c + 1];
        const double b0 = r0[c], b1 = r0[c + 1], d0 = r1[c], d1 = r1[c + 1];
        const double e0 = r2[c], e1 = r2[c + 1], f0 = r3[c], f1 = r3[c + 1];
        ri[c] = s0 - a0 * b0 - a1 * d0 - a2 * e0 - a3 * f0;
        ri[c + 1] = s1 - a0 * b1 - a1 * d1 - a2 * e1 - a3 * f1;
      }
      if (c <= k)
        ri[c] = ri[c] - a0 * r0[c] - a1 * r1[c] - a2 * r2[c] - a3 * r3[c];
      ri[k + 1] =
          ri[k + 1] - a1 * r1[k + 1] - a2 * r2[k + 1] - a3 * r3[k + 1];
      ri[k + 2] = ri[k + 2] - a2 * r2[k + 2] - a3 * r3[k + 2];
      ri[k + 3] -= a3 * r3[k + 3];
    }
    for (; k < i; ++k) {
      const double* rk = r.row(k).data();
      for (std::size_t c = 0; c <= k; ++c) ri[c] -= li[k] * rk[c];
    }
    const double lii = li[i];
    for (std::size_t c = 0; c <= i; ++c) ri[c] /= lii;
  }
}

/// Row i of W = alpha alpha^T - R^T R (R = L^-1, rows r_k), entries
/// j0..i: entry (i, j) starts at alpha_i alpha_j and subtracts r_k[i] r_k[j]
/// for k = i..n-1 ascending, four entries at a time sharing each r_k[i].
void w_row(const la::Matrix& r, const la::Vector& alpha, la::Matrix& w,
           std::size_t i, std::size_t j0) {
  const std::size_t n = r.rows();
  double* wi = w.row(i).data();
  const double ai = alpha[i];
  std::size_t j = j0;
  for (; j + 4 <= i + 1; j += 4) {
    double s0 = ai * alpha[j], s1 = ai * alpha[j + 1], s2 = ai * alpha[j + 2],
           s3 = ai * alpha[j + 3];
    for (std::size_t k = i; k < n; ++k) {
      const double* rk = r.row(k).data();
      const double rki = rk[i];
      s0 -= rki * rk[j];
      s1 -= rki * rk[j + 1];
      s2 -= rki * rk[j + 2];
      s3 -= rki * rk[j + 3];
    }
    wi[j] = s0;
    wi[j + 1] = s1;
    wi[j + 2] = s2;
    wi[j + 3] = s3;
  }
  for (; j <= i; ++j) {
    double s = ai * alpha[j];
    for (std::size_t k = i; k < n; ++k) {
      const double* rk = r.row(k).data();
      s -= rk[i] * rk[j];
    }
    wi[j] = s;
  }
}

/// W = alpha alpha^T - K^-1 with K^-1 = sum_k r_k r_k^T into the lower
/// triangle of w, every entry's terms in w_row's order. Rows go four at a
/// time: left of the diagonal block, a 4 x 4 register tile of entries runs
/// the rows' own leading triangle (row i0 + a starts at k = i0 + a), then
/// every k past it; the diagonal block and the last n % 4 rows go through
/// w_row.
void w_matrix(const la::Matrix& r, const la::Vector& alpha, la::Matrix& w) {
  const std::size_t n = r.rows();
  std::size_t i0 = 0;
  for (; i0 + 4 <= n; i0 += 4) {
    for (std::size_t j0 = 0; j0 + 4 <= i0; j0 += 4) {
      double s[4][4];
      for (std::size_t a = 0; a < 4; ++a)
        for (std::size_t b = 0; b < 4; ++b)
          s[a][b] = alpha[i0 + a] * alpha[j0 + b];
      for (std::size_t kk = 0; kk < 3; ++kk) {
        const double* rk = r.row(i0 + kk).data();
        for (std::size_t a = 0; a <= kk; ++a) {
          const double rki = rk[i0 + a];
          for (std::size_t b = 0; b < 4; ++b) s[a][b] -= rki * rk[j0 + b];
        }
      }
      for (std::size_t k = i0 + 3; k < n; ++k) {
        const double* rk = r.row(k).data();
        const double ri0 = rk[i0], ri1 = rk[i0 + 1], ri2 = rk[i0 + 2],
                     ri3 = rk[i0 + 3];
        for (std::size_t b = 0; b < 4; ++b) {
          const double rj = rk[j0 + b];
          s[0][b] -= ri0 * rj;
          s[1][b] -= ri1 * rj;
          s[2][b] -= ri2 * rj;
          s[3][b] -= ri3 * rj;
        }
      }
      for (std::size_t a = 0; a < 4; ++a)
        for (std::size_t b = 0; b < 4; ++b) w(i0 + a, j0 + b) = s[a][b];
    }
    for (std::size_t i = i0; i < i0 + 4; ++i) w_row(r, alpha, w, i, i0);
  }
  for (; i0 < n; ++i0) w_row(r, alpha, w, i0, 0);
}

}  // namespace

void LcmModel::cov_row(const Stacked& data, const Unpacked& u,
                       std::size_t task, const double* x, std::size_t count,
                       double* out, double* r2, double* k, double* g) const {
  const std::size_t nq = options_.num_latent;
  std::fill(out, out + count, 0.0);
  for (std::size_t q = 0; q < nq; ++q) {
    scaled_r2(dim_, u.lengthscale.data() + q * dim_, x, data.xt, count, r2);
    const double* b = u.coreg.data() + (q * num_tasks_ + task) * num_tasks_;
    for (std::size_t j = 0; j < count; ++j) {
      const Latent lk = matern(r2[j]);
      if (k) {
        k[j * nq + q] = lk.k;
        g[j * nq + q] = lk.g;
      }
      out[j] += b[data.task_of[j]] * lk.k;
    }
  }
}

/// Scratch for the likelihood's two stages, sized once per fit start and
/// reused by every evaluation of that start.
struct LcmModel::Workspace {
  Workspace(std::size_t n, std::size_t nq, std::size_t t, std::size_t dim)
      : km(n, n),
        k(n * (n + 1) / 2 * nq),
        g(k.size()),
        linv(n, n),
        w(n, n),
        row(n),
        coef(n),
        task_sum(nq * t * t),
        length_sum(nq * dim),
        noise_sum(t) {}

  la::Matrix km;     // K, factored in place into L and handed back
  la::Vector theta;  // of the last value stage, and its unpacked tables
  Unpacked u;
  la::Vector alpha;  // K^-1 y
  la::Vector k, g;  // [p * Q + q]: latent q at pair p (i >= j, row by row)
  la::Matrix linv;  // L^-1, lower triangle
  la::Matrix w;     // alpha alpha^T - K^-1, lower triangle
  la::Vector row, coef;  // per-row scratch of the assembly and gradient
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
  data.xt = data.x.transposed();
  data.y_std = la::Vector(ys.begin(), ys.end());
  return data;
}

void LcmModel::stacked_covariance(const Stacked& data, const Unpacked& u,
                                  la::Matrix& km, Workspace* ws) const {
  const std::size_t n = data.x.rows(), nq = options_.num_latent;
  la::Vector local;
  if (!ws) local.resize(n);
  double* r2 = ws ? ws->row.data() : local.data();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = i * (i + 1) / 2 * nq;  // pair (i, 0)
    double* ki = km.row(i).data();
    cov_row(data, u, data.task_of[i], data.x.row(i).data(), i + 1, ki, r2,
            ws ? ws->k.data() + p : nullptr, ws ? ws->g.data() + p : nullptr);
    ki[i] += u.noise[data.task_of[i]];
  }
}

double LcmModel::bounds_penalty(const la::Vector& theta,
                                la::Vector* grad) const {
  // Smooth out-of-bounds penalty, so L-BFGS can walk back inside the box.
  const std::size_t nq = options_.num_latent, nt = num_tasks_;
  const HyperBounds& b = kHyperBounds;
  double penalty = 0.0;
  const auto pen = [&](std::size_t p, double lo, double hi) {
    const double v = theta[p];
    if (v < lo) {
      penalty += (lo - v) * (lo - v);
      if (grad) (*grad)[p] -= 200.0 * (lo - v);
    }
    if (v > hi) {
      penalty += (v - hi) * (v - hi);
      if (grad) (*grad)[p] += 200.0 * (v - hi);
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
  return penalty;
}

double LcmModel::nll_value(const Stacked& data, const la::Vector& theta,
                           Workspace& ws) const {
  const std::size_t n = data.x.rows();
  const double penalty = bounds_penalty(theta, nullptr);
  ws.theta = theta;
  ws.u = unpack(theta);
  stacked_covariance(data, ws.u, ws.km, &ws);
  std::optional<la::Cholesky> chol;
  try {
    chol.emplace(std::move(ws.km));
  } catch (const std::runtime_error&) {
    ws.km = la::Matrix(n, n);  // the failed factor took the storage with it
    return std::numeric_limits<double>::max();
  }
  ws.alpha = chol->solve(data.y_std);
  const double nll =
      0.5 * la::dot(data.y_std, ws.alpha) + 0.5 * chol->log_det() +
      0.5 * static_cast<double>(n) * std::log(2.0 * std::numbers::pi);
  ws.km = std::move(*chol).release();  // L, for the gradient stage
  return nll + 100.0 * penalty;
}

void LcmModel::nll_gradient(const Stacked& data, Workspace& ws,
                            la::Vector& grad) const {
  const std::size_t n = data.x.rows(), nq = options_.num_latent,
                    nt = num_tasks_;
  const la::Vector& theta = ws.theta;
  const Unpacked& u = ws.u;
  std::fill(grad.begin(), grad.end(), 0.0);
  bounds_penalty(theta, &grad);
  invert_lower(ws.km, ws.linv);
  w_matrix(ws.linv, ws.alpha, ws.w);

  // dNLL/dtheta_p = -1/2 sum_ij W_ij dK_ij/dtheta_p, summed over the pairs
  // i >= j (off-diagonal pairs count twice). Every accumulator takes its
  // terms in pair order, row by row: per latent, a task-pair sum takes a
  // run of same-task columns in one register, and the lengthscale sums go
  // four dimensions per pass over the row.
  std::fill(ws.task_sum.begin(), ws.task_sum.end(), 0.0);
  std::fill(ws.length_sum.begin(), ws.length_sum.end(), 0.0);
  std::fill(ws.noise_sum.begin(), ws.noise_sum.end(), 0.0);
  double* wrow = ws.row.data();
  double* coef = ws.coef.data();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t ti = data.task_of[i];
    const double* xi = data.x.row(i).data();
    const double* wi = ws.w.row(i).data();
    for (std::size_t j = 0; j < i; ++j) wrow[j] = 2.0 * wi[j];
    wrow[i] = wi[i];
    ws.noise_sum[ti] += wrow[i];
    const std::size_t p0 = i * (i + 1) / 2;  // pair (i, 0)
    for (std::size_t q = 0; q < nq; ++q) {
      const double* kq = ws.k.data() + p0 * nq + q;
      const double* gq = ws.g.data() + p0 * nq + q;
      for (std::size_t j = 0; j <= i;) {
        const std::size_t tj = data.task_of[j];
        const std::size_t bq = (q * nt + ti) * nt + tj;
        const double bij = u.coreg[bq];
        double sum = ws.task_sum[bq];
        for (; j <= i && data.task_of[j] == tj; ++j) {
          sum += wrow[j] * kq[j * nq];
          coef[j] = wrow[j] * bij * gq[j * nq];
        }
        ws.task_sum[bq] = sum;
      }
      double* acc = ws.length_sum.data() + q * dim_;
      std::size_t m = 0;
      for (; m + 4 <= dim_; m += 4) {
        const double x0 = xi[m], x1 = xi[m + 1], x2 = xi[m + 2],
                     x3 = xi[m + 3];
        const double* c0 = data.xt.row(m).data();
        const double* c1 = data.xt.row(m + 1).data();
        const double* c2 = data.xt.row(m + 2).data();
        const double* c3 = data.xt.row(m + 3).data();
        double s0 = acc[m], s1 = acc[m + 1], s2 = acc[m + 2], s3 = acc[m + 3];
        for (std::size_t j = 0; j <= i; ++j) {
          const double d0 = x0 - c0[j], d1 = x1 - c1[j], d2 = x2 - c2[j],
                       d3 = x3 - c3[j];
          s0 += coef[j] * d0 * d0;
          s1 += coef[j] * d1 * d1;
          s2 += coef[j] * d2 * d2;
          s3 += coef[j] * d3 * d3;
        }
        acc[m] = s0;
        acc[m + 1] = s1;
        acc[m + 2] = s2;
        acc[m + 3] = s3;
      }
      for (; m < dim_; ++m) {
        const double xm = xi[m];
        const double* col = data.xt.row(m).data();
        double s = acc[m];
        for (std::size_t j = 0; j <= i; ++j) {
          const double d = xm - col[j];
          s += coef[j] * d * d;
        }
        acc[m] = s;
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
  const std::size_t noise_base = nq * (dim_ + 2 * nt);
  for (std::size_t t = 0; t < nt; ++t) {
    const double raw = std::exp(theta[noise_base + t]);
    if (raw > options_.min_noise)  // the clamp is flat below min_noise
      grad[noise_base + t] -= 0.5 * ws.noise_sum[t] * raw;
  }
}

double LcmModel::neg_log_likelihood(const la::Vector& theta,
                                    la::Vector& grad) const {
  if (!fitted_) throw std::logic_error("LCM not fitted");
  if (theta.size() != num_hyper())
    throw std::invalid_argument("LcmModel::neg_log_likelihood: bad size");
  Workspace ws(data_.x.rows(), options_.num_latent, num_tasks_, dim_);
  const double value = nll_value(data_, theta, ws);
  grad.assign(theta.size(), 0.0);
  if (value != std::numeric_limits<double>::max())
    nll_gradient(data_, ws, grad);
  return value;
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

  // A refit runs one start, from the previous theta: between BO iterations
  // the data grow by a row or so, and the optimum moves little. A cold fit
  // runs theta0 and fit_restarts jittered copies of it.
  std::vector<la::Vector> starts;
  if (fitted_) {
    starts.push_back(theta_);
  } else {
    starts.push_back(theta0);
    rng::Rng sub = rng.split("lcm-fit");
    for (int r = 0; r < options_.fit_restarts; ++r) {
      la::Vector th = theta0;
      for (double& v : th) v += sub.normal(0.0, 0.4);
      starts.push_back(std::move(th));
    }
  }
  // Starts share only the const stacked data; each has its own workspace.
  const opt::Result best = opt::multistart(
      options_.pool.get(), starts.size(), [&](std::size_t s) {
        Workspace ws(data.x.rows(), options_.num_latent, num_tasks_, dim_);
        return opt::lbfgs(
            [&](const la::Vector& th) { return nll_value(data, th, ws); },
            [&](la::Vector& grad) { nll_gradient(data, ws, grad); },
            starts[s], options_.fit_evaluations);
      });
  commit(std::move(data), best.x);
}

void LcmModel::commit(Stacked data, la::Vector theta) {
  Unpacked hyper = unpack(theta);
  la::Matrix km(data.x.rows(), data.x.rows());
  stacked_covariance(data, hyper, km, nullptr);
  la::Cholesky chol(std::move(km));
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

void LcmModel::predict(std::size_t task, std::span<const la::Vector> x,
                       std::span<Prediction> out) const {
  if (!fitted_) throw std::logic_error("LCM not fitted");
  if (task >= num_tasks_) throw std::out_of_range("LcmModel::predict: task");
  if (out.size() != x.size())
    throw std::invalid_argument("LcmModel::predict: span sizes");
  for (const la::Vector& xp : x)
    if (xp.size() != dim_)
      throw std::invalid_argument("LcmModel::predict: dim mismatch");

  // Column p of v is k* at x[p], then L^-1 k*: one forward solve serves
  // every point, and each column keeps the one-vector solve's bits. Until
  // the last loop, out[p] holds the standardized mean k*.alpha and v_p.v_p
  // (summed in row order from 0.0).
  const std::size_t n = data_.x.rows(), m = x.size();
  la::Matrix v(n, m);
  la::Vector kstar(n), r2(n);
  for (std::size_t p = 0; p < m; ++p) {
    cov_row(data_, hyper_, task, x[p].data(), n, kstar.data(), r2.data(),
            nullptr, nullptr);
    out[p] = {la::dot(kstar, alpha_), 0.0};
    for (std::size_t j = 0; j < n; ++j) v(j, p) = kstar[j];
  }
  chol_->solve_lower_in_place(v);
  for (std::size_t j = 0; j < n; ++j) {
    const double* vj = v.row(j).data();
    for (std::size_t p = 0; p < m; ++p) out[p].variance += vj[p] * vj[p];
  }
  double kss = 0.0;  // k_q(x, x) = 1 for every latent
  for (std::size_t q = 0; q < options_.num_latent; ++q)
    kss += hyper_.coreg[(q * num_tasks_ + task) * num_tasks_ + task];
  const double scale = data_.y_scale[task];
  for (Prediction& pr : out) {
    const double var_std = std::max(kss - pr.variance, 0.0);
    pr.mean = data_.y_mean[task] + scale * pr.mean;
    pr.variance = scale * scale * var_std;
  }
}

Prediction LcmModel::predict(std::size_t task, const la::Vector& x) const {
  Prediction p;
  predict(task, std::span<const la::Vector>(&x, 1),
          std::span<Prediction>(&p, 1));
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
