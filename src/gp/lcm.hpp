// Linear Coregionalization Model (LCM) — the multitask Gaussian process
// behind GPTune's transfer learning (paper Sec. V-A).
//
// Given T tasks with (possibly unequal) sample sets {(X_t, y_t)}, the joint
// covariance between (task i, x) and (task j, x') is
//
//     K[(i,x),(j,x')] = sum_q B_q[i,j] * k_q(x, x') + delta * noise_i,
//
// with Q latent unit-variance kernels k_q and coregionalization matrices
// B_q = a_q a_q^T + diag(kappa_q) (rank-1 plus diagonal, guaranteeing
// positive semi-definiteness). The a_q entries model cross-task
// correlation — which is exactly what lets samples from a source task (say,
// NIMROD on 32 Haswell nodes) inform predictions for a target task (64
// nodes): correlated tasks share the latent processes.
//
// Supporting an unequal number of samples per task is the Multitask(TS)
// contribution of the paper: the model is built over the stacked sample
// set, not over a shared design.
//
// With one task and one latent, K = (a^2 + kappa) * k(x, x') + delta *
// noise is exactly a single-task GP with signal variance a^2 + kappa. That
// is the library's single-task GP: the NoTLA surrogate, the building block
// of WeightedSum, Stacking and Multitask(PS), and the first-evaluation
// model are all LcmModel(dim, 1, options) read through task_view(model, 0).
//
// The latent kernels are ARD Matern-5/2 over the encoded unit cube; every
// fit is multistart L-BFGS on the negative log marginal likelihood, with
// outputs standardized per task. The likelihood runs in two stages over
// one workspace: the value (covariance, factor, solve) at every line-search
// trial, the analytic gradient (L^-1, W, contractions) only at accepted
// ones.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "gp/surrogate.hpp"
#include "la/matrix.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"

namespace gptc::gp {

/// Per-task training data (raw outputs; caller filters failures).
struct TaskData {
  la::Matrix x;
  la::Vector y;
};

/// Bounds used by the hyperparameter fit (log space), wide enough for
/// unit-cube inputs: lengthscales in [e^-4.6, e^2] ~ [0.01, 7.4].
struct HyperBounds {
  double log_lengthscale_min = -4.6;
  double log_lengthscale_max = 2.0;
  double log_signal_min = -6.0;
  double log_noise_min = -14.0;
  double log_noise_max = 1.0;
};

/// The box every LCM fit's out-of-bounds penalty keeps theta inside.
inline constexpr HyperBounds kHyperBounds{};

struct LcmOptions {
  /// Number of latent kernels Q. 1–2 is enough for the task counts in the
  /// paper's experiments; cost grows linearly in Q.
  std::size_t num_latent = 1;
  /// Jittered starts on top of the default start theta_0, on a cold fit
  /// only (see fit).
  int fit_restarts = 1;
  /// L-BFGS budget per start: likelihood values, line-search trials
  /// included (the analytic gradient is computed at accepted points only).
  int fit_evaluations = 30;
  /// Cap on samples used per task (must be positive). LCM likelihood
  /// evaluation is O((sum_t n_t)^3); large crowd-sourced source datasets
  /// are randomly subsampled to this many points (see DESIGN.md ablation).
  std::size_t max_samples_per_task = 120;
  double min_noise = 1e-8;
  /// Fit starts run concurrently on this pool (null = serial). Results are
  /// bitwise identical for any pool size: each start is a deterministic
  /// serial run, the winner is reduced in start order, and per-task
  /// subsampling draws from index-keyed RNG streams.
  std::shared_ptr<parallel::ThreadPool> pool;
};

class LcmModel {
 public:
  LcmModel(std::size_t dim, std::size_t num_tasks, LcmOptions options = {});

  /// Fits hyperparameters and predictive state to the stacked task data.
  /// A cold fit (the model's first successful one) runs L-BFGS from
  /// theta_0 and from fit_restarts jittered copies of it, drawn from rng's
  /// "lcm-fit" stream, and keeps the best. A refit of a fitted model runs
  /// one L-BFGS start, from the previous hyperparameters, and draws nothing
  /// from that stream. Tasks with zero samples are allowed (e.g. the target
  /// task before its first evaluation) as long as at least one task has
  /// data. Throws std::invalid_argument on bad shapes or non-finite inputs;
  /// on any throw the model keeps its previous fit.
  void fit(std::vector<TaskData> tasks, rng::Rng& rng);

  /// Predictive distributions for `task` at encoded points: out[i] at x[i]
  /// (original output units of that task). The whole span shares one
  /// forward solve, and each out[i] is bitwise the one-point predict at
  /// x[i].
  void predict(std::size_t task, std::span<const la::Vector> x,
               std::span<Prediction> out) const;

  /// Predictive distribution for `task` at one encoded point: the span
  /// predict over {x}.
  Prediction predict(std::size_t task, const la::Vector& x) const;

  std::size_t dim() const { return dim_; }
  std::size_t num_tasks() const { return num_tasks_; }
  bool is_fitted() const { return fitted_; }
  std::size_t num_samples(std::size_t task) const;

  /// Cross-task covariance B[i][j] = sum_q B_q[i,j] under the fitted
  /// hyperparameters (standardized units) — exposed for tests/diagnostics.
  double task_covariance(std::size_t i, std::size_t j) const;

  /// Number of hyperparameters. Layout per latent q: [log l_1..log l_d,
  /// a_1..a_T, log kappa_1..log kappa_T], then [log noise_1..log noise_T].
  std::size_t num_hyper() const;

  /// The fitted hyperparameters in num_hyper() layout (empty before the
  /// first fit) — exposed for tests/diagnostics.
  const la::Vector& hyperparameters() const { return theta_; }

  /// Negative log marginal likelihood of the fitted (stacked, standardized)
  /// data at hyperparameters theta, plus the out-of-bounds penalty; the
  /// gradient is written to `grad`. Exposed for tests and diagnostics.
  double neg_log_likelihood(const la::Vector& theta, la::Vector& grad) const;

  /// A Surrogate view of one task, sharing this model.
  static SurrogatePtr task_view(std::shared_ptr<const LcmModel> model,
                                std::size_t task);

 private:
  /// theta decoded once per likelihood evaluation: the per-entry loops read
  /// these tables instead of re-evaluating exp() on theta.
  struct Unpacked {
    la::Vector lengthscale;  // [q * dim + i] = exp(log l_i) of latent q
    la::Vector coreg;        // [(q * T + i) * T + j] = B_q[i, j]
    la::Vector noise;        // [t] = max(exp(log noise_t), min_noise)
  };
  /// Subsampled, standardized training data, rows stacked task by task.
  struct Stacked {
    la::Matrix x;
    la::Matrix xt;                     // x transposed: one row per dimension
    std::vector<std::size_t> task_of;  // task index per stacked row
    la::Vector y_std;
    std::vector<double> y_mean, y_scale;  // per task
    std::vector<std::size_t> n_per_task;
  };
  struct Workspace;

  Unpacked unpack(const la::Vector& theta) const;
  /// out[j] = sum_q B_q[task, t_j] k_q(x, x_j) over the first `count`
  /// stacked rows, latents added in q order from 0.0; with k and g, latent
  /// q's kernel and radial factor at row j go to k[j * Q + q] and
  /// g[j * Q + q]. r2 is scratch for `count` values.
  void cov_row(const Stacked& data, const Unpacked& u, std::size_t task,
               const double* x, std::size_t count, double* out, double* r2,
               double* k, double* g) const;
  /// Validates every task, then subsamples, standardizes and stacks them.
  Stacked stack(const std::vector<TaskData>& tasks, rng::Rng& rng) const;
  /// K + noise over the stacked samples into the lower triangle of the
  /// n x n `km` (the strict upper triangle is left as it is), one cov_row
  /// per row; with a workspace, each pair's latent kernels are cached there
  /// too.
  void stacked_covariance(const Stacked& data, const Unpacked& u,
                          la::Matrix& km, Workspace* ws) const;
  /// The out-of-bounds penalty at theta; with grad, its gradient is added
  /// there.
  double bounds_penalty(const la::Vector& theta, la::Vector* grad) const;
  /// The likelihood's value stage at theta: covariance, factor and alpha
  /// solve, kept in `ws` for the gradient stage. DBL_MAX when K cannot be
  /// factored.
  double nll_value(const Stacked& data, const la::Vector& theta,
                   Workspace& ws) const;
  /// The gradient stage at the theta of the last nll_value on `ws`, which
  /// must have factored K: L^-1, W and the contractions into grad.
  void nll_gradient(const Stacked& data, Workspace& ws,
                    la::Vector& grad) const;
  /// Factors K at theta and only then replaces the model's state.
  void commit(Stacked data, la::Vector theta);

  std::size_t dim_;
  std::size_t num_tasks_;
  LcmOptions options_;

  bool fitted_ = false;
  la::Vector theta_;
  Unpacked hyper_;  // unpack(theta_), read by predict and task_covariance
  Stacked data_;
  std::optional<la::Cholesky> chol_;
  la::Vector alpha_;
};

/// The single-task GP: fits LcmModel(dim, 1, options) to one task's data
/// and returns task_view(model, 0). Throws like LcmModel::fit.
SurrogatePtr fit_single_task(std::size_t dim, TaskData data,
                             const LcmOptions& options, rng::Rng& rng);

}  // namespace gptc::gp
