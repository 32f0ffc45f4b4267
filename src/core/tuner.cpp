#include "core/tuner.hpp"

#include <cmath>
#include <stdexcept>

#include "parallel/thread_pool.hpp"

namespace gptc::core {

namespace {

/// Retry limit when a proposal duplicates an already-evaluated
/// configuration (common in small integer spaces); after this many retries
/// the duplicate is evaluated anyway.
constexpr int kDuplicateRetries = 8;

/// Copies the TLA options with every model/search layer pointed at one
/// shared pool (no-op when num_threads == 0: all pool fields stay null and
/// every loop takes its serial path).
TlaOptions with_thread_pool(const TlaOptions& tla,
                            std::shared_ptr<parallel::ThreadPool> pool) {
  TlaOptions out = tla;
  out.lcm.pool = pool;
  out.acquisition.pool = std::move(pool);
  return out;
}

std::shared_ptr<parallel::ThreadPool> make_pool(int num_threads) {
  if (num_threads <= 0) return nullptr;
  return std::make_shared<parallel::ThreadPool>(
      static_cast<std::size_t>(num_threads));
}

}  // namespace

Tuner::Tuner(const space::TuningProblem& problem, TunerOptions options)
    : problem_(&problem), options_(std::move(options)) {
  if (!problem.objective)
    throw std::invalid_argument("Tuner: problem has no objective");
  if (options_.budget <= 0)
    throw std::invalid_argument("Tuner: budget must be positive");
}

TuningResult Tuner::tune(const space::Config& task,
                         const std::vector<TaskHistory>& sources) const {
  if (!problem_->task_space.contains(task))
    throw std::invalid_argument("Tuner::tune: task outside task space");

  TuningResult result;
  result.history = TaskHistory(task);

  const bool have_sources = [&] {
    for (const auto& s : sources)
      if (s.num_valid() >= 2) return true;
    return false;
  }();
  const bool is_tla =
      options_.algorithm != TlaKind::NoTLA && have_sources;

  const auto pool = make_pool(options_.num_threads);
  const TlaOptions tla = with_thread_pool(options_.tla, pool);
  auto strategy = make_tla_strategy(
      is_tla ? options_.algorithm : TlaKind::NoTLA, tla);

  rng::Rng root(rng::splitmix64(options_.seed + 0x7f4a7c15ULL));
  TlaContext ctx;
  ctx.param_space = &problem_->param_space;
  ctx.sources = &sources;
  ctx.target = &result.history;

  for (int i = 0; i < options_.budget; ++i) {
    rng::Rng iter_rng = root.split("iteration").split(static_cast<std::uint64_t>(i));

    la::Vector x;
    std::string proposer(strategy->name());
    const bool no_valid_target = result.history.num_valid() == 0;
    if (is_tla && no_valid_target) {
      if (i == 0) {
        // First evaluation of every TLA algorithm uses the WeightedSum(equal)
        // combined model (paper Sec. VI-A).
        x = first_eval_proposal(ctx, tla, iter_rng);
        proposer = to_string(TlaKind::WeightedSumEqual);
      } else {
        // The first-eval proposal failed (e.g. the source's optimum is an
        // OOM configuration on the target — the Fig. 5(c) situation):
        // re-proposing the surrogate arg-min would fail forever, so fall
        // back to random sampling until one evaluation succeeds.
        rng::Rng rand_rng = iter_rng.split("failed-warmup");
        x = la::Vector(problem_->param_space.dim());
        for (double& v : x) v = rand_rng.uniform();
        proposer = "random(after-failures)";
      }
    } else {
      x = strategy->propose(ctx, iter_rng);
    }

    // Duplicate avoidance: exact re-evaluation of a configuration wastes
    // budget in deterministic settings; retry with random points.
    space::Config params = problem_->param_space.decode(x);
    rng::Rng dup_rng = iter_rng.split("dedup");
    for (int r = 0;
         r < kDuplicateRetries && result.history.contains(params);
         ++r) {
      la::Vector rand_x(problem_->param_space.dim());
      for (double& v : rand_x) v = dup_rng.uniform();
      params = problem_->param_space.decode(rand_x);
      x = rand_x;
    }

    const double y = problem_->objective(task, params);
    result.history.add(params, y);
    strategy->observe(x, y);

    result.proposed_by.emplace_back(
        is_tla && no_valid_target ? proposer
                                  : std::string(strategy->last_chosen()));
    const auto best = result.history.best_output();
    result.best_so_far.push_back(
        best.value_or(std::numeric_limits<double>::quiet_NaN()));
    if (options_.on_evaluation)
      options_.on_evaluation(i, result.history.evals().back(),
                             result.best_so_far.back());
  }
  return result;
}

std::vector<TuningResult> Tuner::tune_multitask(
    const std::vector<space::Config>& tasks,
    const std::vector<TaskHistory>& sources) const {
  if (tasks.empty())
    throw std::invalid_argument("tune_multitask: no tasks");
  for (const auto& t : tasks)
    if (!problem_->task_space.contains(t))
      throw std::invalid_argument("tune_multitask: task outside task space");

  const std::size_t n_tasks = tasks.size();
  std::vector<TuningResult> results(n_tasks);
  for (std::size_t t = 0; t < n_tasks; ++t)
    results[t].history = TaskHistory(tasks[t]);

  rng::Rng root(rng::splitmix64(options_.seed + 0x317e9a7cULL));
  const auto pool = make_pool(options_.num_threads);
  const TlaOptions tla = with_thread_pool(options_.tla, pool);
  auto model = std::make_shared<gp::LcmModel>(
      problem_->param_space.dim(), sources.size() + n_tasks, tla.lcm);

  for (int i = 0; i < options_.budget; ++i) {
    rng::Rng iter_rng =
        root.split("mt-iteration").split(static_cast<std::uint64_t>(i));

    // Joint LCM over crowd sources + every target task's observations so
    // far. Skipped while no task has data (round 0 samples randomly).
    bool any_data = false;
    std::vector<gp::TaskData> data;
    for (const auto& src : sources) {
      const TrainingData d = src.valid_data(problem_->param_space);
      any_data = any_data || d.size() > 0;
      data.push_back(gp::TaskData{d.x, d.y});
    }
    for (const auto& r : results) {
      const TrainingData d = r.history.valid_data(problem_->param_space);
      any_data = any_data || d.size() > 0;
      data.push_back(gp::TaskData{d.x, d.y});
    }
    if (any_data) {
      rng::Rng fit_rng = iter_rng.split("mt-lcm");
      model->fit(std::move(data), fit_rng);
    }

    for (std::size_t t = 0; t < n_tasks; ++t) {
      rng::Rng task_rng = iter_rng.split("mt-task").split(t);
      la::Vector x(problem_->param_space.dim());
      const auto best = results[t].history.best_output();
      if (any_data && best) {
        const auto view = gp::LcmModel::task_view(model, sources.size() + t);
        std::vector<la::Vector> seeds;
        if (auto bc = results[t].history.best_config())
          seeds.push_back(problem_->param_space.encode(*bc));
        x = maximize_ei(*view, *best, task_rng, seeds,
                        tla.acquisition);
      } else if (any_data) {
        // Task has no valid data yet but the joint model exists: follow
        // the model's mean (cross-task transfer).
        const auto view = gp::LcmModel::task_view(model, sources.size() + t);
        x = minimize_mean(*view, task_rng, {}, tla.acquisition);
      } else {
        for (double& v : x) v = task_rng.uniform();
      }

      space::Config params = problem_->param_space.decode(x);
      rng::Rng dup_rng = task_rng.split("dedup");
      for (int r = 0; r < kDuplicateRetries &&
                      results[t].history.contains(params);
           ++r) {
        la::Vector rand_x(problem_->param_space.dim());
        for (double& v : rand_x) v = dup_rng.uniform();
        params = problem_->param_space.decode(rand_x);
      }

      const double y = problem_->objective(tasks[t], params);
      results[t].history.add(params, y);
      results[t].proposed_by.emplace_back("Multitask(LCM)");
      const auto best_now = results[t].history.best_output();
      results[t].best_so_far.push_back(
          best_now.value_or(std::numeric_limits<double>::quiet_NaN()));
    }
  }
  return results;
}

TaskHistory collect_random_samples(const space::TuningProblem& problem,
                                   const space::Config& task, int n,
                                   std::uint64_t seed) {
  if (!problem.objective)
    throw std::invalid_argument("collect_random_samples: no objective");
  TaskHistory history(task);
  rng::Rng rng(rng::splitmix64(seed + 0x1234abcdULL));
  for (int i = 0; i < n; ++i) {
    const space::Config params = problem.param_space.sample(rng);
    history.add(params, problem.objective(task, params));
  }
  return history;
}

}  // namespace gptc::core
