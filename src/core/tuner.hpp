// The Bayesian-optimization tuning loop (the tuner of Fig. 1).
//
// Given a TuningProblem, a target task, source-task histories (from the
// crowd database) and a TLA algorithm choice, the Tuner runs the paper's
// iterative loop: propose a configuration, evaluate the black-box
// objective, record the result (including failures), and repeat until the
// budget is spent. The per-evaluation best-so-far trace is what all of the
// paper's figures plot.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/history.hpp"
#include "core/tla.hpp"
#include "space/space.hpp"

namespace gptc::core {

struct TunerOptions {
  /// NS in Algorithm 1: the total number of function evaluations.
  int budget = 20;
  TlaKind algorithm = TlaKind::NoTLA;
  TlaOptions tla;
  std::uint64_t seed = 0;
  /// Worker threads for the tuner's inner loops (GP fit restarts,
  /// acquisition-search population evaluations, per-source surrogate fits,
  /// LCM covariance blocks). 0 = fully serial. Results are bitwise
  /// identical for every value: all parallel units draw from pre-split,
  /// index-keyed RNG streams and reductions run in fixed index order. The
  /// black-box objective itself is always called from the tuning thread.
  int num_threads = 0;
  /// Optional callback after every evaluation: (index, record, best_so_far).
  std::function<void(int, const EvalRecord&, double)> on_evaluation;
};

struct TuningResult {
  TaskHistory history;
  /// best_so_far[i] = best valid output after evaluation i+1 (NaN until the
  /// first success — matching the paper's practice of not plotting points
  /// before the first successful run).
  std::vector<double> best_so_far;
  /// Name of the (pool-member) algorithm that proposed each evaluation.
  std::vector<std::string> proposed_by;

  std::optional<double> best_output() const { return history.best_output(); }
  std::optional<space::Config> best_config() const {
    return history.best_config();
  }
};

class Tuner {
 public:
  Tuner(const space::TuningProblem& problem, TunerOptions options);

  /// Tunes `task` using the given source histories. Source histories with
  /// no usable data are ignored; when none are usable, TLA algorithms fall
  /// back to NoTLA behaviour for the initial evaluations.
  TuningResult tune(const space::Config& task,
                    const std::vector<TaskHistory>& sources = {}) const;

  /// GPTune-style multitask autotuning (paper Sec. II-A: "tuning multiple
  /// correlated tuning problems simultaneously can benefit from each
  /// other"): tunes all `tasks` together under one LCM model. Each round
  /// fits the joint model on every task's observations (plus optional
  /// crowd sources) and proposes/evaluates one configuration per task, so
  /// correlated tasks share their samples from the very first rounds.
  /// `options.budget` is the number of evaluations PER TASK. The
  /// `options.algorithm` choice is ignored — multitask tuning is the LCM
  /// by construction.
  std::vector<TuningResult> tune_multitask(
      const std::vector<space::Config>& tasks,
      const std::vector<TaskHistory>& sources = {}) const;

 private:
  const space::TuningProblem* problem_;
  TunerOptions options_;
};

/// Collects `n` evaluations at uniformly random configurations for `task` —
/// how the paper builds source datasets ("randomly chosen parameter
/// configurations", Sec. VI-B).
TaskHistory collect_random_samples(const space::TuningProblem& problem,
                                   const space::Config& task, int n,
                                   std::uint64_t seed);

}  // namespace gptc::core
