// The transfer-learning-autotuning (TLA) algorithm pool (paper Table I).
//
// Each strategy answers one question per BO iteration: given the crowd's
// source-task histories and the target task's observations so far, which
// encoded point should be evaluated next? The Tuner owns the loop (evaluate,
// record, repeat); strategies own their models and any cross-iteration
// state (fitted source GPs, LCM warm starts, pseudo-sample sets, ensemble
// statistics).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/acquisition.hpp"
#include "core/history.hpp"
#include "gp/lcm.hpp"
#include "rng/rng.hpp"
#include "space/space.hpp"

namespace gptc::core {

enum class TlaKind {
  NoTLA,             // plain single-task BO (the paper's baseline)
  MultitaskPS,       // LCM + pseudo samples from source surrogates [GPTune'21]
  MultitaskTS,       // LCM + true source samples [GPTuneCrowd]
  WeightedSumEqual,  // HiPerBOt weighted sum, equal weights
  WeightedSumStatic, // HiPerBOt weighted sum, user-supplied weights
  WeightedSumDynamic,// linear-regression weights [GPTuneCrowd]
  Stacking,          // Vizier residual stacking
  EnsembleProposed,  // Algorithm 1 [GPTuneCrowd]
  EnsembleToggling,  // naive round-robin ensemble (ablation)
  EnsembleProb,      // PDF-only ensemble, zero exploration (ablation)
};

std::string_view to_string(TlaKind kind);
std::optional<TlaKind> tla_from_string(std::string_view name);

/// All TlaKind values, in Table I order (plus baseline and ablations).
const std::vector<TlaKind>& all_tla_kinds();

/// Read-only view of the tuning state handed to a strategy each iteration.
struct TlaContext {
  const space::Space* param_space = nullptr;
  const std::vector<TaskHistory>* sources = nullptr;
  const TaskHistory* target = nullptr;
};

struct TlaOptions {
  /// The multi-task fits (Multitask(PS/TS)) take these as they are; their
  /// models live across iterations, so fit_restarts counts only on the
  /// first (cold) fit and every refit is one start from the previous
  /// hyperparameters. Every single-task GP (NoTLA, WeightedSum, Stacking,
  /// the Multitask(PS) source surrogates, the first-evaluation model) is a
  /// one-task LCM fitted with these too, except num_latent = 1,
  /// max_samples_per_task = max_source_samples and fit_restarts at least 1
  /// (a fresh single-task fit is always cold).
  gp::LcmOptions lcm;
  AcquisitionOptions acquisition;
  /// WeightedSumStatic weights, ordered [source_1..source_n, target]. Empty
  /// means "not specified": static degenerates to equal weights, exactly as
  /// the paper describes HiPerBOt's behaviour.
  la::Vector static_weights;
  /// Cap on samples used per single-task GP fit: the source surrogates
  /// (weighted-sum, stacking, PS, first-eval model) and the target fits
  /// (NoTLA, the WeightedSum target, Stacking's target layer) alike. GP
  /// fitting is O(n^3); larger datasets (e.g. NIMROD's 500 crowd samples,
  /// or a target history past this budget) are deterministically
  /// subsampled to this many points, so a target fit may then leave out
  /// the incumbent. Must be positive (LcmModel rejects a cap of 0). The
  /// multi-task fits keep lcm.max_samples_per_task.
  std::size_t max_source_samples = 150;
};

class TlaStrategy {
 public:
  virtual ~TlaStrategy() = default;

  virtual std::string_view name() const = 0;

  /// Proposes the next encoded point to evaluate for the target task.
  /// Requires at least one valid target observation (the Tuner handles the
  /// first evaluation via first_eval_proposal below).
  virtual la::Vector propose(const TlaContext& ctx, rng::Rng& rng) = 0;

  /// Feedback after the proposed point was evaluated. `y` is NaN on
  /// failure.
  virtual void observe(const la::Vector& x, double y);

  /// For ensembles: the name of the pool member used for the last
  /// proposal. Other strategies report their own name.
  virtual std::string_view last_chosen() const { return name(); }
};

std::unique_ptr<TlaStrategy> make_tla_strategy(TlaKind kind,
                                               const TlaOptions& options);

/// Proposal rule for the very first target evaluation of any TLA strategy:
/// the arg-min of the WeightedSum(equal) combined surrogate over the source
/// models (paper Sec. VI-A). Requires at least one source with data.
la::Vector first_eval_proposal(const TlaContext& ctx, const TlaOptions& options,
                               rng::Rng& rng);

}  // namespace gptc::core
