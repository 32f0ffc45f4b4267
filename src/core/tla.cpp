#include "core/tla.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/combined.hpp"
#include "opt/optimize.hpp"
#include "parallel/thread_pool.hpp"

namespace gptc::core {

std::string_view to_string(TlaKind kind) {
  switch (kind) {
    case TlaKind::NoTLA: return "NoTLA";
    case TlaKind::MultitaskPS: return "Multitask(PS)";
    case TlaKind::MultitaskTS: return "Multitask(TS)";
    case TlaKind::WeightedSumEqual: return "WeightedSum(equal)";
    case TlaKind::WeightedSumStatic: return "WeightedSum(static)";
    case TlaKind::WeightedSumDynamic: return "WeightedSum(dynamic)";
    case TlaKind::Stacking: return "Stacking";
    case TlaKind::EnsembleProposed: return "Ensemble(proposed)";
    case TlaKind::EnsembleToggling: return "Ensemble(toggling)";
    case TlaKind::EnsembleProb: return "Ensemble(prob)";
  }
  return "?";
}

std::optional<TlaKind> tla_from_string(std::string_view name) {
  for (TlaKind k : all_tla_kinds())
    if (to_string(k) == name) return k;
  return std::nullopt;
}

const std::vector<TlaKind>& all_tla_kinds() {
  static const std::vector<TlaKind> kinds = {
      TlaKind::NoTLA,
      TlaKind::MultitaskPS,
      TlaKind::MultitaskTS,
      TlaKind::WeightedSumEqual,
      TlaKind::WeightedSumStatic,
      TlaKind::WeightedSumDynamic,
      TlaKind::Stacking,
      TlaKind::EnsembleProposed,
      TlaKind::EnsembleToggling,
      TlaKind::EnsembleProb,
  };
  return kinds;
}

void TlaStrategy::observe(const la::Vector& x, double y) {
  (void)x;
  (void)y;
}

namespace {

/// Initial pseudo-sample count per source for Multitask(PS): a Latin
/// hypercube of this many points through each source surrogate.
constexpr std::size_t kPsInitPseudo = 10;

/// The single-task GP's fit options: options.lcm with one latent,
/// options.max_source_samples as the per-task cap, and at least one
/// jittered start. A single-task fit is a fresh model every time, so it is
/// always a cold fit; the jittered start keeps it at two starts (theta0
/// and one more) when options.lcm.fit_restarts is 0. The multi-task models
/// live across iterations: only their first fit is cold, and every refit
/// runs one start from the previous hyperparameters.
gp::LcmOptions single_task_options(const TlaOptions& options) {
  gp::LcmOptions o = options.lcm;
  o.num_latent = 1;
  o.max_samples_per_task = options.max_source_samples;
  o.fit_restarts = std::max(o.fit_restarts, 1);
  return o;
}

/// Fits one single-task GP per source task on its successful evaluations,
/// concurrently on options.pool. Sources with fewer than 2 valid samples
/// are skipped (their index is dropped); larger ones are randomly
/// subsampled to options.max_samples_per_task.
std::vector<gp::SurrogatePtr> fit_source_gps(const TlaContext& ctx,
                                             const gp::LcmOptions& options,
                                             rng::Rng& rng) {
  // Every source draws from a stream keyed by its own index, so the fits
  // are independent of execution order and run concurrently across the
  // pool (one surrogate fit per source — the per-algorithm surrogates of
  // the WeightedSum / Stacking / Multitask(PS) ensemble members).
  auto fitted = parallel::parallel_map(
      options.pool, ctx.sources->size(),
      [&](std::size_t s) -> gp::SurrogatePtr {
        TrainingData data = (*ctx.sources)[s].valid_data(*ctx.param_space);
        if (data.size() < 2) return nullptr;
        rng::Rng sub = rng.split("source-gp").split(s);
        return gp::fit_single_task(ctx.param_space->dim(),
                                   {std::move(data.x), std::move(data.y)},
                                   options, sub);
      });
  std::vector<gp::SurrogatePtr> models;
  for (auto& m : fitted)
    if (m) models.push_back(std::move(m));
  return models;
}

void check_context(const TlaContext& ctx) {
  if (!ctx.param_space || !ctx.sources || !ctx.target)
    throw std::invalid_argument("TlaContext: null members");
}

la::Vector random_point(std::size_t dim, rng::Rng& rng) {
  la::Vector x(dim);
  for (double& v : x) v = rng.uniform();
  return x;
}

std::vector<la::Vector> incumbent_seeds(const TlaContext& ctx) {
  std::vector<la::Vector> seeds;
  if (auto best = ctx.target->best_config())
    seeds.push_back(ctx.param_space->encode(*best));
  return seeds;
}

// ---------------------------------------------------------------------------
// NoTLA: plain GP-BO on the target task only.

class NoTlaStrategy final : public TlaStrategy {
 public:
  explicit NoTlaStrategy(TlaOptions options) : options_(std::move(options)) {}

  std::string_view name() const override { return to_string(TlaKind::NoTLA); }

  la::Vector propose(const TlaContext& ctx, rng::Rng& rng) override {
    check_context(ctx);
    TrainingData data = ctx.target->valid_data(*ctx.param_space);
    // A GP needs at least two observations to say anything about
    // lengthscales; sample randomly until then.
    if (data.size() < 2) return random_point(ctx.param_space->dim(), rng);
    rng::Rng fit_rng = rng.split("target-gp");
    const gp::SurrogatePtr model = gp::fit_single_task(
        ctx.param_space->dim(), {std::move(data.x), std::move(data.y)},
        single_task_options(options_), fit_rng);
    return maximize_ei(*model, *ctx.target->best_output(), rng,
                       incumbent_seeds(ctx), options_.acquisition);
  }

 private:
  TlaOptions options_;
};

// ---------------------------------------------------------------------------
// Multitask(TS): LCM over true source samples + target samples.

class MultitaskTsStrategy final : public TlaStrategy {
 public:
  explicit MultitaskTsStrategy(TlaOptions options)
      : options_(std::move(options)) {}

  std::string_view name() const override {
    return to_string(TlaKind::MultitaskTS);
  }

  la::Vector propose(const TlaContext& ctx, rng::Rng& rng) override {
    check_context(ctx);
    const std::size_t dim = ctx.param_space->dim();
    std::vector<gp::TaskData> tasks;
    for (const auto& src : *ctx.sources) {
      const TrainingData d = src.valid_data(*ctx.param_space);
      tasks.push_back(gp::TaskData{d.x, d.y});
    }
    const TrainingData target = ctx.target->valid_data(*ctx.param_space);
    tasks.push_back(gp::TaskData{target.x, target.y});

    if (!model_ || model_->num_tasks() != tasks.size())
      model_ = std::make_shared<gp::LcmModel>(dim, tasks.size(), options_.lcm);
    rng::Rng fit_rng = rng.split("lcm-ts");
    model_->fit(std::move(tasks), fit_rng);

    const auto view =
        gp::LcmModel::task_view(model_, model_->num_tasks() - 1);
    const double best = ctx.target->best_output().value();
    return maximize_ei(*view, best, rng, incumbent_seeds(ctx),
                       options_.acquisition);
  }

 private:
  TlaOptions options_;
  std::shared_ptr<gp::LcmModel> model_;
};

// ---------------------------------------------------------------------------
// Multitask(PS): LCM over pseudo samples generated by pre-trained source
// surrogates + true target samples (GPTune 2021).

class MultitaskPsStrategy final : public TlaStrategy {
 public:
  explicit MultitaskPsStrategy(TlaOptions options)
      : options_(std::move(options)) {}

  std::string_view name() const override {
    return to_string(TlaKind::MultitaskPS);
  }

  la::Vector propose(const TlaContext& ctx, rng::Rng& rng) override {
    check_context(ctx);
    const std::size_t dim = ctx.param_space->dim();
    ensure_sources(ctx, rng);

    std::vector<gp::TaskData> tasks;
    for (const auto& pseudo : pseudo_) {
      gp::TaskData td;
      td.x = la::Matrix::from_rows(pseudo.x);
      td.y = pseudo.y;
      tasks.push_back(std::move(td));
    }
    const TrainingData target = ctx.target->valid_data(*ctx.param_space);
    tasks.push_back(gp::TaskData{target.x, target.y});

    if (!model_ || model_->num_tasks() != tasks.size())
      model_ = std::make_shared<gp::LcmModel>(dim, tasks.size(), options_.lcm);
    rng::Rng fit_rng = rng.split("lcm-ps");
    model_->fit(std::move(tasks), fit_rng);

    // Predict the next sample for every task (source and target); source
    // proposals become new pseudo samples with outputs from the black-box
    // source surrogates.
    for (std::size_t s = 0; s < pseudo_.size(); ++s) {
      const auto view = gp::LcmModel::task_view(model_, s);
      const double src_best =
          *std::min_element(pseudo_[s].y.begin(), pseudo_[s].y.end());
      rng::Rng src_rng = rng.split("ps-src").split(s);
      la::Vector xs = maximize_ei(*view, src_best, src_rng, {},
                                  options_.acquisition);
      pseudo_[s].y.push_back(source_models_[s]->predict(xs).mean);
      pseudo_[s].x.push_back(std::move(xs));
    }

    const auto view =
        gp::LcmModel::task_view(model_, model_->num_tasks() - 1);
    const double best = ctx.target->best_output().value();
    return maximize_ei(*view, best, rng, incumbent_seeds(ctx),
                       options_.acquisition);
  }

 private:
  struct PseudoSamples {
    std::vector<la::Vector> x;
    la::Vector y;
  };

  void ensure_sources(const TlaContext& ctx, rng::Rng& rng) {
    if (!source_models_.empty()) return;
    rng::Rng fit_rng = rng.split("ps-sources");
    source_models_ =
        fit_source_gps(ctx, single_task_options(options_), fit_rng);
    if (source_models_.empty())
      throw std::runtime_error(
          "Multitask(PS): no source task has enough samples");
    // Seed each source's pseudo-sample set from a Latin hypercube through
    // its surrogate.
    rng::Rng lhs_rng = rng.split("ps-init");
    for (auto& model : source_models_) {
      PseudoSamples p;
      p.x = opt::latin_hypercube(kPsInitPseudo, model->dim(), lhs_rng);
      p.y.reserve(kPsInitPseudo);
      for (const auto& x : p.x) p.y.push_back(model->predict(x).mean);
      pseudo_.push_back(std::move(p));
    }
  }

  TlaOptions options_;
  std::vector<gp::SurrogatePtr> source_models_;
  std::vector<PseudoSamples> pseudo_;
  std::shared_ptr<gp::LcmModel> model_;
};

// ---------------------------------------------------------------------------
// WeightedSum family.

class WeightedSumStrategy final : public TlaStrategy {
 public:
  enum class WeightMode { Equal, Static, Dynamic };

  WeightedSumStrategy(TlaOptions options, WeightMode mode)
      : options_(std::move(options)), mode_(mode) {}

  std::string_view name() const override {
    switch (mode_) {
      case WeightMode::Equal: return to_string(TlaKind::WeightedSumEqual);
      case WeightMode::Static: return to_string(TlaKind::WeightedSumStatic);
      case WeightMode::Dynamic: return to_string(TlaKind::WeightedSumDynamic);
    }
    return "?";
  }

  la::Vector propose(const TlaContext& ctx, rng::Rng& rng) override {
    check_context(ctx);
    if (source_models_.empty()) {
      rng::Rng fit_rng = rng.split("ws-sources");
      source_models_ =
          fit_source_gps(ctx, single_task_options(options_), fit_rng);
      if (source_models_.empty())
        throw std::runtime_error(
            "WeightedSum: no source task has enough samples");
    }
    const TrainingData target = ctx.target->valid_data(*ctx.param_space);
    std::vector<gp::SurrogatePtr> models = source_models_;
    if (target.size() >= 2) {
      rng::Rng fit_rng = rng.split("ws-target");
      models.push_back(gp::fit_single_task(ctx.param_space->dim(),
                                           {target.x, target.y},
                                           single_task_options(options_),
                                           fit_rng));
    }

    const la::Vector w = compute_weights(ctx, models, target);
    const WeightedSurrogate combined(models, w);
    const double best = ctx.target->best_output().value();
    return maximize_ei(combined, best, rng, incumbent_seeds(ctx),
                       options_.acquisition);
  }

 private:
  la::Vector compute_weights(const TlaContext& ctx,
                             const std::vector<gp::SurrogatePtr>& models,
                             const TrainingData& target) const {
    la::Vector equal(models.size(), 1.0);
    switch (mode_) {
      case WeightMode::Equal: return equal;
      case WeightMode::Static:
        if (options_.static_weights.size() == models.size())
          return options_.static_weights;
        return equal;  // "not specified (most cases)": fall back to equal
      case WeightMode::Dynamic: break;
    }
    // Dynamic weights (paper Sec. V-C): for each observed target sample j,
    //   (y* - y_j)/|y*| ~= sum_i w_i * (mu_i(x*) - mu_i(x_j))/|mu_i(x*)|
    // solved for w >= 0 by NNLS over the observed samples.
    if (target.size() < 2) return equal;
    const auto best_config = ctx.target->best_config();
    const la::Vector x_star = ctx.param_space->encode(*best_config);
    const double y_star = ctx.target->best_output().value();
    const double y_scale = std::max(std::abs(y_star), 1e-12);

    la::Matrix a(target.size(), models.size());
    la::Vector b(target.size());
    for (std::size_t j = 0; j < target.size(); ++j) {
      la::Vector xj(target.x.row(j).begin(), target.x.row(j).end());
      b[j] = (y_star - target.y[j]) / y_scale;
      for (std::size_t i = 0; i < models.size(); ++i) {
        const double mu_star = models[i]->predict(x_star).mean;
        const double mu_j = models[i]->predict(xj).mean;
        const double scale = std::max(std::abs(mu_star), 1e-12);
        a(j, i) = (mu_star - mu_j) / scale;
      }
    }
    la::Vector w = la::nonneg_least_squares(a, b, 1e-6);
    double total = 0.0;
    for (double v : w) total += v;
    if (total <= 1e-12) return equal;  // regression found no signal
    return w;
  }

  TlaOptions options_;
  WeightMode mode_;
  std::vector<gp::SurrogatePtr> source_models_;
};

// ---------------------------------------------------------------------------
// Stacking (Vizier).

class StackingStrategy final : public TlaStrategy {
 public:
  explicit StackingStrategy(TlaOptions options)
      : options_(std::move(options)) {}

  std::string_view name() const override {
    return to_string(TlaKind::Stacking);
  }

  la::Vector propose(const TlaContext& ctx, rng::Rng& rng) override {
    check_context(ctx);
    ensure_source_stack(ctx, rng);

    // Copy the (immutable) source stack and push the target residual layer.
    ResidualStack stack = *source_stack_;
    const TrainingData target = ctx.target->valid_data(*ctx.param_space);
    if (target.size() >= 1) {
      rng::Rng fit_rng = rng.split("stack-target");
      stack.add_layer(target.x, target.y, single_task_options(options_),
                      fit_rng);
    }
    const double best = ctx.target->best_output().value();
    return maximize_ei(stack, best, rng, incumbent_seeds(ctx),
                       options_.acquisition);
  }

 private:
  void ensure_source_stack(const TlaContext& ctx, rng::Rng& rng) {
    if (source_stack_) return;
    // Order source tasks by descending sample count (paper Sec. V-D).
    std::vector<std::size_t> order;
    for (std::size_t s = 0; s < ctx.sources->size(); ++s)
      if ((*ctx.sources)[s].num_valid() >= 2) order.push_back(s);
    if (order.empty())
      throw std::runtime_error("Stacking: no source task has enough samples");
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return (*ctx.sources)[a].num_valid() > (*ctx.sources)[b].num_valid();
    });
    source_stack_ = std::make_shared<ResidualStack>(ctx.param_space->dim());
    rng::Rng fit_rng = rng.split("stack-sources");
    const gp::LcmOptions single = single_task_options(options_);
    for (std::size_t s : order) {
      const TrainingData d = (*ctx.sources)[s].valid_data(*ctx.param_space);
      rng::Rng sub_rng = fit_rng.split(s);
      source_stack_->add_layer(d.x, d.y, single, sub_rng);
    }
  }

  TlaOptions options_;
  std::shared_ptr<ResidualStack> source_stack_;
};

// ---------------------------------------------------------------------------
// Ensembles (Algorithm 1 and its two ablations).

class EnsembleStrategy final : public TlaStrategy {
 public:
  enum class Mode { Proposed, Toggling, Prob };

  EnsembleStrategy(TlaOptions options, Mode mode)
      : options_(options), mode_(mode) {
    // Default pool (paper Algorithm 1, line 1).
    pool_.push_back(std::make_unique<MultitaskTsStrategy>(options));
    pool_.push_back(std::make_unique<WeightedSumStrategy>(
        options, WeightedSumStrategy::WeightMode::Dynamic));
    pool_.push_back(std::make_unique<StackingStrategy>(options));
    best_.assign(pool_.size(), std::nullopt);
  }

  std::string_view name() const override {
    switch (mode_) {
      case Mode::Proposed: return to_string(TlaKind::EnsembleProposed);
      case Mode::Toggling: return to_string(TlaKind::EnsembleToggling);
      case Mode::Prob: return to_string(TlaKind::EnsembleProb);
    }
    return "?";
  }

  std::string_view last_chosen() const override {
    return pool_[last_]->name();
  }

  la::Vector propose(const TlaContext& ctx, rng::Rng& rng) override {
    check_context(ctx);
    last_ = choose(ctx, rng);
    rng::Rng sub = rng.split("ensemble-member").split(last_);
    return pool_[last_]->propose(ctx, sub);
  }

  void observe(const la::Vector& x, double y) override {
    pool_[last_]->observe(x, y);
    if (std::isfinite(y) && (!best_[last_] || y < *best_[last_]))
      best_[last_] = y;
  }

 private:
  std::size_t choose(const TlaContext& ctx, rng::Rng& rng) {
    if (mode_ == Mode::Toggling)
      return toggle_counter_++ % pool_.size();

    rng::Rng sel = rng.split("ensemble-select");
    if (mode_ == Mode::Proposed) {
      // Exploration rate (paper Eq. 4), decaying in the number of target
      // samples obtained so far.
      const double t = static_cast<double>(pool_.size());
      const double p = static_cast<double>(ctx.param_space->dim());
      const double n =
          std::max<double>(1.0, static_cast<double>(ctx.target->num_valid()));
      const double ratio = t * p / n;
      const double exploration = ratio / (1.0 + ratio);
      if (sel.uniform() < exploration)
        return static_cast<std::size_t>(
            sel.uniform_int(0, static_cast<std::int64_t>(pool_.size()) - 1));
    }
    // PDF over 1/best_output (paper Eq. 3). Members without a recorded best
    // get the most optimistic known weight so they are not starved.
    std::vector<double> weights(pool_.size(), 0.0);
    double max_w = 0.0;
    bool any = false;
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      if (best_[i] && *best_[i] > 0.0) {
        weights[i] = 1.0 / *best_[i];
        max_w = std::max(max_w, weights[i]);
        any = true;
      }
    }
    if (!any) {
      return static_cast<std::size_t>(
          sel.uniform_int(0, static_cast<std::int64_t>(pool_.size()) - 1));
    }
    for (double& w : weights)
      if (w == 0.0) w = max_w;
    return sel.categorical(weights);
  }

  TlaOptions options_;
  Mode mode_;
  std::vector<std::unique_ptr<TlaStrategy>> pool_;
  std::vector<std::optional<double>> best_;
  std::size_t last_ = 0;
  std::size_t toggle_counter_ = 0;
};

}  // namespace

std::unique_ptr<TlaStrategy> make_tla_strategy(TlaKind kind,
                                               const TlaOptions& options) {
  switch (kind) {
    case TlaKind::NoTLA:
      return std::make_unique<NoTlaStrategy>(options);
    case TlaKind::MultitaskPS:
      return std::make_unique<MultitaskPsStrategy>(options);
    case TlaKind::MultitaskTS:
      return std::make_unique<MultitaskTsStrategy>(options);
    case TlaKind::WeightedSumEqual:
      return std::make_unique<WeightedSumStrategy>(
          options, WeightedSumStrategy::WeightMode::Equal);
    case TlaKind::WeightedSumStatic:
      return std::make_unique<WeightedSumStrategy>(
          options, WeightedSumStrategy::WeightMode::Static);
    case TlaKind::WeightedSumDynamic:
      return std::make_unique<WeightedSumStrategy>(
          options, WeightedSumStrategy::WeightMode::Dynamic);
    case TlaKind::Stacking:
      return std::make_unique<StackingStrategy>(options);
    case TlaKind::EnsembleProposed:
      return std::make_unique<EnsembleStrategy>(options,
                                                EnsembleStrategy::Mode::Proposed);
    case TlaKind::EnsembleToggling:
      return std::make_unique<EnsembleStrategy>(options,
                                                EnsembleStrategy::Mode::Toggling);
    case TlaKind::EnsembleProb:
      return std::make_unique<EnsembleStrategy>(options,
                                                EnsembleStrategy::Mode::Prob);
  }
  throw std::invalid_argument("make_tla_strategy: unknown kind");
}

la::Vector first_eval_proposal(const TlaContext& ctx, const TlaOptions& options,
                               rng::Rng& rng) {
  if (!ctx.param_space || !ctx.sources || !ctx.target)
    throw std::invalid_argument("first_eval_proposal: null context");
  rng::Rng fit_rng = rng.split("first-eval");
  auto sources = fit_source_gps(ctx, single_task_options(options), fit_rng);
  if (sources.empty())
    throw std::runtime_error("first_eval_proposal: no usable source task");
  const auto combined = WeightedSurrogate::equal(std::move(sources));
  return minimize_mean(*combined, rng, {}, options.acquisition);
}

}  // namespace gptc::core
