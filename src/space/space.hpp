// Tuning-parameter spaces: typed parameters (Real / Integer / Categorical),
// encoding to the unit cube, and the task/parameter/output space triple that
// defines a GPTuneCrowd tuning problem (paper Sec. IV-A).
//
// Conventions follow the paper's tables: Integer and Real ranges are
// half-open [lower, upper); Categorical parameters carry an explicit list of
// choices. Values are represented as JSON scalars so configurations flow
// into and out of the shared database without conversion layers.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "la/matrix.hpp"
#include "rng/rng.hpp"

namespace gptc::space {

/// One value of one parameter (int / double / string as a JSON scalar).
using Value = json::Json;

/// A full configuration: values aligned with the parameter order of a Space.
using Config = std::vector<Value>;

enum class ParamKind { Real, Integer, Categorical };

/// A single tunable (or task) parameter.
class Parameter {
 public:
  /// Real parameter over [lower, upper).
  static Parameter real(std::string name, double lower, double upper);
  /// Integer parameter over [lower, upper) — upper is exclusive, matching
  /// the paper's tables (e.g. mb in [1,16)).
  static Parameter integer(std::string name, std::int64_t lower,
                           std::int64_t upper);
  /// Categorical parameter with the given choices.
  static Parameter categorical(std::string name,
                               std::vector<std::string> categories);

  const std::string& name() const { return name_; }
  ParamKind kind() const { return kind_; }
  double lower() const { return lower_; }
  double upper() const { return upper_; }
  const std::vector<std::string>& categories() const { return categories_; }

  /// Maps a typed value into [0, 1). Integers and categoricals map to bin
  /// centers so that rounding on decode is unbiased. Out-of-range values
  /// clamp.
  double encode(const Value& v) const;

  /// Inverse of encode: maps u in [0, 1] back to a typed value.
  Value decode(double u) const;

  /// True if `v` has the right type and lies inside the range/choices.
  bool contains(const Value& v) const;

  /// Uniformly random valid value.
  Value sample(rng::Rng& rng) const;

  /// Number of distinct values (Integer/Categorical) or 0 for Real.
  std::size_t cardinality() const;

  /// Serialization to/from the meta-description JSON schema of Sec. IV-A:
  /// {"name": ..., "type": "integer", "lower_bound": ..., "upper_bound": ...}
  /// or {"name": ..., "type": "categorical", "categories": [...]}.
  json::Json to_json() const;
  static Parameter from_json(const json::Json& j);

 private:
  Parameter() = default;

  std::string name_;
  ParamKind kind_ = ParamKind::Real;
  double lower_ = 0.0;
  double upper_ = 1.0;  // exclusive
  std::vector<std::string> categories_;
};

/// An ordered set of parameters.
class Space {
 public:
  Space() = default;
  explicit Space(std::vector<Parameter> params);

  std::size_t dim() const { return params_.size(); }
  const Parameter& operator[](std::size_t i) const { return params_[i]; }
  const std::vector<Parameter>& params() const { return params_; }

  /// Index of the parameter with the given name, or nullopt.
  std::optional<std::size_t> index_of(const std::string& name) const;

  /// Encodes a full configuration into the unit cube.
  la::Vector encode(const Config& c) const;

  /// Decodes a unit-cube point into a configuration (clamping to [0,1]).
  Config decode(const la::Vector& u) const;

  /// Validates types and ranges of a configuration.
  bool contains(const Config& c) const;

  /// Uniform random configuration.
  Config sample(rng::Rng& rng) const;

  /// Configuration <-> named JSON object ({"mb": 4, "nb": 8, ...}).
  json::Json config_to_json(const Config& c) const;
  Config config_from_json(const json::Json& obj) const;

  /// Space <-> meta-description JSON array.
  json::Json to_json() const;
  static Space from_json(const json::Json& arr);

 private:
  std::vector<Parameter> params_;
};

/// A black-box objective: given (task configuration, tuning configuration),
/// returns the measured output (e.g. runtime in seconds). NaN signals a
/// failed evaluation (OOM, crash) — the tuner records it but excludes it
/// from surrogate fitting, as in the paper's NIMROD experiments.
using Objective = std::function<double(const Config& task, const Config& params)>;

/// The full tuning-problem definition of the paper's meta description:
/// input (task) space, tuning-parameter space, output space and objective.
struct TuningProblem {
  std::string name;
  Space task_space;    // "input_space"
  Space param_space;   // "parameter_space"
  std::string output_name = "runtime";  // single-objective, minimized
  Objective objective;

  /// The problem_space block of a meta description (Sec. IV-A).
  json::Json problem_space_json() const;
};

}  // namespace gptc::space
