// The surrogate-model abstraction shared by the BO loop, the TLA algorithms
// and the sensitivity analyzer.
//
// A surrogate maps an encoded point (unit cube) to a predictive mean and
// variance in the *original output units* (e.g. seconds). All TLA model
// combinations in the paper — weighted sums, residual stacks, LCM task
// views — are surrogates, which is what lets the acquisition search treat
// them uniformly.
#pragma once

#include <memory>
#include <span>

#include "la/matrix.hpp"

namespace gptc::gp {

struct Prediction {
  double mean = 0.0;
  double variance = 0.0;

  double stddev() const;
};

class Surrogate {
 public:
  virtual ~Surrogate() = default;

  /// Predictive distributions at encoded points: out[i] at x[i], with
  /// out.size() == x.size(). Each out[i] is bitwise what a span holding x[i]
  /// alone gives, whatever the span's length or other points, so callers
  /// may batch and split points freely.
  virtual void predict(std::span<const la::Vector> x,
                       std::span<Prediction> out) const = 0;

  /// Predictive distribution at one encoded point: the span predict over
  /// {x}. Derived classes bring it into scope with `using`.
  Prediction predict(const la::Vector& x) const {
    Prediction p;
    predict(std::span<const la::Vector>(&x, 1), std::span<Prediction>(&p, 1));
    return p;
  }

  /// Input dimensionality.
  virtual std::size_t dim() const = 0;
};

using SurrogatePtr = std::shared_ptr<const Surrogate>;

}  // namespace gptc::gp
