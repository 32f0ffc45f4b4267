// Dense row-major matrix and vector utilities.
//
// This is the numerical substrate for the Gaussian-process stack. It is a
// deliberately small, well-tested kernel set (BLAS-2/3 style operations,
// Cholesky, QR least squares) rather than a general linear-algebra library:
// GP fitting needs exactly these and nothing more.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace gptc::la {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds a matrix from nested initializer data (row major). Ragged input
  /// throws.
  static Matrix from_rows(const std::vector<Vector>& rows);

  /// Identity matrix of order n.
  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  std::span<double> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  Matrix transposed() const;

  /// In-place += alpha * I. Requires a square matrix.
  void add_diagonal(double alpha);

  bool operator==(const Matrix& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// y = A * x.
Vector matvec(const Matrix& a, const Vector& x);

/// y = A^T * x.
Vector matvec_t(const Matrix& a, const Vector& x);

/// C = A * B.
Matrix matmul(const Matrix& a, const Matrix& b);

/// C = A^T * A (symmetric; computed as such).
Matrix gram(const Matrix& a);

/// Dot product. Sizes must match.
double dot(const Vector& a, const Vector& b);

/// Euclidean norm.
double norm2(const Vector& v);

/// r = a - b.
Vector subtract(const Vector& a, const Vector& b);

/// a += alpha * b.
void axpy(double alpha, const Vector& b, Vector& a);

/// Cholesky factor of a symmetric positive-definite matrix.
///
/// Returns the lower-triangular L with A = L L^T. If the factorization hits
/// a non-positive pivot, progressively larger diagonal jitter is added
/// (starting at `initial_jitter` times the mean diagonal, growing 10x up to
/// `max_attempts` times) — the standard GP-library defence against nearly
/// singular kernel matrices. Throws std::runtime_error if all attempts fail.
///
/// Only the lower triangle of A (diagonal included) is read: the strict
/// upper triangle may hold anything, NaN included, without changing a bit
/// of the factor or the jitter. Every entry of L is bitwise the
/// one-row-at-a-time result: however the loops are blocked, each entry
/// subtracts its terms in sequential k order.
///
/// The factor is computed in A's own storage: a caller that moves A in and
/// takes the storage back with release() can assemble its next matrix
/// there without allocating.
class Cholesky {
 public:
  explicit Cholesky(Matrix a, double initial_jitter = 1e-10,
                    int max_attempts = 8);

  const Matrix& lower() const { return l_; }
  /// Hands back the storage: L in the lower triangle, zeros above.
  Matrix release() && { return std::move(l_); }
  std::size_t order() const { return l_.rows(); }
  /// Total jitter that was added to the diagonal to make A factorizable.
  double jitter_added() const { return jitter_added_; }

  /// Solves A x = b via forward/back substitution.
  Vector solve(const Vector& b) const;

  /// Solves A X = B column-by-column.
  Matrix solve(const Matrix& b) const;

  /// Solves L y = b (forward substitution only).
  Vector solve_lower(const Vector& b) const;

  /// Solves L Y = B in place for an n x m B, one right-hand side per
  /// column, four columns at a time in a register tile: each column of the
  /// result is bitwise solve_lower of that column alone.
  void solve_lower_in_place(Matrix& b) const;

  /// Solves L^T x = y (back substitution only).
  Vector solve_lower_t(const Vector& y) const;

  /// log det(A) = 2 * sum(log(L_ii)).
  double log_det() const;

 private:
  /// Factors l_ (holding A) in place with `jitter` added to A's diagonal
  /// `diag`; false, with A's strict lower triangle intact, at a
  /// non-positive or non-finite pivot.
  bool try_factor(const Vector& diag, double jitter);

  Matrix l_;
  double jitter_added_ = 0.0;
};

/// Solves the linear least-squares problem min ||A x - b||_2 via Householder
/// QR with column pivoting disabled (A is expected to be well-scaled by the
/// caller; rank deficiency is handled by a small ridge fallback).
Vector least_squares(const Matrix& a, const Vector& b);

/// Ridge-regularized least squares: solves (A^T A + lambda I) x = A^T b.
Vector ridge_least_squares(const Matrix& a, const Vector& b, double lambda);

/// Non-negative least squares via projected coordinate descent on the normal
/// equations. Small-scale (used for TLA weight fitting with <= ~10 weights).
Vector nonneg_least_squares(const Matrix& a, const Vector& b,
                            double lambda = 1e-8, int max_iters = 500,
                            double tol = 1e-12);

}  // namespace gptc::la
