#include "la/matrix.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace gptc::la {

Matrix Matrix::from_rows(const std::vector<Vector>& rows) {
  if (rows.empty()) return {};
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != m.cols())
      throw std::invalid_argument("Matrix::from_rows: ragged rows");
    for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

void Matrix::add_diagonal(double alpha) {
  if (rows_ != cols_)
    throw std::invalid_argument("add_diagonal: matrix not square");
  for (std::size_t i = 0; i < rows_; ++i) (*this)(i, i) += alpha;
}

Vector matvec(const Matrix& a, const Vector& x) {
  if (a.cols() != x.size()) throw std::invalid_argument("matvec: size mismatch");
  Vector y(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto row = a.row(r);
    double s = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) s += row[c] * x[c];
    y[r] = s;
  }
  return y;
}

Vector matvec_t(const Matrix& a, const Vector& x) {
  if (a.rows() != x.size())
    throw std::invalid_argument("matvec_t: size mismatch");
  Vector y(a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto row = a.row(r);
    const double xr = x[r];
    for (std::size_t c = 0; c < a.cols(); ++c) y[c] += row[c] * xr;
  }
  return y;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) throw std::invalid_argument("matmul: size mismatch");
  Matrix c(a.rows(), b.cols());
  // i-k-j loop order keeps the inner loop streaming over rows of B and C.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      const auto brow = b.row(k);
      auto crow = c.row(i);
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Matrix gram(const Matrix& a) {
  Matrix g(a.cols(), a.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const auto row = a.row(k);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double ri = row[i];
      if (ri == 0.0) continue;
      for (std::size_t j = i; j < a.cols(); ++j) g(i, j) += ri * row[j];
    }
  }
  for (std::size_t i = 0; i < a.cols(); ++i)
    for (std::size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
  return g;
}

double dot(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(const Vector& v) { return std::sqrt(dot(v, v)); }

Vector subtract(const Vector& a, const Vector& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("subtract: size mismatch");
  Vector r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] - b[i];
  return r;
}

void axpy(double alpha, const Vector& b, Vector& a) {
  if (a.size() != b.size()) throw std::invalid_argument("axpy: size mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += alpha * b[i];
}

Cholesky::Cholesky(Matrix a, double initial_jitter, int max_attempts)
    : l_(std::move(a)) {
  if (l_.rows() != l_.cols())
    throw std::invalid_argument("Cholesky: matrix not square");
  const std::size_t n = l_.rows();
  Vector diag(n);
  double mean_diag = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    diag[i] = l_(i, i);
    mean_diag += diag[i];
  }
  mean_diag = n > 0 ? mean_diag / static_cast<double>(n) : 1.0;
  if (mean_diag <= 0.0) mean_diag = 1.0;

  if (try_factor(diag, 0.0)) return;
  double jitter = initial_jitter * mean_diag;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (try_factor(diag, jitter)) {
      jitter_added_ = jitter;
      return;
    }
    jitter *= 10.0;
  }
  throw std::runtime_error("Cholesky: matrix not positive definite");
}

bool Cholesky::try_factor(const Vector& diag, double jitter) {
  // In place, column by column. A's strict lower triangle stays untouched
  // until the factor succeeds, so a failed attempt can retry with more
  // jitter; L is built transposed in the strict upper triangle and the
  // diagonal, and moves to the lower triangle at the end. s[i] starts at
  // A(i, j) and subtracts L(i, k) * L(j, k) for k = 0..j-1 in order, as
  // the one-row loop does: four k per pass over L's rows (contiguous in
  // the transposed layout), two rows per step, each row's operands read
  // before either is written.
  const std::size_t n = l_.rows();
  Vector s(n);
  for (std::size_t j = 0; j < n; ++j) {
    s[j] = diag[j] + jitter;
    for (std::size_t i = j + 1; i < n; ++i) s[i] = l_(i, j);
    std::size_t k = 0;
    for (; k + 4 <= j; k += 4) {
      const double c0 = l_(k, j), c1 = l_(k + 1, j), c2 = l_(k + 2, j),
                   c3 = l_(k + 3, j);  // L(j, k..k+3)
      const double* u0 = l_.row(k).data();  // u0[i] = L(i, k) for i > k
      const double* u1 = l_.row(k + 1).data();
      const double* u2 = l_.row(k + 2).data();
      const double* u3 = l_.row(k + 3).data();
      s[j] = s[j] - c0 * c0 - c1 * c1 - c2 * c2 - c3 * c3;
      std::size_t i = j + 1;
      for (; i + 2 <= n; i += 2) {
        const double s0 = s[i], s1 = s[i + 1];
        const double a0 = u0[i], a1 = u0[i + 1], b0 = u1[i], b1 = u1[i + 1];
        const double d0 = u2[i], d1 = u2[i + 1], e0 = u3[i], e1 = u3[i + 1];
        s[i] = s0 - a0 * c0 - b0 * c1 - d0 * c2 - e0 * c3;
        s[i + 1] = s1 - a1 * c0 - b1 * c1 - d1 * c2 - e1 * c3;
      }
      if (i < n)
        s[i] = s[i] - u0[i] * c0 - u1[i] * c1 - u2[i] * c2 - u3[i] * c3;
    }
    for (; k < j; ++k) {
      const double c0 = l_(k, j);
      const double* u0 = l_.row(k).data();
      s[j] -= c0 * c0;
      for (std::size_t i = j + 1; i < n; ++i) s[i] -= u0[i] * c0;
    }
    const double d = s[j];
    if (!(d > 0.0) || !std::isfinite(d)) return false;
    const double ljj = std::sqrt(d);
    double* uj = l_.row(j).data();
    uj[j] = ljj;
    for (std::size_t i = j + 1; i < n; ++i) uj[i] = s[i] / ljj;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = i + 1; c < n; ++c) {
      l_(c, i) = l_(i, c);
      l_(i, c) = 0.0;
    }
  }
  return true;
}

namespace {

/// Two doubles in one SSE register; arithmetic is lane by lane, with the
/// same IEEE rounding as the scalar operations.
using Pair = double __attribute__((vector_size(16)));

Pair load_pair(const double* p) {
  Pair v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store_pair(double* p, Pair v) { std::memcpy(p, &v, sizeof v); }

/// Forward substitution L y = b in place on one column of the row-major
/// n x m matrix y (stride m): four rows per sweep over the solved prefix,
/// then each finishes on the new entries in k order, so every y[i]
/// subtracts in sequential k order, as one row at a time does.
void forward_column(const Matrix& l, double* y, std::size_t m) {
  const std::size_t n = l.rows();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* l0 = l.row(i).data();
    const double* l1 = l.row(i + 1).data();
    const double* l2 = l.row(i + 2).data();
    const double* l3 = l.row(i + 3).data();
    double s0 = y[i * m], s1 = y[(i + 1) * m], s2 = y[(i + 2) * m],
           s3 = y[(i + 3) * m];
    for (std::size_t k = 0; k < i; ++k) {
      const double yk = y[k * m];
      s0 -= l0[k] * yk;
      s1 -= l1[k] * yk;
      s2 -= l2[k] * yk;
      s3 -= l3[k] * yk;
    }
    const double y0 = s0 / l0[i];
    s1 -= l1[i] * y0;
    const double y1 = s1 / l1[i + 1];
    s2 -= l2[i] * y0;
    s2 -= l2[i + 1] * y1;
    const double y2 = s2 / l2[i + 2];
    s3 -= l3[i] * y0;
    s3 -= l3[i + 1] * y1;
    s3 -= l3[i + 2] * y2;
    y[i * m] = y0;
    y[(i + 1) * m] = y1;
    y[(i + 2) * m] = y2;
    y[(i + 3) * m] = s3 / l3[i + 3];
  }
  for (; i < n; ++i) {
    double s = y[i * m];
    const double* li = l.row(i).data();
    for (std::size_t k = 0; k < i; ++k) s -= li[k] * y[k * m];
    y[i * m] = s / li[i];
  }
}

/// forward_column on the four adjacent columns starting at y, as a 4 x 4
/// register tile: four rows by two Pairs of columns, each lane taking the
/// single column's operations in the single column's order.
void forward_four_columns(const Matrix& l, double* y, std::size_t m) {
  const std::size_t n = l.rows();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* l0 = l.row(i).data();
    const double* l1 = l.row(i + 1).data();
    const double* l2 = l.row(i + 2).data();
    const double* l3 = l.row(i + 3).data();
    double* y0 = y + i * m;
    double* y1 = y0 + m;
    double* y2 = y1 + m;
    double* y3 = y2 + m;
    Pair s0a = load_pair(y0), s0b = load_pair(y0 + 2);
    Pair s1a = load_pair(y1), s1b = load_pair(y1 + 2);
    Pair s2a = load_pair(y2), s2b = load_pair(y2 + 2);
    Pair s3a = load_pair(y3), s3b = load_pair(y3 + 2);
    for (std::size_t k = 0; k < i; ++k) {
      const Pair ka = load_pair(y + k * m), kb = load_pair(y + k * m + 2);
      const double a0 = l0[k], a1 = l1[k], a2 = l2[k], a3 = l3[k];
      s0a -= a0 * ka;
      s0b -= a0 * kb;
      s1a -= a1 * ka;
      s1b -= a1 * kb;
      s2a -= a2 * ka;
      s2b -= a2 * kb;
      s3a -= a3 * ka;
      s3b -= a3 * kb;
    }
    s0a /= l0[i];
    s0b /= l0[i];
    s1a -= l1[i] * s0a;
    s1b -= l1[i] * s0b;
    s1a /= l1[i + 1];
    s1b /= l1[i + 1];
    s2a -= l2[i] * s0a;
    s2b -= l2[i] * s0b;
    s2a -= l2[i + 1] * s1a;
    s2b -= l2[i + 1] * s1b;
    s2a /= l2[i + 2];
    s2b /= l2[i + 2];
    s3a -= l3[i] * s0a;
    s3b -= l3[i] * s0b;
    s3a -= l3[i + 1] * s1a;
    s3b -= l3[i + 1] * s1b;
    s3a -= l3[i + 2] * s2a;
    s3b -= l3[i + 2] * s2b;
    s3a /= l3[i + 3];
    s3b /= l3[i + 3];
    store_pair(y0, s0a);
    store_pair(y0 + 2, s0b);
    store_pair(y1, s1a);
    store_pair(y1 + 2, s1b);
    store_pair(y2, s2a);
    store_pair(y2 + 2, s2b);
    store_pair(y3, s3a);
    store_pair(y3 + 2, s3b);
  }
  for (; i < n; ++i) {
    const double* li = l.row(i).data();
    double* yi = y + i * m;
    Pair sa = load_pair(yi), sb = load_pair(yi + 2);
    for (std::size_t k = 0; k < i; ++k) {
      sa -= li[k] * load_pair(y + k * m);
      sb -= li[k] * load_pair(y + k * m + 2);
    }
    store_pair(yi, sa / li[i]);
    store_pair(yi + 2, sb / li[i]);
  }
}

}  // namespace

Vector Cholesky::solve_lower(const Vector& b) const {
  if (b.size() != order())
    throw std::invalid_argument("solve_lower: size mismatch");
  Vector y(b);
  forward_column(l_, y.data(), 1);
  return y;
}

void Cholesky::solve_lower_in_place(Matrix& b) const {
  if (b.rows() != order())
    throw std::invalid_argument("solve_lower_in_place: size mismatch");
  const std::size_t m = b.cols();
  double* y = b.data().data();
  std::size_t c = 0;
  for (; c + 4 <= m; c += 4) forward_four_columns(l_, y + c, m);
  for (; c < m; ++c) forward_column(l_, y + c, m);
}

Vector Cholesky::solve_lower_t(const Vector& y) const {
  const std::size_t n = order();
  if (y.size() != n)
    throw std::invalid_argument("solve_lower_t: size mismatch");
  Vector x(y);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    x[i] /= l_(i, i);
    const double xi = x[i];
    for (std::size_t k = 0; k < i; ++k) x[k] -= l_(i, k) * xi;
  }
  return x;
}

Vector Cholesky::solve(const Vector& b) const {
  return solve_lower_t(solve_lower(b));
}

Matrix Cholesky::solve(const Matrix& b) const {
  const std::size_t n = order();
  if (b.rows() != n) throw std::invalid_argument("solve: size mismatch");
  Matrix x(n, b.cols());
  Vector col(n);
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < n; ++r) col[r] = b(r, c);
    const Vector sol = solve(col);
    for (std::size_t r = 0; r < n; ++r) x(r, c) = sol[r];
  }
  return x;
}

double Cholesky::log_det() const {
  double s = 0.0;
  for (std::size_t i = 0; i < order(); ++i) s += std::log(l_(i, i));
  return 2.0 * s;
}

Vector least_squares(const Matrix& a, const Vector& b) {
  if (a.rows() != b.size())
    throw std::invalid_argument("least_squares: size mismatch");
  if (a.rows() < a.cols())
    return ridge_least_squares(a, b, 1e-10);  // underdetermined: regularize
  // Householder QR, transforming b alongside.
  Matrix r = a;
  Vector qtb = b;
  const std::size_t m = r.rows(), n = r.cols();
  for (std::size_t k = 0; k < n; ++k) {
    // Build the Householder reflector for column k.
    double alpha = 0.0;
    for (std::size_t i = k; i < m; ++i) alpha += r(i, k) * r(i, k);
    alpha = std::sqrt(alpha);
    if (alpha == 0.0) continue;
    if (r(k, k) > 0.0) alpha = -alpha;
    Vector v(m - k);
    v[0] = r(k, k) - alpha;
    for (std::size_t i = k + 1; i < m; ++i) v[i - k] = r(i, k);
    const double vnorm2 = dot(v, v);
    if (vnorm2 == 0.0) continue;
    // Apply I - 2 v v^T / (v^T v) to the trailing columns and to b.
    for (std::size_t j = k; j < n; ++j) {
      double s = 0.0;
      for (std::size_t i = k; i < m; ++i) s += v[i - k] * r(i, j);
      const double f = 2.0 * s / vnorm2;
      for (std::size_t i = k; i < m; ++i) r(i, j) -= f * v[i - k];
    }
    double s = 0.0;
    for (std::size_t i = k; i < m; ++i) s += v[i - k] * qtb[i];
    const double f = 2.0 * s / vnorm2;
    for (std::size_t i = k; i < m; ++i) qtb[i] -= f * v[i - k];
    r(k, k) = alpha;
  }
  // Back substitution on the upper-triangular R; a tiny pivot means rank
  // deficiency — fall back to the ridge solution in that case.
  Vector x(n, 0.0);
  for (std::size_t jj = n; jj > 0; --jj) {
    const std::size_t j = jj - 1;
    if (std::abs(r(j, j)) < 1e-12)
      return ridge_least_squares(a, b, 1e-10);
    double s = qtb[j];
    for (std::size_t c = j + 1; c < n; ++c) s -= r(j, c) * x[c];
    x[j] = s / r(j, j);
  }
  return x;
}

Vector ridge_least_squares(const Matrix& a, const Vector& b, double lambda) {
  Matrix ata = gram(a);
  ata.add_diagonal(lambda);
  return Cholesky(std::move(ata)).solve(matvec_t(a, b));
}

Vector nonneg_least_squares(const Matrix& a, const Vector& b, double lambda,
                            int max_iters, double tol) {
  const std::size_t n = a.cols();
  Matrix ata = gram(a);
  ata.add_diagonal(lambda);
  const Vector atb = matvec_t(a, b);
  Vector x(n, 0.0);
  // Projected coordinate descent: exact coordinate minimization followed by
  // projection onto x_j >= 0. Converges for this strictly convex objective.
  for (int it = 0; it < max_iters; ++it) {
    double max_change = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      double g = atb[j];
      for (std::size_t k = 0; k < n; ++k)
        if (k != j) g -= ata(j, k) * x[k];
      const double xj = std::max(0.0, g / ata(j, j));
      max_change = std::max(max_change, std::abs(xj - x[j]));
      x[j] = xj;
    }
    if (max_change < tol) break;
  }
  return x;
}

}  // namespace gptc::la
