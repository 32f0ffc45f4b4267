#include "la/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "rng/rng.hpp"

namespace gptc::la {
namespace {

Matrix random_spd(std::size_t n, rng::Rng& rng) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
  Matrix spd = matmul(a, a.transposed());
  spd.add_diagonal(static_cast<double>(n));  // well-conditioned
  return spd;
}

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, FromRowsAndRagged) {
  const Matrix m = Matrix::from_rows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
  EXPECT_THROW(Matrix::from_rows({{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, Identity) {
  const Matrix i = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
}

TEST(Matrix, Transpose) {
  const Matrix m = Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 0), 3.0);
  EXPECT_DOUBLE_EQ(t(1, 1), 5.0);
}

TEST(Matrix, AddDiagonalRequiresSquare) {
  Matrix m(2, 3);
  EXPECT_THROW(m.add_diagonal(1.0), std::invalid_argument);
}

TEST(Blas, MatvecKnownValues) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Vector y = matvec(a, {1, 1});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  const Vector yt = matvec_t(a, {1, 1});
  EXPECT_DOUBLE_EQ(yt[0], 4.0);
  EXPECT_DOUBLE_EQ(yt[1], 6.0);
}

TEST(Blas, MatvecSizeMismatchThrows) {
  const Matrix a(2, 3);
  EXPECT_THROW(matvec(a, {1, 2}), std::invalid_argument);
  EXPECT_THROW(matvec_t(a, {1, 2, 3}), std::invalid_argument);
}

TEST(Blas, MatmulKnownValues) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::from_rows({{5, 6}, {7, 8}});
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Blas, GramEqualsAtA) {
  rng::Rng rng(1);
  Matrix a(5, 3);
  for (auto& v : a.data()) v = rng.normal();
  const Matrix g = gram(a);
  const Matrix ref = matmul(a.transposed(), a);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_NEAR(g(i, j), ref(i, j), 1e-12);
}

TEST(Blas, DotNormSubtractAxpy) {
  const Vector a = {3, 4};
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  const Vector d = subtract(a, {1, 1});
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  Vector y = {1, 1};
  axpy(2.0, a, y);
  EXPECT_DOUBLE_EQ(y[1], 9.0);
  EXPECT_THROW(dot(a, {1.0}), std::invalid_argument);
}

TEST(Cholesky, FactorsKnownMatrix) {
  // A = [[4,2],[2,3]] -> L = [[2,0],[1,sqrt(2)]]
  const Cholesky chol(Matrix::from_rows({{4, 2}, {2, 3}}));
  EXPECT_NEAR(chol.lower()(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(chol.lower()(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(chol.lower()(1, 1), std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(chol.jitter_added(), 0.0);
}

TEST(Cholesky, SolveRoundTrip) {
  rng::Rng rng(2);
  const Matrix a = random_spd(20, rng);
  Vector x_true(20);
  for (auto& v : x_true) v = rng.normal();
  const Vector b = matvec(a, x_true);
  const Vector x = Cholesky(a).solve(b);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(Cholesky, MatrixSolveRoundTrip) {
  rng::Rng rng(3);
  const Matrix a = random_spd(8, rng);
  Matrix b(8, 2);
  for (auto& v : b.data()) v = rng.normal();
  const Matrix x = Cholesky(a).solve(b);
  const Matrix ax = matmul(a, x);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 2; ++j) EXPECT_NEAR(ax(i, j), b(i, j), 1e-8);
}

TEST(Cholesky, LogDetMatchesProductOfPivots) {
  const Matrix a = Matrix::from_rows({{4, 0}, {0, 9}});
  EXPECT_NEAR(Cholesky(a).log_det(), std::log(36.0), 1e-12);
}

TEST(Cholesky, TriangularSolvesAreConsistent) {
  rng::Rng rng(4);
  const Matrix a = random_spd(10, rng);
  const Cholesky chol(a);
  Vector b(10);
  for (auto& v : b) v = rng.normal();
  const Vector y = chol.solve_lower(b);
  const Vector x = chol.solve_lower_t(y);
  const Vector x2 = chol.solve(b);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(x[i], x2[i], 1e-12);
}

TEST(Cholesky, AddsJitterForSingularMatrix) {
  // Rank-1 matrix: needs jitter but must not throw.
  const Matrix a = Matrix::from_rows({{1, 1}, {1, 1}});
  const Cholesky chol(a);
  EXPECT_GT(chol.jitter_added(), 0.0);
}

TEST(Cholesky, ThrowsForIndefiniteMatrix) {
  const Matrix a = Matrix::from_rows({{1, 0}, {0, -5}});
  EXPECT_THROW(Cholesky(a, 1e-10, 2), std::runtime_error);
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(Cholesky(Matrix(2, 3)), std::invalid_argument);
}

/// Reference factor: one row at a time, each entry one sequential k loop,
/// with the same jitter schedule as Cholesky. Returns false when every
/// attempt fails.
bool naive_cholesky(const Matrix& a, Matrix& l, double& jitter_added) {
  const std::size_t n = a.rows();
  double mean_diag = 0.0;
  for (std::size_t i = 0; i < n; ++i) mean_diag += a(i, i);
  mean_diag /= static_cast<double>(n);
  double jitter = 0.0;
  for (int attempt = -1; attempt < 8; ++attempt) {
    if (attempt == 0) jitter = 1e-10 * mean_diag;
    if (attempt > 0) jitter *= 10.0;
    l = Matrix(n, n);
    bool ok = true;
    for (std::size_t j = 0; j < n && ok; ++j) {
      double d = a(j, j) + jitter;
      for (std::size_t k = 0; k < j; ++k) d -= l(j, k) * l(j, k);
      if (!(d > 0.0) || !std::isfinite(d)) {
        ok = false;
        break;
      }
      l(j, j) = std::sqrt(d);
      for (std::size_t i = j + 1; i < n; ++i) {
        double s = a(i, j);
        for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
        l(i, j) = s / l(j, j);
      }
    }
    if (ok) {
      jitter_added = jitter;
      return true;
    }
  }
  return false;
}

void expect_matches_naive(const Matrix& a) {
  Matrix ref;
  double ref_jitter = -1.0;
  ASSERT_TRUE(naive_cholesky(a, ref, ref_jitter));
  const Cholesky chol(a);
  EXPECT_EQ(chol.jitter_added(), ref_jitter);
  const std::size_t n = a.rows();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_EQ(chol.lower()(i, j), ref(i, j))
          << "n " << n << " entry (" << i << "," << j << ")";
}

TEST(Cholesky, BitwiseEqualToRowAtATimeFactor) {
  // n = 1..25 hits every remainder of the four-k passes and of the
  // two-row steps many times over.
  rng::Rng rng(5);
  for (std::size_t n = 1; n <= 25; ++n) expect_matches_naive(random_spd(n, rng));
}

TEST(Cholesky, SolveLowerBitwiseEqualToRowAtATime) {
  // n = 1..13 covers every remainder of the four-row sweep three times.
  rng::Rng rng(8);
  for (std::size_t n = 1; n <= 13; ++n) {
    const Cholesky chol(random_spd(n, rng));
    const Matrix& l = chol.lower();
    Vector b(n);
    for (auto& v : b) v = rng.normal();
    Vector ref(n);
    for (std::size_t i = 0; i < n; ++i) {
      double s = b[i];
      for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * ref[k];
      ref[i] = s / l(i, i);
    }
    const Vector y = chol.solve_lower(b);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(y[i], ref[i]) << "n " << n << " entry " << i;
  }
}

TEST(Cholesky, ReleaseHandsBackTheFactorForReuse) {
  // The storage handed back holds L with zeros above the diagonal; a
  // matrix assembled into it (lower triangle only) factors bitwise as a
  // fresh copy does.
  rng::Rng rng(8);
  const Matrix a = random_spd(9, rng), b = random_spd(9, rng);
  Cholesky first(a);
  const Matrix l = first.lower();
  Matrix storage = std::move(first).release();
  EXPECT_EQ(storage, l);
  for (std::size_t i = 0; i < 9; ++i)
    for (std::size_t j = 0; j <= i; ++j) storage(i, j) = b(i, j);
  EXPECT_EQ(Cholesky(std::move(storage)).lower(), Cholesky(b).lower());
}

TEST(Cholesky, ReadsOnlyLowerTriangle) {
  // NaN above the diagonal must not reach the factor, the jitter or a
  // solve.
  rng::Rng rng(7);
  for (std::size_t n = 1; n <= 25; ++n) {
    const Matrix a = random_spd(n, rng);
    Matrix lower = a;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) lower(i, j) = std::nan("");
    const Cholesky full(a), half(lower);
    EXPECT_EQ(half.jitter_added(), full.jitter_added()) << "n " << n;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        EXPECT_EQ(half.lower()(i, j), full.lower()(i, j))
            << "n " << n << " entry (" << i << "," << j << ")";
  }
}

TEST(Cholesky, BitwiseEqualToRowAtATimeFactorWithJitter) {
  // Rank 2 in order 7: the unjittered attempt fails, so the retry path and
  // its jitter must match too.
  rng::Rng rng(6);
  Matrix b(7, 2);
  for (auto& v : b.data()) v = rng.normal();
  const Matrix a = matmul(b, b.transposed());
  expect_matches_naive(a);
  EXPECT_GT(Cholesky(a).jitter_added(), 0.0);
}

TEST(LeastSquares, ExactOnSquareSystem) {
  const Matrix a = Matrix::from_rows({{2, 0}, {0, 4}});
  const Vector x = least_squares(a, {2, 8});
  EXPECT_NEAR(x[0], 1.0, 1e-10);
  EXPECT_NEAR(x[1], 2.0, 1e-10);
}

TEST(LeastSquares, OverdeterminedMatchesNormalEquations) {
  rng::Rng rng(5);
  Matrix a(30, 4);
  for (auto& v : a.data()) v = rng.normal();
  Vector b(30);
  for (auto& v : b) v = rng.normal();
  const Vector x_qr = least_squares(a, b);
  const Vector x_ridge = ridge_least_squares(a, b, 1e-12);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(x_qr[i], x_ridge[i], 1e-6);
}

TEST(LeastSquares, RecoversExactFit) {
  rng::Rng rng(6);
  Matrix a(50, 3);
  for (auto& v : a.data()) v = rng.normal();
  const Vector truth = {1.5, -2.0, 0.25};
  const Vector b = matvec(a, truth);
  const Vector x = least_squares(a, b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], truth[i], 1e-8);
}

TEST(LeastSquares, RankDeficientFallsBackGracefully) {
  // Two identical columns: QR would divide by ~0; must still return a
  // finite minimizer.
  Matrix a(4, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    a(i, 0) = static_cast<double>(i + 1);
    a(i, 1) = static_cast<double>(i + 1);
  }
  const Vector x = least_squares(a, {1, 2, 3, 4});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_TRUE(std::isfinite(x[0]));
  EXPECT_TRUE(std::isfinite(x[1]));
  // Residual of the fitted solution should be ~0 (b is in the column span).
  Vector r = subtract(matvec(a, x), {1, 2, 3, 4});
  EXPECT_NEAR(norm2(r), 0.0, 1e-6);
}

TEST(Nnls, MatchesUnconstrainedWhenSolutionIsPositive) {
  const Matrix a = Matrix::from_rows({{1, 0}, {0, 1}, {1, 1}});
  const Vector b = {1.0, 2.0, 3.0};
  const Vector x = nonneg_least_squares(a, b);
  const Vector ref = least_squares(a, b);
  EXPECT_NEAR(x[0], ref[0], 1e-5);
  EXPECT_NEAR(x[1], ref[1], 1e-5);
}

TEST(Nnls, ClampsNegativeCoordinates) {
  // Unconstrained solution has a negative coefficient; NNLS must return 0.
  const Matrix a = Matrix::from_rows({{1, 1}, {0, 1}});
  const Vector b = {0.0, 1.0};  // unconstrained: x = (-1, 1)
  const Vector x = nonneg_least_squares(a, b);
  EXPECT_NEAR(x[0], 0.0, 1e-9);
  EXPECT_GT(x[1], 0.0);
}

TEST(Nnls, AllZeroWhenTargetNegativelyCorrelated) {
  const Matrix a = Matrix::from_rows({{1}, {1}});
  const Vector x = nonneg_least_squares(a, {-1.0, -2.0});
  EXPECT_NEAR(x[0], 0.0, 1e-12);
}

}  // namespace
}  // namespace gptc::la
