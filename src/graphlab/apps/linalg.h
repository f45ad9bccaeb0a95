// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Minimal dense linear algebra for the ALS application: symmetric positive
// definite solves via Cholesky (with diagonal-boost fallback), stored in
// flat row-major arrays so no external BLAS is needed, and the one
// normal-equations kernel every ALS solve goes through.

#ifndef GRAPHLAB_APPS_LINALG_H_
#define GRAPHLAB_APPS_LINALG_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "graphlab/util/logging.h"

namespace graphlab {
namespace apps {

/// In-place Cholesky factorization of the n x n row-major SPD matrix at
/// `a`: reads and writes its lower triangle only.  The rows below each
/// diagonal element are eliminated four at a time as independent chains;
/// every element still sums in column order, so the factor is the same
/// bits as one row at a time.  Returns false when A is not positive
/// definite.
inline bool CholeskyFactor(double* a, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    double* rj = a + j * n;
    double d = rj[j];
    for (size_t k = 0; k < j; ++k) d -= rj[k] * rj[k];
    if (d <= 0.0) return false;
    d = std::sqrt(d);
    rj[j] = d;
    size_t i = j + 1;
    for (; i + 4 <= n; i += 4) {
      double* r0 = a + i * n;
      double* r1 = r0 + n;
      double* r2 = r1 + n;
      double* r3 = r2 + n;
      double s0 = r0[j], s1 = r1[j], s2 = r2[j], s3 = r3[j];
      for (size_t k = 0; k < j; ++k) {
        const double x = rj[k];
        s0 -= r0[k] * x;
        s1 -= r1[k] * x;
        s2 -= r2[k] * x;
        s3 -= r3[k] * x;
      }
      r0[j] = s0 / d;
      r1[j] = s1 / d;
      r2[j] = s2 / d;
      r3[j] = s3 / d;
    }
    for (; i < n; ++i) {
      double* ri = a + i * n;
      double s = ri[j];
      for (size_t k = 0; k < j; ++k) s -= ri[k] * rj[k];
      ri[j] = s / d;
    }
  }
  return true;
}

/// Solves L L^T x = b in place given the Cholesky factor L (lower
/// triangle of the n x n row-major `a`).
inline void CholeskySolve(const double* a, size_t n, double* x) {
  // Forward substitution L y = b.
  for (size_t i = 0; i < n; ++i) {
    double s = x[i];
    for (size_t k = 0; k < i; ++k) s -= a[i * n + k] * x[k];
    x[i] = s / a[i * n + i];
  }
  // Back substitution L^T x = y.
  for (size_t ii = n; ii > 0; --ii) {
    size_t i = ii - 1;
    double s = x[i];
    for (size_t k = i + 1; k < n; ++k) s -= a[k * n + i] * x[k];
    x[i] = s / a[i * n + i];
  }
}

/// Solves the SPD system A x = b in place: `a` is the full symmetric
/// n x n row-major matrix and `b` becomes x.  When the factorization
/// fails, the lower triangle is restored from the untouched upper one and
/// the diagonal (saved in the n doubles of `diag`) is boosted, growing
/// tenfold per retry.
inline void SolveSpdInPlace(double* a, size_t n, double* b, double* diag) {
  for (size_t i = 0; i < n; ++i) diag[i] = a[i * n + i];
  double boost = 1e-9;
  while (!CholeskyFactor(a, n)) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < i; ++j) a[i * n + j] = a[j * n + i];
      a[i * n + i] = diag[i] + boost;
    }
    boost *= 10.0;
    GL_CHECK_LT(boost, 1e3) << "SolveSpdInPlace: matrix irreparably singular";
  }
  CholeskySolve(a, n, b);
}

/// The regularized normal equations of one least-squares solve,
/// (sum_k x_k x_k^T + lambda I) w = sum_k r_k x_k over rows (x_k, r_k),
/// in reusable scratch: Reset(), gather each row's d values into
/// AddRow(), then Solve().  The lower triangle is filled with four
/// independent accumulators per row; every element sums from 0.0 in row
/// order, so w is the same bits as adding one row at a time.
class NormalEquations {
 public:
  /// Starts a d-dimensional system with no rows.
  void Reset(size_t d) {
    d_ = d;
    rows_.clear();
    ratings_.clear();
  }

  /// Appends a row with right-hand-side weight `rating`; returns the d
  /// slots its values go in (valid until the next AddRow).
  double* AddRow(double rating) {
    ratings_.push_back(rating);
    rows_.resize(rows_.size() + d_);
    return rows_.data() + rows_.size() - d_;
  }

  /// Solves for w, written into `out` (resized to d).
  void Solve(double lambda, std::vector<double>* out) {
    const size_t d = d_;
    const size_t m = ratings_.size();
    const double* x = rows_.data();
    a_.resize(d * d);
    diag_.resize(d);
    out->resize(d);
    double* b = out->data();
    for (size_t i = 0; i < d; ++i) {
      double* ai = a_.data() + i * d;
      size_t j = 0;
      for (; j + 4 <= i + 1; j += 4) {
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (size_t k = 0; k < m; ++k) {
          const double* xk = x + k * d;
          const double xi = xk[i];
          s0 += xi * xk[j];
          s1 += xi * xk[j + 1];
          s2 += xi * xk[j + 2];
          s3 += xi * xk[j + 3];
        }
        ai[j] = s0;
        ai[j + 1] = s1;
        ai[j + 2] = s2;
        ai[j + 3] = s3;
      }
      for (; j <= i; ++j) {
        double s = 0.0;
        for (size_t k = 0; k < m; ++k) s += x[k * d + i] * x[k * d + j];
        ai[j] = s;
      }
      double s = 0.0;
      for (size_t k = 0; k < m; ++k) s += ratings_[k] * x[k * d + i];
      b[i] = s;
    }
    for (size_t i = 0; i < d; ++i) {
      for (size_t j = i + 1; j < d; ++j) a_[i * d + j] = a_[j * d + i];
      a_[i * d + i] += lambda;
    }
    SolveSpdInPlace(a_.data(), d, b, diag_.data());
  }

 private:
  size_t d_ = 0;
  std::vector<double> rows_;     // row k at [k * d, (k + 1) * d)
  std::vector<double> ratings_;  // one per row
  std::vector<double> a_;        // d x d
  std::vector<double> diag_;     // SolveSpdInPlace scratch
};

/// The calling thread's scratch system: solves run on many engine
/// workers at once, each reusing its own buffers.
inline NormalEquations& ThreadNormalEquations() {
  thread_local NormalEquations equations;
  return equations;
}

inline double Dot(const std::vector<double>& a,
                  const std::vector<double>& b) {
  GL_CHECK_EQ(a.size(), b.size());
  double s = 0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

inline double L2Distance(const std::vector<double>& a,
                         const std::vector<double>& b) {
  GL_CHECK_EQ(a.size(), b.size());
  double s = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s);
}

}  // namespace apps
}  // namespace graphlab

#endif  // GRAPHLAB_APPS_LINALG_H_
