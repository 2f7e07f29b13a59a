#include "linalg/dense.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace ppdl::linalg {

DenseMatrix::DenseMatrix(Index rows, Index cols, Real fill)
    : rows_(rows),
      cols_(cols),
      data_(static_cast<std::size_t>(rows * cols), fill) {
  PPDL_REQUIRE(rows >= 0 && cols >= 0, "dense dimensions must be >= 0");
}

DenseMatrix DenseMatrix::identity(Index n) {
  DenseMatrix m(n, n);
  for (Index i = 0; i < n; ++i) {
    m(i, i) = 1.0;
  }
  return m;
}

Real& DenseMatrix::operator()(Index r, Index c) {
  PPDL_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_,
              "dense index out of range");
  return data_[static_cast<std::size_t>(r * cols_ + c)];
}

Real DenseMatrix::operator()(Index r, Index c) const {
  PPDL_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_,
              "dense index out of range");
  return data_[static_cast<std::size_t>(r * cols_ + c)];
}

std::span<Real> DenseMatrix::row(Index r) {
  PPDL_REQUIRE(r >= 0 && r < rows_, "row out of range");
  return {data_.data() + static_cast<std::size_t>(r * cols_),
          static_cast<std::size_t>(cols_)};
}

std::span<const Real> DenseMatrix::row(Index r) const {
  PPDL_REQUIRE(r >= 0 && r < rows_, "row out of range");
  return {data_.data() + static_cast<std::size_t>(r * cols_),
          static_cast<std::size_t>(cols_)};
}

namespace {

/// Row grain sized so a chunk carries ~64k multiply-adds: small matrices
/// stay on the serial inline path, large batches split. Pure in the
/// shapes, so the decomposition (and the result bits) never depend on the
/// thread count.
Index row_grain_for(Index flops_per_row) {
  constexpr Index kTargetFlopsPerChunk = 65536;
  return std::max<Index>(1, kTargetFlopsPerChunk / std::max<Index>(1, flops_per_row));
}

}  // namespace

DenseMatrix DenseMatrix::multiply(const DenseMatrix& other) const {
  PPDL_REQUIRE(cols_ == other.rows_, "matmul: inner dimension mismatch");
  DenseMatrix out(rows_, other.cols_);
  // Plain serial i-k-j reference: out(i, j) = 0.0 + Σₖ a(i,k)·b(k,j) with
  // k ascending (the order nn's inference kernel reproduces bit for bit).
  for (Index i = 0; i < rows_; ++i) {
    for (Index k = 0; k < cols_; ++k) {
      const Real aik = (*this)(i, k);
      for (Index j = 0; j < other.cols_; ++j) {
        out(i, j) += aik * other(k, j);
      }
    }
  }
  return out;
}

std::vector<Real> DenseMatrix::multiply(std::span<const Real> x) const {
  PPDL_REQUIRE(static_cast<Index>(x.size()) == cols_,
               "matvec: size mismatch");
  std::vector<Real> y(static_cast<std::size_t>(rows_), 0.0);
  parallel::for_range(
      rows_, row_grain_for(cols_), [&](Index row_begin, Index row_end) {
        for (Index i = row_begin; i < row_end; ++i) {
          Real acc = 0.0;
          for (Index j = 0; j < cols_; ++j) {
            acc += (*this)(i, j) * x[static_cast<std::size_t>(j)];
          }
          y[static_cast<std::size_t>(i)] = acc;
        }
      });
  return y;
}

DenseMatrix DenseMatrix::transposed() const {
  DenseMatrix out(cols_, rows_);
  for (Index i = 0; i < rows_; ++i) {
    for (Index j = 0; j < cols_; ++j) {
      out(j, i) = (*this)(i, j);
    }
  }
  return out;
}

Real DenseMatrix::frobenius_norm() const {
  Real acc = 0.0;
  for (const Real v : data_) {
    acc += v * v;
  }
  return std::sqrt(acc);
}

LdltFactorization::LdltFactorization(const DenseMatrix& a, Real pivot_tol)
    : n_(a.rows()), l_(a.rows(), a.rows()), d_(static_cast<std::size_t>(a.rows())) {
  PPDL_REQUIRE(a.rows() == a.cols(), "LDLt needs a square matrix");
  for (Index j = 0; j < n_; ++j) {
    Real dj = a(j, j);
    for (Index k = 0; k < j; ++k) {
      dj -= l_(j, k) * l_(j, k) * d_[static_cast<std::size_t>(k)];
    }
    PPDL_REQUIRE(std::abs(dj) > pivot_tol,
                 "LDLt pivot too small — matrix singular or indefinite");
    d_[static_cast<std::size_t>(j)] = dj;
    l_(j, j) = 1.0;
    for (Index i = j + 1; i < n_; ++i) {
      Real lij = a(i, j);
      for (Index k = 0; k < j; ++k) {
        lij -= l_(i, k) * l_(j, k) * d_[static_cast<std::size_t>(k)];
      }
      l_(i, j) = lij / dj;
    }
  }
}

std::vector<Real> LdltFactorization::solve(std::span<const Real> b) const {
  PPDL_REQUIRE(static_cast<Index>(b.size()) == n_, "LDLt solve: size mismatch");
  std::vector<Real> x(b.begin(), b.end());
  // Forward: L z = b.
  for (Index i = 0; i < n_; ++i) {
    Real acc = x[static_cast<std::size_t>(i)];
    for (Index k = 0; k < i; ++k) {
      acc -= l_(i, k) * x[static_cast<std::size_t>(k)];
    }
    x[static_cast<std::size_t>(i)] = acc;
  }
  // Diagonal: D y = z.
  for (Index i = 0; i < n_; ++i) {
    x[static_cast<std::size_t>(i)] /= d_[static_cast<std::size_t>(i)];
  }
  // Backward: Lᵀ x = y.
  for (Index i = n_ - 1; i >= 0; --i) {
    Real acc = x[static_cast<std::size_t>(i)];
    for (Index k = i + 1; k < n_; ++k) {
      acc -= l_(k, i) * x[static_cast<std::size_t>(k)];
    }
    x[static_cast<std::size_t>(i)] = acc;
  }
  return x;
}

}  // namespace ppdl::linalg
