#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "linalg/preconditioner.hpp"
#include "linalg/vector_ops.hpp"

namespace ppdl::linalg {
namespace {

CsrMatrix spd_tridiag(Index n, Real diag, Real off) {
  CooMatrix coo(n, n);
  for (Index i = 0; i < n; ++i) {
    coo.add(i, i, diag);
    if (i + 1 < n) {
      coo.add_symmetric_pair(i, i + 1, off);
    }
  }
  return CsrMatrix::from_coo(coo);
}

TEST(IdentityPrecond, CopiesInput) {
  IdentityPreconditioner p;
  const std::vector<Real> r{1.0, -2.0, 3.0};
  std::vector<Real> out(3);
  p.apply(r, out);
  EXPECT_EQ(out, r);
  EXPECT_STREQ(p.name(), "none");
}

TEST(JacobiPrecond, DividesByDiagonal) {
  const CsrMatrix a = spd_tridiag(3, 4.0, -1.0);
  JacobiPreconditioner p(a);
  const std::vector<Real> r{4.0, 8.0, -4.0};
  std::vector<Real> out(3);
  p.apply(r, out);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_DOUBLE_EQ(out[1], 2.0);
  EXPECT_DOUBLE_EQ(out[2], -1.0);
}

// Regression: a zero diagonal is a property of the *input*, not caller
// misuse, so it must raise the typed solver error (which the robust ladder
// records and escalates past), not a ContractViolation.
TEST(JacobiPrecond, ZeroDiagonalThrowsTypedError) {
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0);  // (1,1) missing -> zero diagonal
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  EXPECT_THROW(JacobiPreconditioner{a}, PreconditionerError);
}

TEST(Ic0Precond, ExactForTridiagonal) {
  // IC(0) on a tridiagonal SPD matrix has no dropped fill, so M = A exactly
  // and apply() is a direct solve.
  const Index n = 12;
  const CsrMatrix a = spd_tridiag(n, 3.0, -1.0);
  Ic0Preconditioner p(a);
  std::vector<Real> x_true(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    x_true[static_cast<std::size_t>(i)] = std::sin(static_cast<Real>(i));
  }
  const std::vector<Real> r = a.multiply(x_true);
  std::vector<Real> out(static_cast<std::size_t>(n));
  p.apply(r, out);
  for (Index i = 0; i < n; ++i) {
    EXPECT_NEAR(out[static_cast<std::size_t>(i)],
                x_true[static_cast<std::size_t>(i)], 1e-10);
  }
}

TEST(Ic0Precond, ActionIsSymmetricPositiveDefinite) {
  // PCG requires M⁻¹ to act as an SPD operator: rᵀM⁻¹s = sᵀM⁻¹r and
  // rᵀM⁻¹r > 0 for r ≠ 0. Check on a 2-D 5-point Laplacian.
  const Index m = 6;
  const Index n = m * m;
  CooMatrix coo(n, n);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < m; ++j) {
      const Index v = i * m + j;
      coo.add(v, v, 4.0);
      if (j + 1 < m) {
        coo.add_symmetric_pair(v, v + 1, -1.0);
      }
      if (i + 1 < m) {
        coo.add_symmetric_pair(v, v + m, -1.0);
      }
    }
  }
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  Ic0Preconditioner p(a);

  std::vector<Real> r(static_cast<std::size_t>(n));
  std::vector<Real> s(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    r[static_cast<std::size_t>(i)] = std::sin(1.3 * static_cast<Real>(i) + 0.2);
    s[static_cast<std::size_t>(i)] = std::cos(0.7 * static_cast<Real>(i) - 1.0);
  }
  std::vector<Real> minv_r(static_cast<std::size_t>(n));
  std::vector<Real> minv_s(static_cast<std::size_t>(n));
  p.apply(r, minv_r);
  p.apply(s, minv_s);

  const Real rms = dot(r, minv_s);
  const Real smr = dot(s, minv_r);
  EXPECT_NEAR(rms, smr, 1e-10 * std::max(std::abs(rms), 1.0));
  EXPECT_GT(dot(r, minv_r), 0.0);
  EXPECT_GT(dot(s, minv_s), 0.0);
}

TEST(Ic0Precond, NonSquareThrows) {
  CooMatrix coo(2, 3);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  EXPECT_THROW(Ic0Preconditioner{a}, ppdl::ContractViolation);
}

TEST(Factory, MakesEveryKind) {
  const CsrMatrix a = spd_tridiag(4, 2.0, -0.5);
  EXPECT_STREQ(make_preconditioner(PreconditionerKind::kNone, a)->name(),
               "none");
  EXPECT_STREQ(make_preconditioner(PreconditionerKind::kJacobi, a)->name(),
               "jacobi");
  EXPECT_STREQ(make_preconditioner(PreconditionerKind::kIc0, a)->name(),
               "ic0");
}

TEST(Factory, ParsesNames) {
  EXPECT_EQ(parse_preconditioner("none"), PreconditionerKind::kNone);
  EXPECT_EQ(parse_preconditioner("jacobi"), PreconditionerKind::kJacobi);
  EXPECT_EQ(parse_preconditioner("ic0"), PreconditionerKind::kIc0);
  EXPECT_THROW(parse_preconditioner("lu"), ppdl::ContractViolation);
  // Kinds that once existed are rejected like any unknown name.
  EXPECT_THROW(parse_preconditioner("ic0-level"), ppdl::ContractViolation);
  EXPECT_THROW(parse_preconditioner("chebyshev"), ppdl::ContractViolation);
}

TEST(Factory, RoundTripsKindNames) {
  for (const PreconditionerKind kind :
       {PreconditionerKind::kNone, PreconditionerKind::kJacobi,
        PreconditionerKind::kIc0}) {
    EXPECT_EQ(parse_preconditioner(to_string(kind)), kind);
  }
}

}  // namespace
}  // namespace ppdl::linalg
