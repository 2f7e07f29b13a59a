#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/dense.hpp"
#include "linalg/ordering.hpp"
#include "linalg/vector_ops.hpp"
#include "support/checksum.hpp"
#include "support/fixtures.hpp"

namespace ppdl::linalg {
namespace {

CsrMatrix laplacian_2d(Index m) {
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
  return CsrMatrix::from_coo(coo);
}

TEST(SparseCholesky, SolvesTridiagonalExactly) {
  const Index n = 20;
  CooMatrix coo(n, n);
  for (Index i = 0; i < n; ++i) {
    coo.add(i, i, 3.0);
    if (i + 1 < n) {
      coo.add_symmetric_pair(i, i + 1, -1.0);
    }
  }
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  Rng rng(3);
  std::vector<Real> x_true(static_cast<std::size_t>(n));
  for (Real& v : x_true) {
    v = rng.normal();
  }
  const std::vector<Real> b = a.multiply(x_true);
  const SparseCholesky chol(a);
  const std::vector<Real> x = chol.solve(b);
  for (Index i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                x_true[static_cast<std::size_t>(i)], 1e-10);
  }
}

TEST(SparseCholesky, SolvesMeshSystem) {
  const CsrMatrix a = laplacian_2d(9);
  Rng rng(5);
  std::vector<Real> x_true(static_cast<std::size_t>(a.rows()));
  for (Real& v : x_true) {
    v = rng.uniform(-1.0, 1.0);
  }
  const std::vector<Real> b = a.multiply(x_true);
  const SparseCholesky chol(a);
  const std::vector<Real> x = chol.solve(b);
  const std::vector<Real> residual = subtract(a.multiply(x), b);
  EXPECT_LT(norm2(residual) / norm2(b), 1e-12);
}

TEST(SparseCholesky, PermutedSolveMatchesUnpermuted) {
  const CsrMatrix a = laplacian_2d(7);
  Rng rng(8);
  std::vector<Real> b(static_cast<std::size_t>(a.rows()));
  for (Real& v : b) {
    v = rng.normal();
  }
  const SparseCholesky plain(a);
  const SparseCholesky permuted(a, rcm_ordering(a));
  const std::vector<Real> x1 = plain.solve(b);
  const std::vector<Real> x2 = permuted.solve(b);
  for (std::size_t i = 0; i < x1.size(); ++i) {
    EXPECT_NEAR(x1[i], x2[i], 1e-9);
  }
}

TEST(SparseCholesky, RcmShrinksTheFactorProfile) {
  // Scrambled path: natural-order envelope is fat, RCM makes it tight.
  const Index n = 60;
  std::vector<Index> label(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    label[static_cast<std::size_t>(i)] = (i % 2 == 0) ? i / 2 : n - 1 - i / 2;
  }
  CooMatrix coo(n, n);
  for (Index i = 0; i < n; ++i) {
    coo.add(label[static_cast<std::size_t>(i)],
            label[static_cast<std::size_t>(i)], 2.5);
    if (i + 1 < n) {
      coo.add_symmetric_pair(label[static_cast<std::size_t>(i)],
                             label[static_cast<std::size_t>(i + 1)], -1.0);
    }
  }
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  const SparseCholesky natural(a);
  const SparseCholesky reordered(a, rcm_ordering(a));
  EXPECT_LT(reordered.factor_nnz(), natural.factor_nnz());
}

TEST(SparseCholesky, MatchesDenseLdltOnRandomSpd) {
  Rng rng(11);
  const Index n = 12;
  DenseMatrix dense(n, n);
  for (Real& v : dense.data()) {
    v = rng.normal();
  }
  DenseMatrix spd = dense.multiply(dense.transposed());
  for (Index i = 0; i < n; ++i) {
    spd(i, i) += static_cast<Real>(n);
  }
  CooMatrix coo(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) {
      coo.add(i, j, spd(i, j));
    }
  }
  const CsrMatrix sparse = CsrMatrix::from_coo(coo);
  std::vector<Real> b(static_cast<std::size_t>(n));
  for (Real& v : b) {
    v = rng.normal();
  }
  const LdltFactorization ldlt(spd);
  const SparseCholesky chol(sparse);
  const std::vector<Real> x1 = ldlt.solve(b);
  const std::vector<Real> x2 = chol.solve(b);
  for (std::size_t i = 0; i < x1.size(); ++i) {
    EXPECT_NEAR(x1[i], x2[i], 1e-9);
  }
}

TEST(SparseCholesky, NonSpdThrows) {
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(1, 1, 1.0);
  coo.add_symmetric_pair(0, 1, 2.0);  // indefinite
  EXPECT_THROW(SparseCholesky{CsrMatrix::from_coo(coo)},
               ppdl::ContractViolation);
}

TEST(SparseCholesky, NonSquareThrows) {
  CooMatrix coo(2, 3);
  EXPECT_THROW(SparseCholesky{CsrMatrix::from_coo(coo)},
               ppdl::ContractViolation);
}

TEST(SparseCholesky, SolveSizeMismatchThrows) {
  const CsrMatrix a = laplacian_2d(3);
  const SparseCholesky chol(a);
  const std::vector<Real> bad(4, 1.0);
  EXPECT_THROW(chol.solve(bad), ppdl::ContractViolation);
}

TEST(SparseCholesky, ReusableForMultipleRhs) {
  const CsrMatrix a = laplacian_2d(6);
  const SparseCholesky chol(a, rcm_ordering(a));
  Rng rng(13);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<Real> x_true(static_cast<std::size_t>(a.rows()));
    for (Real& v : x_true) {
      v = rng.normal();
    }
    const std::vector<Real> b = a.multiply(x_true);
    const std::vector<Real> x = chol.solve(b);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(x[i], x_true[i], 1e-9);
    }
  }
}

// Pins the factor itself, exact (τ = 0) and incomplete (τ = 1e-3, the
// resident solver's preconditioner), at one thread (serial row loop) and
// two (etree subtrees on the pool): any change to the pattern enumeration,
// the substitution order, dropping, or the subtree assembly shows up here.
// The expected hashes were produced by commit 237d134 ("Run MLP training on
// allocation-free row-block kernels"), the serial, sort-based
// implementation.
TEST(SparseCholesky, FactorPinnedChecksum) {
  struct ThreadGuard {
    ~ThreadGuard() { parallel::set_num_threads(0); }
  } guard;
  const CsrMatrix a = testsupport::replica_mna_matrix("ibmpg2", 0.1, 7);
  const std::vector<Index> perm = nd_ordering(a);
  struct Pinned {
    Real tau;
    U64 row_ptr;
    U64 col_idx;
    U64 values;
  };
  for (const Pinned& pin :
       {Pinned{0.0, 0xbd35d89e02ba74ceULL, 0x09c750ffae3eb989ULL,
               0xff69614fc79c19a2ULL},
        Pinned{1e-3, 0x4b855e8028265283ULL, 0xad58e01d0fccce2bULL,
               0x84c33fea6fb3d5beULL}}) {
    for (const Index threads : {Index{1}, Index{2}}) {
      parallel::set_num_threads(threads);
      const SparseCholesky chol(a, perm, pin.tau);
      EXPECT_EQ(testsupport::fnv1a(chol.factor_row_ptr()), pin.row_ptr)
          << "tau=" << pin.tau << " threads=" << threads;
      EXPECT_EQ(testsupport::fnv1a(chol.factor_col_idx()), pin.col_idx)
          << "tau=" << pin.tau << " threads=" << threads;
      EXPECT_EQ(testsupport::fnv1a(chol.factor_values()), pin.values)
          << "tau=" << pin.tau << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace ppdl::linalg
