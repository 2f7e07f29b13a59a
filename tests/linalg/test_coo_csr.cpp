#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "linalg/coo.hpp"
#include "linalg/csr.hpp"

namespace ppdl::linalg {
namespace {

TEST(Coo, TracksEntriesAndDimensions) {
  CooMatrix coo(3, 4);
  coo.add(0, 0, 1.0);
  coo.add(2, 3, -2.0);
  EXPECT_EQ(coo.rows(), 3);
  EXPECT_EQ(coo.cols(), 4);
  EXPECT_EQ(coo.nnz(), 2);
}

TEST(Coo, OutOfRangeThrows) {
  CooMatrix coo(2, 2);
  EXPECT_THROW(coo.add(2, 0, 1.0), ppdl::ContractViolation);
  EXPECT_THROW(coo.add(0, -1, 1.0), ppdl::ContractViolation);
}

TEST(Coo, SymmetricPairAddsBoth) {
  CooMatrix coo(3, 3);
  coo.add_symmetric_pair(0, 2, 5.0);
  EXPECT_EQ(coo.nnz(), 2);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.at(2, 0), 5.0);
}

TEST(Csr, FromCooMergesDuplicates) {
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(0, 0, 2.5);
  coo.add(1, 0, -1.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(m.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
}

TEST(Csr, RowsSortedByColumn) {
  CooMatrix coo(1, 5);
  coo.add(0, 4, 4.0);
  coo.add(0, 1, 1.0);
  coo.add(0, 3, 3.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const auto cols = m.col_idx();
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_TRUE(cols[0] < cols[1] && cols[1] < cols[2]);
}

TEST(Csr, MultiplyMatchesManual) {
  // [1 2; 3 4] * [5; 6] = [17; 39]
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(0, 1, 2.0);
  coo.add(1, 0, 3.0);
  coo.add(1, 1, 4.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const std::vector<Real> x{5.0, 6.0};
  const std::vector<Real> y = m.multiply(x);
  EXPECT_DOUBLE_EQ(y[0], 17.0);
  EXPECT_DOUBLE_EQ(y[1], 39.0);
}

TEST(Csr, MultiplyRectangular) {
  CooMatrix coo(2, 3);
  coo.add(0, 2, 1.0);
  coo.add(1, 0, 2.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const std::vector<Real> x{1.0, 10.0, 100.0};
  const std::vector<Real> y = m.multiply(x);
  EXPECT_DOUBLE_EQ(y[0], 100.0);
  EXPECT_DOUBLE_EQ(y[1], 2.0);
}

TEST(Csr, MultiplySizeMismatchThrows) {
  CooMatrix coo(2, 3);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const std::vector<Real> bad(2);
  std::vector<Real> y(2);
  EXPECT_THROW(m.multiply(bad, y), ppdl::ContractViolation);
}

TEST(Csr, DiagonalExtraction) {
  CooMatrix coo(3, 3);
  coo.add(0, 0, 2.0);
  coo.add(1, 2, 9.0);
  coo.add(2, 2, 4.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const std::vector<Real> d = m.diagonal();
  ASSERT_EQ(d.size(), 3u);
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], 0.0);
  EXPECT_DOUBLE_EQ(d[2], 4.0);
}

TEST(Csr, SymmetryDetection) {
  CooMatrix sym(2, 2);
  sym.add_symmetric_pair(0, 1, 3.0);
  sym.add(0, 0, 1.0);
  EXPECT_TRUE(CsrMatrix::from_coo(sym).is_symmetric());

  CooMatrix asym(2, 2);
  asym.add(0, 1, 3.0);
  EXPECT_FALSE(CsrMatrix::from_coo(asym).is_symmetric());
}

TEST(Csr, TransposeRoundTrip) {
  CooMatrix coo(2, 3);
  coo.add(0, 1, 5.0);
  coo.add(1, 2, -2.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const CsrMatrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_DOUBLE_EQ(t.at(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(t.at(2, 1), -2.0);
  const CsrMatrix tt = t.transposed();
  EXPECT_DOUBLE_EQ(tt.at(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(tt.at(1, 2), -2.0);
}

TEST(Csr, SymmetricPermutationPreservesValues) {
  // 3-node chain matrix, permute reversal.
  CooMatrix coo(3, 3);
  coo.add(0, 0, 2.0);
  coo.add(1, 1, 3.0);
  coo.add(2, 2, 4.0);
  coo.add_symmetric_pair(0, 1, -1.0);
  coo.add_symmetric_pair(1, 2, -1.5);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const std::vector<Index> perm{2, 1, 0};
  const CsrMatrix p = m.permuted_symmetric(perm);
  EXPECT_DOUBLE_EQ(p.at(2, 2), 2.0);
  EXPECT_DOUBLE_EQ(p.at(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(p.at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(p.at(2, 1), -1.0);
  EXPECT_DOUBLE_EQ(p.at(0, 1), -1.5);
  EXPECT_TRUE(p.is_symmetric());
}

// Duplicate (row, col) entries are summed left to right in insertion order
// (the incremental solver's slot replay depends on it), for short rows and
// for rows long enough to take the buffered sort.
TEST(Csr, FromCooFoldsDuplicatesInInsertionOrder) {
  for (const Index fill : {Index{0}, Index{40}}) {
    CooMatrix coo(1, 64);
    for (Index c = 0; c < fill; ++c) {
      coo.add(0, 63 - c, static_cast<Real>(c));
    }
    // (1e16 + 1) - 1e16 == 0 in double; any other order gives 1 or 2.
    coo.add(0, 5, 1e16);
    coo.add(0, 7, 1.0);
    coo.add(0, 5, 1.0);
    coo.add(0, 5, -1e16);
    const CsrMatrix m = CsrMatrix::from_coo(coo);
    EXPECT_EQ(m.at(0, 5), 0.0) << "fill=" << fill;
    EXPECT_EQ(m.at(0, 7), 1.0) << "fill=" << fill;
    EXPECT_EQ(m.nnz(), fill + 2) << "fill=" << fill;
    const auto cols = m.col_idx();
    EXPECT_TRUE(std::is_sorted(cols.begin(), cols.end())) << "fill=" << fill;
  }
}

TEST(Csr, SymmetricPermutationMatchesCooRoundTrip) {
  const Index n = 50;
  Rng rng(17);
  CooMatrix coo(n, n);
  for (Index i = 0; i < n; ++i) {
    coo.add(i, i, 4.0 + rng.uniform());
    for (Index k = 0; k < 3; ++k) {
      const Index j = rng.uniform_int(0, n - 1);
      if (j != i) {
        coo.add_symmetric_pair(i, j, -rng.uniform());
      }
    }
  }
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  std::vector<Index> perm(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    perm[static_cast<std::size_t>(i)] = i;
  }
  rng.shuffle(perm);
  CooMatrix relabelled(n, n);
  for (Index r = 0; r < n; ++r) {
    for (Index k = m.row_ptr()[static_cast<std::size_t>(r)];
         k < m.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      relabelled.add(perm[static_cast<std::size_t>(r)],
                     perm[static_cast<std::size_t>(
                         m.col_idx()[static_cast<std::size_t>(k)])],
                     m.values()[static_cast<std::size_t>(k)]);
    }
  }
  const CsrMatrix want = CsrMatrix::from_coo(relabelled);
  const CsrMatrix got = m.permuted_symmetric(perm);
  EXPECT_TRUE(std::equal(got.row_ptr().begin(), got.row_ptr().end(),
                         want.row_ptr().begin(), want.row_ptr().end()));
  EXPECT_TRUE(std::equal(got.col_idx().begin(), got.col_idx().end(),
                         want.col_idx().begin(), want.col_idx().end()));
  EXPECT_TRUE(std::equal(got.values().begin(), got.values().end(),
                         want.values().begin(), want.values().end()));

  std::vector<Index> repeated = perm;
  repeated[1] = repeated[0];
  EXPECT_THROW(m.permuted_symmetric(repeated), ppdl::ContractViolation);
  std::vector<Index> out_of_range = perm;
  out_of_range[2] = n;
  EXPECT_THROW(m.permuted_symmetric(out_of_range), ppdl::ContractViolation);
}

TEST(Csr, EmptyMatrixBehaves) {
  CooMatrix coo(3, 3);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  EXPECT_EQ(m.nnz(), 0);
  const std::vector<Real> x{1.0, 2.0, 3.0};
  const std::vector<Real> y = m.multiply(x);
  for (const Real v : y) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

}  // namespace
}  // namespace ppdl::linalg
