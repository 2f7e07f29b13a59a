#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "linalg/ordering.hpp"
#include "support/checksum.hpp"
#include "support/fixtures.hpp"

namespace ppdl::linalg {
namespace {

/// Path graph matrix with a deliberately scrambled node order.
CsrMatrix scrambled_path(Index n, const std::vector<Index>& label) {
  CooMatrix coo(n, n);
  for (Index i = 0; i < n; ++i) {
    coo.add(label[static_cast<std::size_t>(i)],
            label[static_cast<std::size_t>(i)], 2.0);
    if (i + 1 < n) {
      coo.add_symmetric_pair(label[static_cast<std::size_t>(i)],
                             label[static_cast<std::size_t>(i + 1)], -1.0);
    }
  }
  return CsrMatrix::from_coo(coo);
}

TEST(Rcm, PermutationIsBijective) {
  const std::vector<Index> label{3, 0, 4, 1, 5, 2};
  const CsrMatrix a = scrambled_path(6, label);
  const std::vector<Index> perm = rcm_ordering(a);
  std::vector<Index> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (Index i = 0; i < 6; ++i) {
    EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
  }
}

TEST(Rcm, ReducesBandwidthOfScrambledPath) {
  // Scramble a 40-node path so the natural order has large bandwidth.
  const Index n = 40;
  std::vector<Index> label(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    // Interleave front/back: 0, 39, 1, 38, ...
    label[static_cast<std::size_t>(i)] =
        (i % 2 == 0) ? i / 2 : n - 1 - i / 2;
  }
  const CsrMatrix a = scrambled_path(n, label);
  const Index bw_before = bandwidth(a);
  const std::vector<Index> perm = rcm_ordering(a);
  const CsrMatrix b = a.permuted_symmetric(perm);
  const Index bw_after = bandwidth(b);
  EXPECT_LT(bw_after, bw_before);
  EXPECT_LE(bw_after, 2);  // a path graph can reach bandwidth 1
}

TEST(Rcm, HandlesDisconnectedComponents) {
  CooMatrix coo(5, 5);
  // Component {0,1}, component {2,3,4}.
  coo.add(0, 0, 2.0);
  coo.add(1, 1, 2.0);
  coo.add_symmetric_pair(0, 1, -1.0);
  coo.add(2, 2, 2.0);
  coo.add(3, 3, 2.0);
  coo.add(4, 4, 2.0);
  coo.add_symmetric_pair(2, 3, -1.0);
  coo.add_symmetric_pair(3, 4, -1.0);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  const std::vector<Index> perm = rcm_ordering(a);
  std::vector<Index> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (Index i = 0; i < 5; ++i) {
    EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
  }
}

TEST(Rcm, SingleNodeGraph) {
  CooMatrix coo(1, 1);
  coo.add(0, 0, 1.0);
  const std::vector<Index> perm = rcm_ordering(CsrMatrix::from_coo(coo));
  ASSERT_EQ(perm.size(), 1u);
  EXPECT_EQ(perm[0], 0);
}

TEST(Ordering, InvertPermutationRoundTrip) {
  const std::vector<Index> perm{2, 0, 3, 1};
  const std::vector<Index> inv = invert_permutation(perm);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(inv[static_cast<std::size_t>(perm[i])], static_cast<Index>(i));
  }
}

TEST(Ordering, InvalidPermutationThrows) {
  const std::vector<Index> bad{0, 5};
  EXPECT_THROW(invert_permutation(bad), ppdl::ContractViolation);
}

TEST(Ordering, ApplyPermutationMovesValues) {
  const std::vector<Index> perm{1, 2, 0};
  const std::vector<Real> v{10.0, 20.0, 30.0};
  const std::vector<Real> out = apply_permutation(perm, v);
  EXPECT_DOUBLE_EQ(out[1], 10.0);
  EXPECT_DOUBLE_EQ(out[2], 20.0);
  EXPECT_DOUBLE_EQ(out[0], 30.0);
}

TEST(Ordering, BandwidthOfDiagonalIsZero) {
  CooMatrix coo(3, 3);
  for (Index i = 0; i < 3; ++i) {
    coo.add(i, i, 1.0);
  }
  EXPECT_EQ(bandwidth(CsrMatrix::from_coo(coo)), 0);
}


// --- nested dissection -----------------------------------------------------

using testsupport::replica_mna_matrix;

/// A 24×24 mesh, a 90-node path, a triangle and 7 isolated nodes, with
/// node labels shuffled so every piece is scattered over the index range.
CsrMatrix disconnected_graph() {
  const Index mesh = 24;
  const Index path = 90;
  const Index n = mesh * mesh + path + 3 + 7;
  std::vector<Index> label(static_cast<std::size_t>(n));
  for (Index v = 0; v < n; ++v) {
    label[static_cast<std::size_t>(v)] = v;
  }
  Rng rng(99);
  rng.shuffle(label);
  const auto at = [&](Index v) { return label[static_cast<std::size_t>(v)]; };
  CooMatrix coo(n, n);
  for (Index v = 0; v < n; ++v) {
    coo.add(at(v), at(v), 4.0);
  }
  for (Index i = 0; i < mesh; ++i) {
    for (Index j = 0; j < mesh; ++j) {
      const Index v = i * mesh + j;
      if (j + 1 < mesh) {
        coo.add_symmetric_pair(at(v), at(v + 1), -1.0);
      }
      if (i + 1 < mesh) {
        coo.add_symmetric_pair(at(v), at(v + mesh), -1.0);
      }
    }
  }
  const Index p0 = mesh * mesh;
  for (Index k = 0; k + 1 < path; ++k) {
    coo.add_symmetric_pair(at(p0 + k), at(p0 + k + 1), -1.0);
  }
  const Index t0 = p0 + path;
  coo.add_symmetric_pair(at(t0), at(t0 + 1), -1.0);
  coo.add_symmetric_pair(at(t0 + 1), at(t0 + 2), -1.0);
  coo.add_symmetric_pair(at(t0 + 2), at(t0), -1.0);
  return CsrMatrix::from_coo(coo);
}

void expect_bijection(const std::vector<Index>& perm, const char* what) {
  std::vector<Index> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    ASSERT_EQ(sorted[i], static_cast<Index>(i)) << what;
  }
}

TEST(NestedDissection, ReturnsBijection) {
  for (const auto& [name, scale, seed] :
       {std::tuple<const char*, Real, U64>{"ibmpg1", 0.05, 3},
        std::tuple<const char*, Real, U64>{"ibmpg2", 0.05, 7},
        std::tuple<const char*, Real, U64>{"ibmpg6", 0.005, 11}}) {
    const CsrMatrix a = replica_mna_matrix(name, scale, seed);
    expect_bijection(nd_ordering(a), name);
  }
  expect_bijection(nd_ordering(disconnected_graph()), "disconnected");
  CooMatrix isolated(5, 5);
  for (Index v = 0; v < 5; ++v) {
    isolated.add(v, v, 1.0);
  }
  expect_bijection(nd_ordering(CsrMatrix::from_coo(isolated)), "isolated");
  EXPECT_TRUE(nd_ordering(CsrMatrix::from_coo(CooMatrix(0, 0))).empty());
}

TEST(NestedDissection, SiblingRangesShareNoEdge) {
  for (const CsrMatrix& a :
       {replica_mna_matrix("ibmpg2", 0.05, 7), disconnected_graph()}) {
    std::vector<NdSplit> splits;
    const std::vector<Index> perm = nd_ordering(a, &splits);
    ASSERT_FALSE(splits.empty());
    const CsrMatrix b = a.permuted_symmetric(perm);
    const auto rp = b.row_ptr();
    const auto ci = b.col_idx();
    for (const NdSplit& s : splits) {
      ASSERT_LE(0, s.begin);
      ASSERT_LT(s.begin, s.b_begin);
      ASSERT_LT(s.b_begin, s.separator_begin);
      ASSERT_LT(s.separator_begin, s.end);
      ASSERT_LE(s.end, b.rows());
      for (Index r = s.begin; r < s.b_begin; ++r) {
        for (Index k = rp[static_cast<std::size_t>(r)];
             k < rp[static_cast<std::size_t>(r) + 1]; ++k) {
          const Index c = ci[static_cast<std::size_t>(k)];
          ASSERT_FALSE(c >= s.b_begin && c < s.separator_begin)
              << "edge " << r << "-" << c << " joins the halves of split ["
              << s.begin << ", " << s.end << ")";
        }
      }
    }
  }
}

// Pins the permutation itself: any change to the dissection (separator
// choice, numbering, the serial/pool split of the task tree) shows up
// here. The expected hashes were produced by commit 237d134 ("Run MLP
// training on allocation-free row-block kernels"), the serial
// implementation.
TEST(NestedDissection, PinnedChecksum) {
  struct ThreadGuard {
    ~ThreadGuard() { parallel::set_num_threads(0); }
  } guard;
  const CsrMatrix replica = replica_mna_matrix("ibmpg2", 0.05, 7);
  const CsrMatrix pieces = disconnected_graph();
  for (const Index threads : {Index{1}, Index{2}}) {
    parallel::set_num_threads(threads);
    EXPECT_EQ(testsupport::fnv1a<Index>(nd_ordering(replica)),
              0x0bb6e2b71c2544a0ULL)
        << "replica, threads=" << threads;
    EXPECT_EQ(testsupport::fnv1a<Index>(nd_ordering(pieces)),
              0xd5947f633eecfe89ULL)
        << "disconnected, threads=" << threads;
  }
}

}  // namespace
}  // namespace ppdl::linalg
