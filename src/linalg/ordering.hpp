// Reverse Cuthill–McKee ordering: bandwidth reduction for sparse SPD
// matrices. Improves IC(0) quality and cache behaviour of SpMV on mesh
// matrices; exposed as an ablation knob for the solver benchmarks.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "linalg/csr.hpp"

namespace ppdl::linalg {

/// Computes the RCM permutation of a symmetric-pattern matrix.
/// Returns `perm` where perm[old_index] = new_index. Disconnected
/// components are each ordered from a pseudo-peripheral start node.
std::vector<Index> rcm_ordering(const CsrMatrix& a);

/// Nested-dissection fill-reducing permutation (perm[old] = new) using
/// BFS level-set separators: each subgraph is split at the middle BFS
/// level, the separator is numbered last, and the halves recurse. On mesh
/// matrices (power grids) the Cholesky fill is O(n log n)-ish versus RCM's
/// O(n·bandwidth) — the difference between a frozen factorization whose
/// backsolve beats a CG solve and one that loses to it (see
/// analysis::IncrementalIrSolver). Falls back to BFS ordering on subgraphs
/// below the dissection cutoff.
///
/// Runs on the thread pool below its first few splits; the result is the
/// same for any thread count. `splits`, when given, receives every split
/// made (in a deterministic order).
struct NdSplit {
  // New-index ranges: part A is [begin, b_begin), part B is
  // [b_begin, separator_begin), the separator is [separator_begin, end).
  // No matrix entry joins part A and part B.
  Index begin = 0;
  Index b_begin = 0;
  Index separator_begin = 0;
  Index end = 0;
};
std::vector<Index> nd_ordering(const CsrMatrix& a,
                               std::vector<NdSplit>* splits = nullptr);

/// Half-bandwidth of the matrix: max |i - j| over stored entries.
Index bandwidth(const CsrMatrix& a);

/// Inverse of a permutation given as perm[old] = new.
std::vector<Index> invert_permutation(std::span<const Index> perm);

/// Apply perm[old] = new to a vector: out[perm[i]] = v[i].
std::vector<Real> apply_permutation(std::span<const Index> perm,
                                    std::span<const Real> v);

}  // namespace ppdl::linalg
