#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <utility>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace ppdl::linalg {

namespace {

/// Elimination tree: parent[j] = min{i > j : L(i,j) ≠ 0}, built with
/// path-compressing ancestor pointers (Liu's algorithm).
std::vector<Index> elimination_tree(const CsrMatrix& a) {
  const Index n = a.rows();
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  std::vector<Index> parent(static_cast<std::size_t>(n), -1);
  std::vector<Index> ancestor(static_cast<std::size_t>(n), -1);
  for (Index i = 0; i < n; ++i) {
    for (Index k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
      Index j = ci[static_cast<std::size_t>(k)];
      while (j != -1 && j < i) {
        const Index next = ancestor[static_cast<std::size_t>(j)];
        ancestor[static_cast<std::size_t>(j)] = i;
        if (next == -1) {
          parent[static_cast<std::size_t>(j)] = i;
        }
        j = next;
      }
    }
  }
  return parent;
}

/// Workspace for building rows whose patterns lie in the index window
/// [lo, lo + size): the dense row scatter `w` and the walk stamps, both
/// indexed by j − lo, plus the pattern buffers.
struct RowWorkspace {
  explicit RowWorkspace(Index window_lo, Index window_size)
      : lo(window_lo),
        mark(static_cast<std::size_t>(window_size), -1),
        w(static_cast<std::size_t>(window_size), 0.0) {}

  Index lo;
  std::vector<Index> mark;
  std::vector<Real> w;
  std::vector<Index> runs;     // ascending etree-walk runs, back to back
  std::vector<Index> run_end;  // end offset of each run in `runs`
  std::vector<Index> merged;
  std::vector<Index> merge_buf;

  Real& at(Index j) { return w[static_cast<std::size_t>(j - lo)]; }
  Index& mark_of(Index j) { return mark[static_cast<std::size_t>(j - lo)]; }
};

/// Stored entries of one finished row of L (diagonal last).
struct RowView {
  const Index* cols;
  const Real* vals;
  Index len;
};

/// Computes row i of L and appends it (sorted columns, diagonal last) to
/// (cols, vals); `row_of(j)` returns the stored row j < i. Row i solves
/// the sparse triangular system L(0:i-1,0:i-1) · L(i,0:i-1)ᵀ = A(i,0:i-1);
/// its nonzero pattern is the union of elimination-tree paths j ⇝ i over
/// the nonzeros A(i, j<i), so the factor stores genuine fill only — an
/// envelope scheme would pay for the whole profile, which is ruinous under
/// fill-reducing (non-banded) orderings like nested dissection.
///
/// The pattern is enumerated with a stamped etree walk (a walk stops at a
/// node already claimed by this row, so the enumeration totals
/// O(nnz(exact L))). Parents have larger indices than children, so every
/// walk is an ascending run, and the sorted pattern is a merge of the runs.
/// The sparse forward substitution then runs in ascending column order
/// against the stored rows; entries outside the pattern stay zero in the
/// scatter `w`, so the row-j dot products need no pattern intersection.
/// Finally the row is thresholded and appended.
template <typename RowOf>
void build_row(const CsrMatrix& a, std::span<const Index> parent,
               Real drop_tolerance, Index i, RowWorkspace& ws,
               const RowOf& row_of, std::vector<Index>& cols,
               std::vector<Real>& vals) {
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto vl = a.values();

  ws.runs.clear();
  ws.run_end.clear();
  Real aii = 0.0;
  for (Index k = rp[static_cast<std::size_t>(i)];
       k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
    const Index c = ci[static_cast<std::size_t>(k)];
    if (c == i) {
      aii = vl[static_cast<std::size_t>(k)];
      continue;
    }
    if (c > i) {
      continue;
    }
    ws.at(c) = vl[static_cast<std::size_t>(k)];
    const std::size_t run_start = ws.runs.size();
    for (Index j = c; j < i && ws.mark_of(j) != i;
         j = parent[static_cast<std::size_t>(j)]) {
      ws.mark_of(j) = i;
      ws.runs.push_back(j);
    }
    if (ws.runs.size() > run_start) {
      ws.run_end.push_back(static_cast<Index>(ws.runs.size()));
    }
  }

  // Merge the (disjoint, ascending) runs into the sorted pattern.
  std::span<const Index> pattern = ws.runs;
  if (ws.run_end.size() > 1) {
    const auto first_end = static_cast<std::size_t>(ws.run_end.front());
    ws.merged.assign(ws.runs.begin(),
                     ws.runs.begin() + static_cast<std::ptrdiff_t>(first_end));
    for (std::size_t r = 1; r < ws.run_end.size(); ++r) {
      const auto beg = ws.runs.begin() + ws.run_end[r - 1];
      const auto end = ws.runs.begin() + ws.run_end[r];
      ws.merge_buf.resize(ws.merged.size() +
                          static_cast<std::size_t>(end - beg));
      std::merge(ws.merged.begin(), ws.merged.end(), beg, end,
                 ws.merge_buf.begin());
      std::swap(ws.merged, ws.merge_buf);
    }
    pattern = ws.merged;
  }

  Real sumsq = 0.0;
  for (const Index j : pattern) {
    Real acc = ws.at(j);
    const RowView row = row_of(j);
    for (Index k = 0; k < row.len - 1; ++k) {
      acc -= row.vals[k] * ws.at(row.cols[k]);
    }
    const Real xj = acc / row.vals[row.len - 1];
    ws.at(j) = xj;
    sumsq += xj * xj;
  }

  const Real diag = aii - sumsq;
  PPDL_REQUIRE(diag > 0.0, "Cholesky pivot non-positive — matrix not SPD");
  const Real pivot = std::sqrt(diag);
  const Real threshold = drop_tolerance * pivot;
  for (const Index j : pattern) {
    Real& xj = ws.at(j);
    if (drop_tolerance == 0.0 || std::abs(xj) > threshold) {
      cols.push_back(j);
      vals.push_back(xj);
    }
    xj = 0.0;
  }
  cols.push_back(i);
  vals.push_back(pivot);
}

/// Elimination-tree subtrees factored concurrently. Row i reads only rows
/// of its etree descendants, so disjoint subtrees are independent; every
/// row still runs the serial kernel, which keeps the factor bit-identical
/// to the serial build whatever the partition.
struct SubtreePlan {
  std::vector<Index> owner;  ///< chunk of each row; -1 = top row (serial)
  std::vector<Index> lo;     ///< per chunk: smallest row it owns
  std::vector<Index> hi;     ///< per chunk: largest row it owns
  Index chunks() const { return static_cast<Index>(lo.size()); }
};

/// Splits the etree into subtrees of at most n / kTargetSubtrees rows by
/// repeatedly moving the root of the largest remaining subtree into the
/// serial top part, then packs the subtrees (in row order) into chunks of
/// at most that size. Depends only on the etree, never on the thread
/// count. Returns an empty plan (serial factorization) when that leaves
/// fewer than two chunks or needs too large a top part — chain-like
/// etrees, e.g. under RCM ordering.
SubtreePlan plan_subtrees(std::span<const Index> parent) {
  constexpr Index kTargetSubtrees = 8;
  constexpr Index kMaxTopShare = 8;  // top part ≤ n / kMaxTopShare rows
  const auto n = static_cast<Index>(parent.size());
  const Index cap = std::max<Index>(1, n / kTargetSubtrees);

  std::vector<Index> size(parent.size(), 1);
  std::vector<Index> first(parent.size());
  std::vector<Index> child_ptr(parent.size() + 1, 0);
  for (Index i = 0; i < n; ++i) {
    first[static_cast<std::size_t>(i)] = i;
  }
  for (Index i = 0; i < n; ++i) {
    const Index p = parent[static_cast<std::size_t>(i)];
    if (p >= 0) {
      size[static_cast<std::size_t>(p)] += size[static_cast<std::size_t>(i)];
      first[static_cast<std::size_t>(p)] =
          std::min(first[static_cast<std::size_t>(p)],
                   first[static_cast<std::size_t>(i)]);
      ++child_ptr[static_cast<std::size_t>(p) + 1];
    }
  }
  for (std::size_t v = 0; v < parent.size(); ++v) {
    child_ptr[v + 1] += child_ptr[v];
  }
  std::vector<Index> children(static_cast<std::size_t>(child_ptr.back()));
  {
    std::vector<Index> cursor(child_ptr.begin(), child_ptr.end() - 1);
    for (Index i = 0; i < n; ++i) {
      const Index p = parent[static_cast<std::size_t>(i)];
      if (p >= 0) {
        children[static_cast<std::size_t>(
            cursor[static_cast<std::size_t>(p)]++)] = i;
      }
    }
  }

  // Largest subtree first; ties broken by root index, so the split is a
  // pure function of the tree.
  std::priority_queue<std::pair<Index, Index>> largest;
  for (Index i = 0; i < n; ++i) {
    if (parent[static_cast<std::size_t>(i)] < 0) {
      largest.emplace(size[static_cast<std::size_t>(i)], i);
    }
  }
  Index top_rows = 0;
  while (!largest.empty() && largest.top().first > cap) {
    const Index r = largest.top().second;
    largest.pop();
    if (++top_rows > n / kMaxTopShare) {
      return {};
    }
    for (Index k = child_ptr[static_cast<std::size_t>(r)];
         k < child_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
      const Index c = children[static_cast<std::size_t>(k)];
      largest.emplace(size[static_cast<std::size_t>(c)], c);
    }
  }
  std::vector<Index> roots;
  roots.reserve(largest.size());
  for (; !largest.empty(); largest.pop()) {
    roots.push_back(largest.top().second);
  }
  std::sort(roots.begin(), roots.end(), [&](Index x, Index y) {
    return first[static_cast<std::size_t>(x)] <
           first[static_cast<std::size_t>(y)];
  });

  // Pack row-adjacent subtrees into chunks of at most `cap` rows.
  struct Chunk {
    Index rows = 0;
    Index lo = 0;
    Index hi = 0;
    std::vector<Index> roots;
  };
  std::vector<Chunk> packed;
  for (const Index r : roots) {
    const Index rows = size[static_cast<std::size_t>(r)];
    if (packed.empty() || packed.back().rows + rows > cap) {
      packed.push_back({0, first[static_cast<std::size_t>(r)], r, {}});
    }
    Chunk& chunk = packed.back();
    chunk.rows += rows;
    chunk.lo = std::min(chunk.lo, first[static_cast<std::size_t>(r)]);
    chunk.hi = std::max(chunk.hi, r);
    chunk.roots.push_back(r);
  }
  // Largest first, so the pool's in-order chunk claiming balances well.
  std::stable_sort(packed.begin(), packed.end(),
                   [](const Chunk& x, const Chunk& y) {
                     return x.rows > y.rows;
                   });

  SubtreePlan plan;
  plan.owner.assign(parent.size(), -1);
  for (const Chunk& chunk : packed) {
    for (const Index r : chunk.roots) {
      plan.owner[static_cast<std::size_t>(r)] = plan.chunks();
    }
    plan.lo.push_back(chunk.lo);
    plan.hi.push_back(chunk.hi);
  }
  if (plan.chunks() < 2) {
    return {};
  }
  // Every row below a chosen root belongs to that root's chunk (parents
  // have larger indices, so a descending sweep sees the parent first).
  for (Index i = n - 1; i >= 0; --i) {
    const Index p = parent[static_cast<std::size_t>(i)];
    if (plan.owner[static_cast<std::size_t>(i)] < 0 && p >= 0) {
      plan.owner[static_cast<std::size_t>(i)] =
          plan.owner[static_cast<std::size_t>(p)];
    }
  }
  return plan;
}

}  // namespace

SparseCholesky::SparseCholesky(const CsrMatrix& a,
                               std::optional<std::vector<Index>> perm,
                               Real drop_tolerance) {
  PPDL_REQUIRE(a.rows() == a.cols(), "Cholesky needs a square matrix");
  PPDL_REQUIRE(drop_tolerance >= 0.0 && drop_tolerance < 1.0,
               "Cholesky drop tolerance must be in [0, 1)");
  n_ = a.rows();
  if (perm.has_value()) {
    PPDL_REQUIRE(static_cast<Index>(perm->size()) == n_,
                 "permutation size mismatch");
    perm_ = std::move(*perm);
    factor(a.permuted_symmetric(perm_), drop_tolerance);
  } else {
    factor(a, drop_tolerance);
  }
}

void SparseCholesky::factor(const CsrMatrix& a, Real drop_tolerance) {
  // Up-looking sparse Cholesky, one build_row() per row. With
  // drop_tolerance > 0 the computed row is thresholded before it is stored
  // (incomplete factorization by value). Each row's substitution runs
  // against the rows already stored, so dropped entries also shrink all
  // downstream work — the pattern walk still enumerates the exact-fill
  // superset, but the flops track the kept entries.
  const std::vector<Index> parent = elimination_tree(a);
  row_ptr_.assign(static_cast<std::size_t>(n_) + 1, 0);
  col_idx_.clear();
  values_.clear();
  const auto stored_row = [&](Index j) {
    const Index beg = row_ptr_[static_cast<std::size_t>(j)];
    return RowView{col_idx_.data() + beg, values_.data() + beg,
                   row_ptr_[static_cast<std::size_t>(j) + 1] - beg};
  };

  // Below this size the dispatch and the copy cost more than the subtrees
  // save (measured at 2 threads: 5.3k rows slower, 12.8k rows faster).
  constexpr Index kParallelMinRows = 8192;
  const SubtreePlan plan = (n_ >= kParallelMinRows &&
                            parallel::default_num_threads() > 1)
                               ? plan_subtrees(parent)
                               : SubtreePlan{};
  const bool chunked = plan.chunks() > 0;

  // Subtree rows, one chunk each, into per-chunk buffers; local_begin[j]
  // and local_len[j] locate row j in its chunk's buffers (each chunk
  // writes only its own rows' entries). Nothing runs without a plan.
  struct ChunkRows {
    std::vector<Index> cols;
    std::vector<Real> vals;
  };
  std::vector<ChunkRows> chunk_rows(static_cast<std::size_t>(plan.chunks()));
  std::vector<Index> local_begin(chunked ? static_cast<std::size_t>(n_) : 0);
  std::vector<Index> local_len(local_begin.size());
  parallel::for_range(plan.chunks(), 1, [&](Index c_begin, Index c_end) {
    for (Index c = c_begin; c < c_end; ++c) {
      const auto cu = static_cast<std::size_t>(c);
      ChunkRows& out = chunk_rows[cu];
      RowWorkspace ws(plan.lo[cu], plan.hi[cu] - plan.lo[cu] + 1);
      const auto chunk_row = [&](Index j) {
        const Index beg = local_begin[static_cast<std::size_t>(j)];
        return RowView{out.cols.data() + beg, out.vals.data() + beg,
                       local_len[static_cast<std::size_t>(j)]};
      };
      for (Index i = plan.lo[cu]; i <= plan.hi[cu]; ++i) {
        if (plan.owner[static_cast<std::size_t>(i)] != c) {
          continue;
        }
        const auto before = static_cast<Index>(out.vals.size());
        build_row(a, parent, drop_tolerance, i, ws, chunk_row, out.cols,
                  out.vals);
        local_begin[static_cast<std::size_t>(i)] = before;
        local_len[static_cast<std::size_t>(i)] =
            static_cast<Index>(out.vals.size()) - before;
      }
    }
  });

  // Rows in ascending order: copy each run of consecutive rows of one
  // chunk into place (they are consecutive in its buffers too), freeing a
  // chunk's buffers after its last row so the factor is never held twice,
  // and compute each top row — every row, without a plan — against the
  // rows placed so far.
  RowWorkspace ws(0, n_);
  for (Index i = 0; i < n_;) {
    const Index c = chunked ? plan.owner[static_cast<std::size_t>(i)] : -1;
    if (c < 0) {
      build_row(a, parent, drop_tolerance, i, ws, stored_row, col_idx_,
                values_);
      row_ptr_[static_cast<std::size_t>(i) + 1] =
          static_cast<Index>(values_.size());
      ++i;
      continue;
    }
    ChunkRows& src = chunk_rows[static_cast<std::size_t>(c)];
    const Index src_begin = local_begin[static_cast<std::size_t>(i)];
    const Index shift = static_cast<Index>(values_.size()) - src_begin;
    Index src_end = src_begin;
    for (; i < n_ && plan.owner[static_cast<std::size_t>(i)] == c; ++i) {
      src_end = local_begin[static_cast<std::size_t>(i)] +
                local_len[static_cast<std::size_t>(i)];
      row_ptr_[static_cast<std::size_t>(i) + 1] = src_end + shift;
    }
    col_idx_.insert(col_idx_.end(), src.cols.begin() + src_begin,
                    src.cols.begin() + src_end);
    values_.insert(values_.end(), src.vals.begin() + src_begin,
                   src.vals.begin() + src_end);
    if (i > plan.hi[static_cast<std::size_t>(c)]) {
      src = ChunkRows{};
    }
  }
}

std::vector<Real> SparseCholesky::solve(std::span<const Real> b) const {
  PPDL_REQUIRE(static_cast<Index>(b.size()) == n_,
               "Cholesky solve: size mismatch");
  std::vector<Real> x(static_cast<std::size_t>(n_));
  if (perm_.empty()) {
    std::copy(b.begin(), b.end(), x.begin());
  } else {
    for (Index i = 0; i < n_; ++i) {
      x[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])] =
          b[static_cast<std::size_t>(i)];
    }
  }

  // Forward: L z = b.
  for (Index i = 0; i < n_; ++i) {
    const Index beg = row_ptr_[static_cast<std::size_t>(i)];
    const Index end = row_ptr_[static_cast<std::size_t>(i) + 1];
    Real acc = x[static_cast<std::size_t>(i)];
    for (Index k = beg; k < end - 1; ++k) {
      acc -= values_[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])];
    }
    x[static_cast<std::size_t>(i)] =
        acc / values_[static_cast<std::size_t>(end - 1)];
  }
  // Backward: Lᵀ y = z.
  for (Index i = n_ - 1; i >= 0; --i) {
    const Index beg = row_ptr_[static_cast<std::size_t>(i)];
    const Index end = row_ptr_[static_cast<std::size_t>(i) + 1];
    const Real yi =
        x[static_cast<std::size_t>(i)] / values_[static_cast<std::size_t>(end - 1)];
    x[static_cast<std::size_t>(i)] = yi;
    for (Index k = beg; k < end - 1; ++k) {
      x[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])] -=
          values_[static_cast<std::size_t>(k)] * yi;
    }
  }

  if (perm_.empty()) {
    return x;
  }
  std::vector<Real> out(static_cast<std::size_t>(n_));
  for (Index i = 0; i < n_; ++i) {
    out[static_cast<std::size_t>(i)] =
        x[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])];
  }
  return out;
}

CholeskyPreconditioner::CholeskyPreconditioner(
    const SparseCholesky& factorization, Real drop_tolerance)
    : factorization_(factorization) {
  PPDL_REQUIRE(drop_tolerance >= 0.0 && drop_tolerance < 1.0,
               "frozen-cholesky: drop tolerance must be in [0, 1)");
  const Index n = factorization.dimension();
  const auto rp = factorization.factor_row_ptr();
  const auto ci = factorization.factor_col_idx();
  const auto lv = factorization.factor_values();
  row_ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  col_idx_.reserve(lv.size());
  values_.reserve(lv.size());
  for (Index i = 0; i < n; ++i) {
    // Diagonal is last in each row and always kept (L̃ stays nonsingular,
    // so M = L̃L̃ᵀ stays SPD no matter how aggressively we drop).
    const Index last = rp[static_cast<std::size_t>(i) + 1] - 1;
    const Real threshold =
        drop_tolerance * std::abs(lv[static_cast<std::size_t>(last)]);
    for (Index k = rp[static_cast<std::size_t>(i)]; k < last; ++k) {
      if (std::abs(lv[static_cast<std::size_t>(k)]) > threshold) {
        col_idx_.push_back(
            static_cast<std::int32_t>(ci[static_cast<std::size_t>(k)]));
        values_.push_back(
            static_cast<float>(lv[static_cast<std::size_t>(k)]));
      }
    }
    col_idx_.push_back(static_cast<std::int32_t>(i));
    values_.push_back(static_cast<float>(lv[static_cast<std::size_t>(last)]));
    row_ptr_[static_cast<std::size_t>(i) + 1] =
        static_cast<std::int32_t>(values_.size());
  }
  work_.resize(static_cast<std::size_t>(n));
}

void CholeskyPreconditioner::apply(std::span<const Real> r,
                                   std::span<Real> out) const {
  const Index n = factorization_.dimension();
  PPDL_REQUIRE(static_cast<Index>(r.size()) == n,
               "frozen-cholesky apply: size mismatch");
  PPDL_REQUIRE(r.size() == out.size(),
               "frozen-cholesky apply: output size mismatch");

  const auto perm = factorization_.permutation();
  float* const x = work_.data();
  if (perm.empty()) {
    for (Index i = 0; i < n; ++i) {
      x[i] = static_cast<float>(r[static_cast<std::size_t>(i)]);
    }
  } else {
    for (Index i = 0; i < n; ++i) {
      x[perm[static_cast<std::size_t>(i)]] =
          static_cast<float>(r[static_cast<std::size_t>(i)]);
    }
  }

  const std::int32_t* const rp = row_ptr_.data();
  const std::int32_t* const ci = col_idx_.data();
  const float* const lv = values_.data();
  // Forward: L z = r.
  for (Index i = 0; i < n; ++i) {
    const std::int32_t beg = rp[i];
    const std::int32_t end = rp[i + 1];
    float acc = x[i];
    for (std::int32_t k = beg; k < end - 1; ++k) {
      acc -= lv[k] * x[ci[k]];
    }
    x[i] = acc / lv[end - 1];
  }
  // Backward: Lᵀ y = z.
  for (Index i = n - 1; i >= 0; --i) {
    const std::int32_t beg = rp[i];
    const std::int32_t end = rp[i + 1];
    const float yi = x[i] / lv[end - 1];
    x[i] = yi;
    for (std::int32_t k = beg; k < end - 1; ++k) {
      x[ci[k]] -= lv[k] * yi;
    }
  }

  if (perm.empty()) {
    for (Index i = 0; i < n; ++i) {
      out[static_cast<std::size_t>(i)] = static_cast<Real>(x[i]);
    }
  } else {
    for (Index i = 0; i < n; ++i) {
      out[static_cast<std::size_t>(i)] =
          static_cast<Real>(x[perm[static_cast<std::size_t>(i)]]);
    }
  }
}

}  // namespace ppdl::linalg
