#include "linalg/csr.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace ppdl::linalg {

namespace {

/// Stable sort of one row's (column, value) entries by column. Grid rows
/// hold a handful of entries, where an in-place insertion sort beats
/// std::stable_sort (which allocates a buffer on every call); long rows
/// take the buffered sort.
void sort_row_stable(Index* cols, Real* vals, std::size_t len) {
  constexpr std::size_t kInsertionMax = 32;
  if (len <= kInsertionMax) {
    for (std::size_t i = 1; i < len; ++i) {
      const Index c = cols[i];
      const Real v = vals[i];
      std::size_t j = i;
      for (; j > 0 && cols[j - 1] > c; --j) {
        cols[j] = cols[j - 1];
        vals[j] = vals[j - 1];
      }
      cols[j] = c;
      vals[j] = v;
    }
    return;
  }
  std::vector<std::pair<Index, Real>> buf(len);
  for (std::size_t k = 0; k < len; ++k) {
    buf[k] = {cols[k], vals[k]};
  }
  std::stable_sort(buf.begin(), buf.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  for (std::size_t k = 0; k < len; ++k) {
    cols[k] = buf[k].first;
    vals[k] = buf[k].second;
  }
}

}  // namespace

CsrMatrix CsrMatrix::from_coo(const CooMatrix& coo) {
  CsrMatrix m;
  m.rows_ = coo.rows();
  m.cols_ = coo.cols();

  const auto n_rows = static_cast<std::size_t>(m.rows_);
  std::vector<Index> counts(n_rows + 1, 0);
  for (const Triplet& t : coo.entries()) {
    ++counts[static_cast<std::size_t>(t.row) + 1];
  }
  for (std::size_t r = 0; r < n_rows; ++r) {
    counts[r + 1] += counts[r];
  }

  // Scatter triplets into row buckets.
  std::vector<Index> col_raw(coo.entries().size());
  std::vector<Real> val_raw(coo.entries().size());
  std::vector<Index> cursor(counts.begin(), counts.end() - 1);
  for (const Triplet& t : coo.entries()) {
    const auto pos =
        static_cast<std::size_t>(cursor[static_cast<std::size_t>(t.row)]++);
    col_raw[pos] = t.col;
    val_raw[pos] = t.value;
  }

  // Sort each row bucket by column in place and fold duplicates, writing
  // the compacted rows over the buckets (the write cursor never passes the
  // read cursor). The sort is stable, so duplicate (row, col) entries are
  // summed by a left fold in insertion order. Callers that re-sum a slot
  // incrementally (IncrementalIrSolver) replay the same insertion-ordered
  // fold and land on the bit-identical value.
  m.row_ptr_.assign(n_rows + 1, 0);
  std::size_t out = 0;
  for (std::size_t r = 0; r < n_rows; ++r) {
    const auto begin = static_cast<std::size_t>(counts[r]);
    const auto end = static_cast<std::size_t>(counts[r + 1]);
    sort_row_stable(col_raw.data() + begin, val_raw.data() + begin,
                    end - begin);
    const std::size_t row_start = out;
    for (std::size_t k = begin; k < end; ++k) {
      if (out > row_start && col_raw[out - 1] == col_raw[k]) {
        val_raw[out - 1] += val_raw[k];
      } else {
        col_raw[out] = col_raw[k];
        val_raw[out] = val_raw[k];
        ++out;
      }
    }
    m.row_ptr_[r + 1] = static_cast<Index>(out);
  }
  col_raw.resize(out);
  val_raw.resize(out);
  m.col_idx_ = std::move(col_raw);
  m.values_ = std::move(val_raw);
  return m;
}

void CsrMatrix::multiply(std::span<const Real> x, std::span<Real> y) const {
  PPDL_REQUIRE(static_cast<Index>(x.size()) == cols_, "SpMV: x size mismatch");
  PPDL_REQUIRE(static_cast<Index>(y.size()) == rows_, "SpMV: y size mismatch");
  // Row-parallel: each output entry is one row's serial accumulation, so
  // the result is bit-identical at any thread count.
  constexpr Index kRowGrain = 512;
  parallel::for_range(rows_, kRowGrain, [&](Index row_begin, Index row_end) {
    for (Index r = row_begin; r < row_end; ++r) {
      Real acc = 0.0;
      const Index begin = row_ptr_[static_cast<std::size_t>(r)];
      const Index end = row_ptr_[static_cast<std::size_t>(r) + 1];
      for (Index k = begin; k < end; ++k) {
        const auto ku = static_cast<std::size_t>(k);
        acc += values_[ku] * x[static_cast<std::size_t>(col_idx_[ku])];
      }
      y[static_cast<std::size_t>(r)] = acc;
    }
  });
}

std::vector<Real> CsrMatrix::multiply(std::span<const Real> x) const {
  std::vector<Real> y(static_cast<std::size_t>(rows_));
  multiply(x, y);
  return y;
}

std::vector<Real> CsrMatrix::diagonal() const {
  std::vector<Real> d(static_cast<std::size_t>(std::min(rows_, cols_)), 0.0);
  for (Index r = 0; r < static_cast<Index>(d.size()); ++r) {
    d[static_cast<std::size_t>(r)] = at(r, r);
  }
  return d;
}

Real CsrMatrix::at(Index row, Index col) const {
  PPDL_REQUIRE(row >= 0 && row < rows_, "CSR at: row out of range");
  PPDL_REQUIRE(col >= 0 && col < cols_, "CSR at: col out of range");
  const auto begin = col_idx_.begin() + row_ptr_[static_cast<std::size_t>(row)];
  const auto end =
      col_idx_.begin() + row_ptr_[static_cast<std::size_t>(row) + 1];
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) {
    return 0.0;
  }
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

Index CsrMatrix::value_slot(Index row, Index col) const {
  PPDL_REQUIRE(row >= 0 && row < rows_, "CSR value_slot: row out of range");
  PPDL_REQUIRE(col >= 0 && col < cols_, "CSR value_slot: col out of range");
  const auto begin = col_idx_.begin() + row_ptr_[static_cast<std::size_t>(row)];
  const auto end =
      col_idx_.begin() + row_ptr_[static_cast<std::size_t>(row) + 1];
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) {
    return -1;
  }
  return static_cast<Index>(it - col_idx_.begin());
}

bool CsrMatrix::is_symmetric(Real tol) const {
  if (rows_ != cols_) {
    return false;
  }
  for (Index r = 0; r < rows_; ++r) {
    const Index begin = row_ptr_[static_cast<std::size_t>(r)];
    const Index end = row_ptr_[static_cast<std::size_t>(r) + 1];
    for (Index k = begin; k < end; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      const Index c = col_idx_[ku];
      if (std::abs(values_[ku] - at(c, r)) > tol) {
        return false;
      }
    }
  }
  return true;
}

CsrMatrix CsrMatrix::transposed() const {
  CooMatrix coo(cols_, rows_);
  coo.reserve(nnz());
  for (Index r = 0; r < rows_; ++r) {
    const Index begin = row_ptr_[static_cast<std::size_t>(r)];
    const Index end = row_ptr_[static_cast<std::size_t>(r) + 1];
    for (Index k = begin; k < end; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      coo.add(col_idx_[ku], r, values_[ku]);
    }
  }
  return from_coo(coo);
}

CsrMatrix CsrMatrix::permuted_symmetric(std::span<const Index> perm) const {
  PPDL_REQUIRE(rows_ == cols_, "symmetric permutation needs a square matrix");
  PPDL_REQUIRE(static_cast<Index>(perm.size()) == rows_,
               "permutation size mismatch");
  // Old row r becomes new row perm[r] with every column relabelled; a
  // bijective perm maps distinct columns to distinct columns, so each new
  // row only needs its (short) column sort — nothing to fold.
  const auto n = static_cast<std::size_t>(rows_);
  std::vector<Index> old_of_new(n, -1);
  for (std::size_t r = 0; r < n; ++r) {
    const Index p = perm[r];
    PPDL_REQUIRE(p >= 0 && p < rows_ &&
                     old_of_new[static_cast<std::size_t>(p)] < 0,
                 "symmetric permutation must be a bijection");
    old_of_new[static_cast<std::size_t>(p)] = static_cast<Index>(r);
  }
  CsrMatrix m;
  m.rows_ = rows_;
  m.cols_ = cols_;
  m.row_ptr_.assign(n + 1, 0);
  m.col_idx_.resize(col_idx_.size());
  m.values_.resize(values_.size());
  for (std::size_t p = 0; p < n; ++p) {
    const auto r = static_cast<std::size_t>(old_of_new[p]);
    const Index begin = row_ptr_[r];
    const Index len = row_ptr_[r + 1] - begin;
    const Index out = m.row_ptr_[p];
    for (Index k = 0; k < len; ++k) {
      const auto src = static_cast<std::size_t>(begin + k);
      const auto dst = static_cast<std::size_t>(out + k);
      m.col_idx_[dst] = perm[static_cast<std::size_t>(col_idx_[src])];
      m.values_[dst] = values_[src];
    }
    sort_row_stable(m.col_idx_.data() + out, m.values_.data() + out,
                    static_cast<std::size_t>(len));
    m.row_ptr_[p + 1] = out + len;
  }
  return m;
}

CsrMatrix CsrMatrix::with_shifted_diagonal(Real shift) const {
  PPDL_REQUIRE(rows_ == cols_, "diagonal shift needs a square matrix");
  CooMatrix coo(rows_, cols_);
  coo.reserve(nnz() + rows_);
  for (Index r = 0; r < rows_; ++r) {
    const Index begin = row_ptr_[static_cast<std::size_t>(r)];
    const Index end = row_ptr_[static_cast<std::size_t>(r) + 1];
    for (Index k = begin; k < end; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      coo.add(r, col_idx_[ku], values_[ku]);
    }
    coo.add(r, r, shift);
  }
  return from_coo(coo);
}

}  // namespace ppdl::linalg
