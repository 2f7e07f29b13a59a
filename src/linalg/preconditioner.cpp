#include "linalg/preconditioner.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace ppdl::linalg {

namespace {

// Grain for element-wise vector loops (matches the CG vector kernels).
constexpr Index kVecGrain = 8192;

}  // namespace

void IdentityPreconditioner::apply(std::span<const Real> r,
                                   std::span<Real> out) const {
  PPDL_REQUIRE(r.size() == out.size(), "identity precond: size mismatch");
  std::copy(r.begin(), r.end(), out.begin());
}

JacobiPreconditioner::JacobiPreconditioner(const CsrMatrix& a) {
  PPDL_REQUIRE(a.rows() == a.cols(), "Jacobi needs a square matrix");
  inv_diag_ = a.diagonal();
  for (Real& d : inv_diag_) {
    if (d == 0.0) {
      throw PreconditionerError(
          "Jacobi preconditioner: zero diagonal entry (matrix has no "
          "invertible diagonal)");
    }
    d = 1.0 / d;
  }
}

void JacobiPreconditioner::apply(std::span<const Real> r,
                                 std::span<Real> out) const {
  PPDL_REQUIRE(r.size() == out.size() && r.size() == inv_diag_.size(),
               "Jacobi apply: size mismatch");
  parallel::for_range(static_cast<Index>(r.size()), kVecGrain,
                      [&](Index begin, Index end) {
                        for (Index i = begin; i < end; ++i) {
                          const auto iu = static_cast<std::size_t>(i);
                          out[iu] = r[iu] * inv_diag_[iu];
                        }
                      });
}

Ic0Preconditioner::Ic0Preconditioner(const CsrMatrix& a) {
  PPDL_REQUIRE(a.rows() == a.cols(), "IC0 needs a square matrix");
  n_ = a.rows();

  // Extract the lower triangle (including diagonal) of A into L's pattern.
  row_ptr_.assign(static_cast<std::size_t>(n_) + 1, 0);
  const auto a_rp = a.row_ptr();
  const auto a_ci = a.col_idx();
  const auto a_vl = a.values();
  for (Index r = 0; r < n_; ++r) {
    for (Index k = a_rp[static_cast<std::size_t>(r)];
         k < a_rp[static_cast<std::size_t>(r) + 1]; ++k) {
      if (a_ci[static_cast<std::size_t>(k)] <= r) {
        ++row_ptr_[static_cast<std::size_t>(r) + 1];
      }
    }
  }
  for (Index r = 0; r < n_; ++r) {
    row_ptr_[static_cast<std::size_t>(r) + 1] +=
        row_ptr_[static_cast<std::size_t>(r)];
  }
  col_idx_.resize(static_cast<std::size_t>(row_ptr_.back()));
  values_.resize(static_cast<std::size_t>(row_ptr_.back()));
  {
    std::vector<Index> cursor(row_ptr_.begin(), row_ptr_.end() - 1);
    for (Index r = 0; r < n_; ++r) {
      for (Index k = a_rp[static_cast<std::size_t>(r)];
           k < a_rp[static_cast<std::size_t>(r) + 1]; ++k) {
        const Index c = a_ci[static_cast<std::size_t>(k)];
        if (c <= r) {
          const auto pos =
              static_cast<std::size_t>(cursor[static_cast<std::size_t>(r)]++);
          col_idx_[pos] = c;
          values_[pos] = a_vl[static_cast<std::size_t>(k)];
        }
      }
    }
  }
  // CSR rows are already sorted by column, so the diagonal is last in a row.

  // Every row must carry its diagonal — a structurally missing one (empty
  // row, or a zero diagonal dropped from the pattern) has no pivot to shift
  // and previously indexed out of bounds in the shift loop below.
  for (Index r = 0; r < n_; ++r) {
    const Index beg = row_ptr_[static_cast<std::size_t>(r)];
    const Index end = row_ptr_[static_cast<std::size_t>(r) + 1];
    if (beg == end || col_idx_[static_cast<std::size_t>(end - 1)] != r) {
      throw PreconditionerError(
          "IC0 factorization: row " + std::to_string(r) +
          " has no diagonal entry (matrix is structurally singular)");
    }
  }

  // IC(0): for each row i, update against all previous rows present in the
  // pattern, then take the square root of the diagonal. Diagonal shift on
  // breakdown.
  Real shift = 0.0;
  constexpr int kMaxAttempts = 6;
  std::vector<Real> original(values_);
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    bool ok = true;
    values_ = original;
    if (shift > 0.0) {
      for (Index r = 0; r < n_ && ok; ++r) {
        const auto diag_pos = static_cast<std::size_t>(
            row_ptr_[static_cast<std::size_t>(r) + 1] - 1);
        values_[diag_pos] += shift * std::abs(values_[diag_pos]);
      }
    }
    for (Index i = 0; i < n_ && ok; ++i) {
      const Index ibeg = row_ptr_[static_cast<std::size_t>(i)];
      const Index iend = row_ptr_[static_cast<std::size_t>(i) + 1];
      for (Index ki = ibeg; ki < iend; ++ki) {
        const Index j = col_idx_[static_cast<std::size_t>(ki)];
        Real sum = values_[static_cast<std::size_t>(ki)];
        // sum -= Σ_k<j L(i,k) L(j,k): merge-walk rows i and j.
        Index pi = ibeg;
        Index pj = row_ptr_[static_cast<std::size_t>(j)];
        const Index pj_end = row_ptr_[static_cast<std::size_t>(j) + 1];
        while (pi < ki && pj < pj_end) {
          const Index ci = col_idx_[static_cast<std::size_t>(pi)];
          const Index cj = col_idx_[static_cast<std::size_t>(pj)];
          if (cj >= j) {
            break;
          }
          if (ci == cj) {
            sum -= values_[static_cast<std::size_t>(pi)] *
                   values_[static_cast<std::size_t>(pj)];
            ++pi;
            ++pj;
          } else if (ci < cj) {
            ++pi;
          } else {
            ++pj;
          }
        }
        if (j == i) {
          if (sum <= 0.0) {
            ok = false;
            break;
          }
          values_[static_cast<std::size_t>(ki)] = std::sqrt(sum);
        } else {
          const auto j_diag = static_cast<std::size_t>(
              row_ptr_[static_cast<std::size_t>(j) + 1] - 1);
          values_[static_cast<std::size_t>(ki)] = sum / values_[j_diag];
        }
      }
    }
    if (ok) {
      return;
    }
    shift = (shift == 0.0) ? 1e-3 : shift * 10.0;
  }
  throw PreconditionerError(
      "IC0 factorization failed even with diagonal shifting");
}

void Ic0Preconditioner::apply(std::span<const Real> r,
                              std::span<Real> out) const {
  PPDL_REQUIRE(static_cast<Index>(r.size()) == n_ &&
                   static_cast<Index>(out.size()) == n_,
               "IC0 apply: size mismatch");
  // Forward solve L y = r.
  for (Index i = 0; i < n_; ++i) {
    Real acc = r[static_cast<std::size_t>(i)];
    const Index beg = row_ptr_[static_cast<std::size_t>(i)];
    const Index end = row_ptr_[static_cast<std::size_t>(i) + 1];
    for (Index k = beg; k < end - 1; ++k) {
      acc -=
          values_[static_cast<std::size_t>(k)] *
          out[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])];
    }
    out[static_cast<std::size_t>(i)] =
        acc / values_[static_cast<std::size_t>(end - 1)];
  }
  // Backward solve Lᵀ z = y (in place on out, scatter form).
  for (Index i = n_ - 1; i >= 0; --i) {
    const Index beg = row_ptr_[static_cast<std::size_t>(i)];
    const Index end = row_ptr_[static_cast<std::size_t>(i) + 1];
    const Real zi = out[static_cast<std::size_t>(i)] /
                    values_[static_cast<std::size_t>(end - 1)];
    out[static_cast<std::size_t>(i)] = zi;
    for (Index k = beg; k < end - 1; ++k) {
      out[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])] -=
          values_[static_cast<std::size_t>(k)] * zi;
    }
  }
}

const char* to_string(PreconditionerKind kind) {
  switch (kind) {
    case PreconditionerKind::kNone:
      return "none";
    case PreconditionerKind::kJacobi:
      return "jacobi";
    case PreconditionerKind::kIc0:
      return "ic0";
  }
  PPDL_ENSURE(false, "unknown preconditioner kind");
}

std::unique_ptr<Preconditioner> make_preconditioner(PreconditionerKind kind,
                                                    const CsrMatrix& a) {
  switch (kind) {
    case PreconditionerKind::kNone:
      return std::make_unique<IdentityPreconditioner>();
    case PreconditionerKind::kJacobi:
      return std::make_unique<JacobiPreconditioner>(a);
    case PreconditionerKind::kIc0:
      return std::make_unique<Ic0Preconditioner>(a);
  }
  PPDL_ENSURE(false, "unknown preconditioner kind");
}

PreconditionerKind parse_preconditioner(const std::string& name) {
  if (name == "none") {
    return PreconditionerKind::kNone;
  }
  if (name == "jacobi") {
    return PreconditionerKind::kJacobi;
  }
  if (name == "ic0") {
    return PreconditionerKind::kIc0;
  }
  PPDL_REQUIRE(false, "unknown preconditioner name: " + name);
  return PreconditionerKind::kNone;  // unreachable
}

}  // namespace ppdl::linalg
