// Sparse Cholesky factorization (up-looking, with symbolic analysis via the
// elimination tree) for SPD systems — the direct-solver alternative to CG.
//
// Intended for small/medium power grids and for repeated solves against one
// matrix (the factorization is reusable; each solve is two triangular
// sweeps). Combine with rcm_ordering() to keep fill-in acceptable on mesh
// matrices; factor() accepts an optional symmetric permutation.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "linalg/csr.hpp"
#include "linalg/preconditioner.hpp"

namespace ppdl::linalg {

/// Factorization A = L Lᵀ of a sparse SPD matrix (optionally permuted).
class SparseCholesky {
 public:
  /// Factors `a`. When `perm` is given (perm[old] = new), the matrix is
  /// symmetrically permuted first and solves transparently un-permute.
  /// Throws ContractViolation if a pivot is non-positive (not SPD).
  ///
  /// `drop_tolerance` > 0 computes an incomplete factor instead: row
  /// entries with |L(i,j)| ≤ τ·|L(i,i)| are discarded as the factorization
  /// proceeds, so later rows' work shrinks with them — on power-grid
  /// matrices τ = 1e-3 keeps ~40 % of the fill and cuts the build ~2.5×.
  /// solve() then returns an approximation; use it as a preconditioner
  /// (analysis::IncrementalIrSolver does), never as a direct solver.
  /// Dropping keeps every diagonal, so L stays nonsingular; a pivot driven
  /// non-positive by dropping still throws, and callers fall back exactly
  /// as for a non-SPD matrix.
  explicit SparseCholesky(const CsrMatrix& a,
                          std::optional<std::vector<Index>> perm = {},
                          Real drop_tolerance = 0.0);

  /// Solve A x = b.
  std::vector<Real> solve(std::span<const Real> b) const;

  Index dimension() const { return n_; }
  /// Stored nonzeros in L (fill-in indicator).
  Index factor_nnz() const { return static_cast<Index>(values_.size()); }

  /// Raw factor access (L rows in CSR, sorted columns, diagonal last) for
  /// adapters that re-encode the factor — e.g. the single-precision copy
  /// CholeskyPreconditioner keeps for its apply sweeps.
  std::span<const Index> factor_row_ptr() const { return row_ptr_; }
  std::span<const Index> factor_col_idx() const { return col_idx_; }
  std::span<const Real> factor_values() const { return values_; }
  /// Ordering used at construction (perm[old] = new); empty when natural.
  std::span<const Index> permutation() const { return perm_; }

 private:
  void factor(const CsrMatrix& a, Real drop_tolerance);

  Index n_ = 0;
  // L in CSR, rows sorted by column, diagonal entry last in each row.
  std::vector<Index> row_ptr_;
  std::vector<Index> col_idx_;
  std::vector<Real> values_;
  // Optional permutation (perm_[old] = new).
  std::vector<Index> perm_;
};

/// Adapter exposing a SparseCholesky factorization as a CG preconditioner:
/// apply(r) ≈ A₀⁻¹r against the frozen matrix. The adapter keeps its own
/// single-precision copy of L (float values, 32-bit indices) and optionally
/// drops entries with |L(i,j)| ≤ drop_tolerance·|L(i,i)|: the two
/// triangular sweeps are latency-bound indexed walks, so their cost scales
/// with the entry count, and power-grid factors decay fast enough that
/// half the entries buy almost no convergence (measured: τ = 1e-4 keeps
/// ~55 % of L, same CG iteration count on a patched system, ~40 % cheaper
/// apply). Approximating a preconditioner is harmless — it stays a fixed
/// near-A₀⁻¹ SPD operator — while the exact consumer (the kCholesky ladder
/// rung) keeps using the double factor directly. Non-owning: the
/// factorization must outlive the preconditioner.
class CholeskyPreconditioner final : public Preconditioner {
 public:
  explicit CholeskyPreconditioner(const SparseCholesky& factorization,
                                  Real drop_tolerance = 0.0);
  void apply(std::span<const Real> r, std::span<Real> out) const override;
  const char* name() const override { return "frozen-cholesky"; }
  /// Entries kept after dropping (≤ factorization.factor_nnz()).
  Index kept_nnz() const { return static_cast<Index>(values_.size()); }

 private:
  const SparseCholesky& factorization_;
  std::vector<std::int32_t> row_ptr_;
  std::vector<std::int32_t> col_idx_;
  std::vector<float> values_;
  mutable std::vector<float> work_;  ///< scratch for the sweeps (serial CG)
};

}  // namespace ppdl::linalg
