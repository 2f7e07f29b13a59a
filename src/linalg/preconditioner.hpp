// Preconditioners for the conjugate-gradient solver.
//
// Power-grid conductance matrices are SPD M-matrices; Jacobi works but IC(0)
// (zero fill-in incomplete Cholesky) cuts iteration counts several-fold on
// large meshes — this is the default for the conventional-planner analysis.
#pragma once

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "linalg/csr.hpp"

namespace ppdl::linalg {

/// Thrown when a preconditioner cannot be built or applied for numerical
/// reasons on the given input — a zero diagonal, or an incomplete
/// factorization that breaks down even with diagonal shifting. This is the
/// solver-side member of the project error
/// taxonomy (NetlistError, ArtifactError, …): callers catch by class and
/// escalate (robust::robust_solve records it and climbs the ladder).
/// Structural API misuse (non-square matrix, size mismatch) stays a
/// ContractViolation.
class PreconditionerError : public std::runtime_error {
 public:
  explicit PreconditionerError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Interface: z = M⁻¹ r for a fixed matrix A captured at construction.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// Apply the preconditioner: out = M⁻¹ r.
  virtual void apply(std::span<const Real> r, std::span<Real> out) const = 0;

  /// Human-readable name for reports.
  virtual const char* name() const = 0;
};

/// Identity (no preconditioning).
class IdentityPreconditioner final : public Preconditioner {
 public:
  void apply(std::span<const Real> r, std::span<Real> out) const override;
  const char* name() const override { return "none"; }
};

/// Diagonal (Jacobi): out_i = r_i / A_ii. Throws PreconditionerError when a
/// diagonal entry is zero (structurally missing or exact zero).
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const CsrMatrix& a);
  void apply(std::span<const Real> r, std::span<Real> out) const override;
  const char* name() const override { return "jacobi"; }

 private:
  std::vector<Real> inv_diag_;
};

/// Zero fill-in incomplete Cholesky: A ≈ L Lᵀ with the sparsity of tril(A),
/// stored as lower-triangular CSR with each row sorted by column and the
/// diagonal entry last, applied by serial triangular solves. Breakdown
/// (non-positive pivot) is repaired by diagonal shifting;
/// PreconditionerError when shifting cannot save it.
class Ic0Preconditioner final : public Preconditioner {
 public:
  explicit Ic0Preconditioner(const CsrMatrix& a);
  void apply(std::span<const Real> r, std::span<Real> out) const override;
  const char* name() const override { return "ic0"; }

 private:
  Index n_ = 0;
  std::vector<Index> row_ptr_;
  std::vector<Index> col_idx_;
  std::vector<Real> values_;
};

enum class PreconditionerKind { kNone, kJacobi, kIc0 };

/// Canonical CLI/report name of a kind ("none", "jacobi", "ic0").
const char* to_string(PreconditionerKind kind);

/// Factory.
std::unique_ptr<Preconditioner> make_preconditioner(PreconditionerKind kind,
                                                    const CsrMatrix& a);

/// Parse "none" / "jacobi" / "ic0"; throws ContractViolation otherwise.
PreconditionerKind parse_preconditioner(const std::string& name);

}  // namespace ppdl::linalg
