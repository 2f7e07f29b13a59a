// Property-based randomized harness for the preconditioner family.
//
// Random SPD M-matrix grids (the structure power-grid conductance matrices
// have) are generated from seeded RNG streams across sizes and conditioning
// regimes, and every PreconditionerKind must uphold the PCG contract on all
// of them:
//   * M⁻¹ acts as a symmetric positive operator: ⟨z, r'⟩ = ⟨z', r⟩ and
//     ⟨z, r⟩ > 0 for z = M⁻¹r,
//   * preconditioned CG never needs more iterations than plain CG.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "linalg/cg.hpp"
#include "linalg/preconditioner.hpp"
#include "linalg/vector_ops.hpp"

namespace ppdl::linalg {
namespace {

constexpr PreconditionerKind kAllKinds[] = {
    PreconditionerKind::kNone, PreconditionerKind::kJacobi,
    PreconditionerKind::kIc0};

struct GridCase {
  Index rows;
  Index cols;
  U64 seed;
  Real spread;        ///< conductance ratio (conditioning knob)
  Real pad_fraction;  ///< grounded-node density (fewer pads = harsher)
};

// Sizes × conditioning sweep: small/medium grids, mild to harsh spreads.
const GridCase kCases[] = {
    {4, 4, 11, 2.0, 0.5},    {5, 9, 22, 10.0, 0.2},
    {9, 9, 33, 100.0, 0.1},  {12, 7, 44, 1000.0, 0.05},
    {16, 16, 55, 50.0, 0.03},
};

/// Random SPD M-matrix on a rows×cols grid graph: negative off-diagonals
/// (edge conductances drawn from [1, spread]), diagonal = |row sum| plus a
/// positive pad conductance on a random node subset — diagonally dominant,
/// hence SPD; sparsity pattern of a power-grid layer.
CsrMatrix random_grid_matrix(const GridCase& c) {
  Rng rng(c.seed);
  const Index n = c.rows * c.cols;
  std::vector<Real> diag(static_cast<std::size_t>(n), 0.0);
  CooMatrix coo(n, n);
  const auto node = [&](Index i, Index j) { return i * c.cols + j; };
  for (Index i = 0; i < c.rows; ++i) {
    for (Index j = 0; j < c.cols; ++j) {
      const Index u = node(i, j);
      if (j + 1 < c.cols) {
        const Real g = rng.uniform(1.0, c.spread);
        coo.add_symmetric_pair(u, node(i, j + 1), -g);
        diag[static_cast<std::size_t>(u)] += g;
        diag[static_cast<std::size_t>(node(i, j + 1))] += g;
      }
      if (i + 1 < c.rows) {
        const Real g = rng.uniform(1.0, c.spread);
        coo.add_symmetric_pair(u, node(i + 1, j), -g);
        diag[static_cast<std::size_t>(u)] += g;
        diag[static_cast<std::size_t>(node(i + 1, j))] += g;
      }
    }
  }
  bool any_pad = false;
  for (Index v = 0; v < n; ++v) {
    if (rng.uniform() < c.pad_fraction) {
      diag[static_cast<std::size_t>(v)] += rng.uniform(0.5, 2.0);
      any_pad = true;
    }
  }
  if (!any_pad) {
    diag[0] += 1.0;  // keep the matrix nonsingular in every draw
  }
  for (Index v = 0; v < n; ++v) {
    coo.add(v, v, diag[static_cast<std::size_t>(v)]);
  }
  return CsrMatrix::from_coo(coo);
}

std::vector<Real> random_vector(Index n, U64 seed) {
  Rng rng(seed);
  std::vector<Real> v(static_cast<std::size_t>(n));
  for (Real& x : v) {
    x = rng.normal();
  }
  return v;
}

TEST(PrecondProperties, ApplyActsAsSymmetricPositiveOperator) {
  for (const GridCase& c : kCases) {
    const CsrMatrix a = random_grid_matrix(c);
    const Index n = a.rows();
    const std::vector<Real> r = random_vector(n, c.seed ^ 0xabcdULL);
    const std::vector<Real> s = random_vector(n, c.seed ^ 0x1234ULL);
    for (const PreconditionerKind kind : kAllKinds) {
      const auto p = make_preconditioner(kind, a);
      std::vector<Real> minv_r(static_cast<std::size_t>(n));
      std::vector<Real> minv_s(static_cast<std::size_t>(n));
      p->apply(r, minv_r);
      p->apply(s, minv_s);
      const Real rms = dot(r, minv_s);
      const Real smr = dot(s, minv_r);
      const Real scale = std::max({std::abs(rms), std::abs(smr), 1.0});
      EXPECT_NEAR(rms, smr, 1e-9 * scale)
          << p->name() << " on " << c.rows << "x" << c.cols
          << " seed=" << c.seed;
      EXPECT_GT(dot(r, minv_r), 0.0) << p->name();
      EXPECT_GT(dot(s, minv_s), 0.0) << p->name();
    }
  }
}

TEST(PrecondProperties, PreconditionedCgNeverNeedsMoreIterations) {
  for (const GridCase& c : kCases) {
    const CsrMatrix a = random_grid_matrix(c);
    const std::vector<Real> x_true = random_vector(a.rows(), c.seed + 7);
    const std::vector<Real> b = a.multiply(x_true);

    CgOptions plain;
    plain.preconditioner = PreconditionerKind::kNone;
    plain.stagnation_window = 0;  // let plain CG run to its real count
    const CgResult base = conjugate_gradient(a, b, plain);

    for (const PreconditionerKind kind : kAllKinds) {
      CgOptions opts = plain;
      opts.preconditioner = kind;
      const CgResult r = conjugate_gradient(a, b, opts);
      EXPECT_TRUE(r.converged)
          << to_string(kind) << " on " << c.rows << "x" << c.cols
          << " seed=" << c.seed << ": " << to_string(r.status);
      EXPECT_LE(r.iterations, base.iterations)
          << to_string(kind) << " on " << c.rows << "x" << c.cols
          << " seed=" << c.seed;
    }
  }
}

}  // namespace
}  // namespace ppdl::linalg
