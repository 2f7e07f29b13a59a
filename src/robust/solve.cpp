#include "robust/solve.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.hpp"
#include "common/obs.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/ordering.hpp"
#include "linalg/vector_ops.hpp"

namespace ppdl::robust {

namespace {

/// Relative residual ||b − A·x|| / ||b|| against the ORIGINAL matrix.
Real true_relative_residual(const linalg::CsrMatrix& a,
                            std::span<const Real> x, std::span<const Real> b,
                            Real bnorm) {
  std::vector<Real> r = a.multiply(x);
  for (std::size_t i = 0; i < r.size(); ++i) {
    r[i] = b[i] - r[i];
  }
  return linalg::norm2(r) / bnorm;
}

bool all_finite(std::span<const Real> v) {
  return std::all_of(v.begin(), v.end(),
                     [](Real x) { return std::isfinite(x); });
}

/// Tallies one finished ladder run into the metrics registry: which rungs
/// ran, whether escalation was needed, and how the run ended.
void record_ladder_outcome(const SolveReport& report) {
  obs::count("solve.ladder_runs");
  obs::count(report.converged ? "solve.converged" : "solve.failed");
  if (report.attempts.size() > 1) {
    obs::count("solve.escalated");
  }
  if (report.deadline_expired) {
    obs::count("solve.deadline_expired");
  }
  for (const SolveAttempt& attempt : report.attempts) {
    obs::count(std::string("solve.rung.") + to_string(attempt.step));
  }
  obs::observe("solve.ladder_iterations",
               static_cast<Real>(report.total_iterations), {0.0, 2048.0, 32});
}

/// Tracks the best finite iterate seen across rungs.
struct BestIterate {
  std::vector<Real> x;
  Real residual = std::numeric_limits<Real>::infinity();

  void offer(std::span<const Real> candidate, Real rel) {
    if (std::isfinite(rel) && rel < residual && all_finite(candidate)) {
      x.assign(candidate.begin(), candidate.end());
      residual = rel;
    }
  }
};

}  // namespace

const char* to_string(SolveStep step) {
  switch (step) {
    case SolveStep::kRequestedCg:
      return "cg";
    case SolveStep::kEscalatedCg:
      return "cg-escalated";
    case SolveStep::kRegularizedCg:
      return "cg-tikhonov";
    case SolveStep::kDirectCholesky:
      return "cholesky";
  }
  return "?";
}

std::string SolveReport::summary() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    const SolveAttempt& a = attempts[i];
    if (i > 0) {
      os << " -> ";
    }
    os << to_string(a.step) << '(' << linalg::to_string(a.preconditioner);
    if (a.diagonal_shift > 0.0) {
      os << ", shift=" << a.diagonal_shift;
    }
    os << "): " << linalg::to_string(a.status) << " @" << a.iterations
       << " it, rel=" << a.relative_residual;
    if (!a.note.empty()) {
      os << " [" << a.note << ']';
    }
  }
  if (attempts.empty()) {
    os << "no attempts";
  }
  return os.str();
}

RobustSolveResult robust_solve(const linalg::CsrMatrix& a,
                               std::span<const Real> b,
                               const RobustSolveOptions& options,
                               std::optional<std::vector<Real>> x0) {
  PPDL_REQUIRE(a.rows() == a.cols(), "robust_solve needs a square matrix");
  PPDL_REQUIRE(static_cast<Index>(b.size()) == a.rows(),
               "robust_solve: rhs size mismatch");
  const Index n = a.rows();
  const Real tol = options.cg.tolerance;

  RobustSolveResult result;
  const Real bnorm = linalg::norm2(b);
  if (bnorm == 0.0) {
    result.x.assign(static_cast<std::size_t>(n), 0.0);
    SolveAttempt attempt;
    attempt.step = SolveStep::kRequestedCg;
    attempt.preconditioner = options.cg.preconditioner;
    attempt.status = linalg::CgStatus::kConverged;
    result.report.attempts.push_back(std::move(attempt));
    result.report.converged = true;
    record_ladder_outcome(result.report);
    return result;
  }

  BestIterate best;
  SolveReport& report = result.report;

  // One CG rung on `m` (the original or a regularized matrix). Preconditioner
  // construction can throw on singular input; that is recorded, not raised.
  const auto run_cg_rung = [&](const linalg::CsrMatrix& m, SolveStep step,
                               linalg::PreconditionerKind precond, Real shift,
                               std::optional<std::vector<Real>> seed)
      -> std::optional<linalg::CgResult> {
    SolveAttempt attempt;
    attempt.step = step;
    attempt.preconditioner = precond;
    attempt.diagonal_shift = shift;
    linalg::CgOptions cg = options.cg;
    cg.preconditioner = precond;
    if (step != SolveStep::kRequestedCg) {
      // A caller-shared preconditioner (frozen factorization) belongs to the
      // requested configuration only; escalation rungs asked for a specific
      // kind built from the matrix at hand.
      cg.shared_preconditioner = nullptr;
    }
    try {
      linalg::CgResult r =
          linalg::conjugate_gradient(m, b, cg, std::move(seed));
      attempt.iterations = r.iterations;
      attempt.status = r.status;
      report.total_iterations += r.iterations;
      // Residual is reported against the original matrix, which differs
      // from CG's internal residual on the regularized rung.
      attempt.relative_residual =
          (&m == &a) ? r.relative_residual
                     : true_relative_residual(a, r.x, b, bnorm);
      best.offer(r.x, attempt.relative_residual);
      const bool solved = attempt.relative_residual <= tol &&
                          all_finite(r.x);
      if (solved) {
        attempt.status = linalg::CgStatus::kConverged;
      }
      report.attempts.push_back(std::move(attempt));
      if (solved) {
        report.converged = true;
      }
      return r;
    } catch (const linalg::PreconditionerError& e) {
      attempt.status = linalg::CgStatus::kBreakdown;
      attempt.note = e.what();
      report.attempts.push_back(std::move(attempt));
      return std::nullopt;
    } catch (const ContractViolation& e) {
      attempt.status = linalg::CgStatus::kBreakdown;
      attempt.note = e.what();
      report.attempts.push_back(std::move(attempt));
      return std::nullopt;
    }
  };

  // The escalation budget: each further rung only starts while wall-clock
  // time remains. The requested rung always runs (a solve must at least be
  // attempted); an expired deadline then caps how far the ladder climbs.
  const auto out_of_time = [&]() -> bool {
    if (options.deadline.expired()) {
      report.deadline_expired = true;
      if (!report.attempts.empty() && report.attempts.back().note.empty()) {
        report.attempts.back().note = "deadline expired; escalation stopped";
      }
      return true;
    }
    return false;
  };

  // Rung 1: CG exactly as requested.
  run_cg_rung(a, SolveStep::kRequestedCg, options.cg.preconditioner, 0.0,
              std::move(x0));
  if (report.converged || !options.allow_escalation || out_of_time()) {
    report.final_residual = best.residual;
    result.x = best.x.empty()
                   ? std::vector<Real>(static_cast<std::size_t>(n), 0.0)
                   : std::move(best.x);
    record_ladder_outcome(report);
    return result;
  }

  const auto warm_seed = [&]() -> std::optional<std::vector<Real>> {
    if (!best.x.empty()) {
      return best.x;
    }
    return std::nullopt;
  };

  // Rung 2: stronger preconditioners than the one that just failed. IC(0)
  // is the strongest rung; from it there is nowhere stronger to go but
  // regularization.
  std::vector<linalg::PreconditionerKind> stronger;
  switch (options.cg.preconditioner) {
    case linalg::PreconditionerKind::kNone:
      stronger = {linalg::PreconditionerKind::kJacobi,
                  linalg::PreconditionerKind::kIc0};
      break;
    case linalg::PreconditionerKind::kJacobi:
      stronger = {linalg::PreconditionerKind::kIc0};
      break;
    case linalg::PreconditionerKind::kIc0:
      break;
  }
  for (const linalg::PreconditionerKind kind : stronger) {
    run_cg_rung(a, SolveStep::kEscalatedCg, kind, 0.0, warm_seed());
    if (report.converged || out_of_time()) {
      break;
    }
  }

  // Rung 3: Tikhonov-regularize the diagonal and refine against A.
  if (!report.converged && !report.deadline_expired) {
    const std::vector<Real> diag = a.diagonal();
    Real max_diag = 0.0;
    for (const Real d : diag) {
      max_diag = std::max(max_diag, std::abs(d));
    }
    const Real shift =
        options.shift_factor * (max_diag > 0.0 ? max_diag : 1.0);
    const linalg::CsrMatrix shifted = a.with_shifted_diagonal(shift);
    auto shifted_result =
        run_cg_rung(shifted, SolveStep::kRegularizedCg,
                    linalg::PreconditionerKind::kIc0, shift, warm_seed());
    if (!report.converged && shifted_result.has_value() &&
        all_finite(shifted_result->x)) {
      // Iterative refinement: solve A'·δ = b − A·x, fold δ back in.
      std::vector<Real> x = std::move(shifted_result->x);
      SolveAttempt& attempt = report.attempts.back();
      for (Index sweep = 0; sweep < options.refinement_sweeps; ++sweep) {
        if (out_of_time()) {
          break;
        }
        std::vector<Real> r = a.multiply(x);
        for (std::size_t i = 0; i < r.size(); ++i) {
          r[i] = b[i] - r[i];
        }
        linalg::CgOptions cg = options.cg;
        cg.preconditioner = linalg::PreconditionerKind::kIc0;
        cg.shared_preconditioner = nullptr;  // refinement solves the shifted A
        const linalg::CgResult delta =
            linalg::conjugate_gradient(shifted, r, cg);
        report.total_iterations += delta.iterations;
        attempt.iterations += delta.iterations;
        if (!all_finite(delta.x)) {
          break;
        }
        for (std::size_t i = 0; i < x.size(); ++i) {
          x[i] += delta.x[i];
        }
        const Real rel = true_relative_residual(a, x, b, bnorm);
        attempt.relative_residual = rel;
        best.offer(x, rel);
        if (rel <= tol) {
          attempt.status = linalg::CgStatus::kConverged;
          report.converged = true;
          break;
        }
      }
    }
  }

  // Rung 4: direct sparse Cholesky (exact up to round-off when A is SPD).
  if (!report.converged && !out_of_time() &&
      (options.max_direct_dimension <= 0 ||
       n <= options.max_direct_dimension)) {
    SolveAttempt attempt;
    attempt.step = SolveStep::kDirectCholesky;
    attempt.preconditioner = linalg::PreconditionerKind::kNone;
    try {
      const linalg::SparseCholesky factorization(a, linalg::rcm_ordering(a));
      const std::vector<Real> x = factorization.solve(b);
      const Real rel = true_relative_residual(a, x, b, bnorm);
      attempt.relative_residual = rel;
      best.offer(x, rel);
      if (std::isfinite(rel) && rel <= tol && all_finite(x)) {
        attempt.status = linalg::CgStatus::kConverged;
        report.converged = true;
      } else if (!std::isfinite(rel)) {
        attempt.status = linalg::CgStatus::kNonFinite;
      } else {
        attempt.status = linalg::CgStatus::kMaxIterations;
        attempt.note = "direct solve residual above tolerance";
      }
    } catch (const ContractViolation& e) {
      attempt.status = linalg::CgStatus::kBreakdown;
      attempt.note = e.what();  // e.g. non-positive pivot: matrix not SPD
    }
    report.attempts.push_back(std::move(attempt));
  }

  report.final_residual = best.residual;
  result.x = best.x.empty()
                 ? std::vector<Real>(static_cast<std::size_t>(n), 0.0)
                 : std::move(best.x);
  record_ladder_outcome(report);
  return result;
}

}  // namespace ppdl::robust
