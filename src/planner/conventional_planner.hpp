// The conventional power-planning baseline (paper Fig. 1).
//
// Iterates: analyze the grid (the expensive full solve) → check IR and EM
// margins → widen violating wires → repeat, until sign-off margins hold or
// an iteration cap is reached. The resulting widths are the "golden" design
// the DL model is trained on, and the loop's wall time is the
// "Conventional" column of Table IV.
#pragma once

#include <string>
#include <vector>

#include "analysis/incremental_solver.hpp"
#include "analysis/ir_solver.hpp"
#include "common/deadline.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "grid/power_grid.hpp"
#include "planner/width_optimizer.hpp"

namespace ppdl::planner {

struct PlannerOptions {
  WidthUpdateOptions update;
  analysis::IrAnalysisOptions solver;
  Index max_iterations = 40;
  /// Warm-start each iteration's CG from the previous solution.
  bool warm_start = true;
  /// Reuse one resident solve context across iterations (cached MNA system +
  /// frozen factorization, in-place CSR patching; see
  /// analysis::IncrementalIrSolver) instead of assembling and solving
  /// from scratch every iteration. The final verified analysis always runs
  /// through the full path regardless. CLI escape hatch: --no-incremental.
  bool incremental = true;
  /// Tuning for the resident context (ignored when !incremental). Setting
  /// frozen_preconditioner false makes every incremental solve replay the
  /// full path bit-for-bit.
  analysis::IncrementalSolveOptions resolve;
  /// After convergence, relax sized widths back toward the margin (the
  /// widening loop overshoots by a trajectory-dependent factor; recovering
  /// the overshoot reclaims metal and pins the design at a reproducible
  /// operating point — drop ≈ polish_margin × limit). Each relaxation trial
  /// is verified with a full analysis, like a real ECO loop.
  bool polish = true;
  Real polish_margin = 0.97;
  Index polish_attempts = 3;
  /// Cooperative wall-clock budget, polled before every design iteration
  /// (and forwarded to each analysis' solve ladder). When it expires the
  /// loop stops cleanly with `timed_out` set and the grid keeps its
  /// best-so-far widths — a usable, if unconverged, design.
  Deadline deadline;
};

struct IterationTrace {
  Index iteration = 0;
  Real worst_ir_drop = 0.0;
  Real worst_density = 0.0;
  Index wires_widened = 0;
  Real solve_seconds = 0.0;
};

struct PlannerResult {
  bool converged = false;
  Index iterations = 0;
  Real total_seconds = 0.0;       ///< wall time of the whole loop
  Real analysis_seconds = 0.0;    ///< time inside the solver
  analysis::IrAnalysisResult final_analysis;
  std::vector<IterationTrace> trace;
  /// True when an analysis failed to converge even after the robust solve
  /// ladder — the loop stops immediately (widening against an unconverged
  /// solution would chase noise). `converged` is false in that case.
  bool solver_failed = false;
  /// SolveReport summary of the failed (or last escalated) analysis.
  std::string solver_diagnosis;
  /// How many analyses needed escalation beyond the requested CG rung.
  Index solver_escalations = 0;
  /// True when the deadline expired mid-loop: the widths in the grid are
  /// the best reached before time ran out (`converged` stays false unless
  /// margins already held).
  bool timed_out = false;
};

/// Runs the conventional loop in place: `pg`'s wire widths are updated to
/// the converged (golden) design.
PlannerResult run_conventional_planner(grid::PowerGrid& pg,
                                       const PlannerOptions& options = {});

namespace detail {

/// Width-relaxation pass: scale every sized wire back toward the margin and
/// verify; retries with progressively weaker relaxation. Leaves the grid at
/// the best accepted state and updates `result` accordingly. Rejected
/// attempts never touch `result.solver_failed`, `solver_diagnosis`, or the
/// warm-start voltages — only an accepted attempt updates the report (the
/// contract the planner regression suite locks down). `resolve` may be null
/// (every verify runs the full path). Exposed for direct unit testing.
void polish_widths(grid::PowerGrid& pg, const PlannerOptions& options,
                   analysis::IrAnalysisOptions& solver,
                   analysis::IncrementalIrSolver* resolve,
                   PlannerResult& result);

}  // namespace detail

}  // namespace ppdl::planner
