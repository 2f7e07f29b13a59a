#include "planner/conventional_planner.hpp"

#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/obs.hpp"
#include "grid/design_rules.hpp"

namespace ppdl::planner {

namespace {

/// Tallies one finished planner run: outcome, iteration count, and the
/// per-iteration worst-IR / widening trace as bounded histograms.
void record_planner_outcome(const PlannerResult& result) {
  obs::count("planner.runs");
  obs::count("planner.iterations", result.iterations);
  obs::count("planner.solver_escalations", result.solver_escalations);
  if (result.converged) {
    obs::count("planner.converged");
  } else if (result.solver_failed) {
    obs::count("planner.solver_failed");
  } else if (result.timed_out) {
    obs::count("planner.timed_out");
  } else {
    obs::count("planner.stuck");
  }
  for (const IterationTrace& trace : result.trace) {
    obs::count("planner.wires_widened", trace.wires_widened);
    obs::observe("planner.iter_worst_ir_mv", trace.worst_ir_drop * 1e3,
                 {0.0, 50.0, 50});
    obs::observe("planner.iter_wires_widened",
                 static_cast<Real>(trace.wires_widened), {0.0, 4096.0, 32});
  }
}

/// Folds one analysis' solve diagnosis into the planner result: counts
/// escalated solves and latches failure (with the SolveReport summary) when
/// even the ladder could not converge. Only for analyses whose outcome the
/// planner adopts — a rejected polish attempt must NOT go through here, or a
/// converged run would report solver_failed (the bug the regression suite
/// pins).
void account_solve(const analysis::IrAnalysisResult& analysis,
                   PlannerResult& result) {
  if (analysis.solve_report.escalated()) {
    ++result.solver_escalations;
    result.solver_diagnosis = analysis.solve_report.summary();
  }
  if (!analysis.converged) {
    result.solver_failed = true;
    result.solver_diagnosis = analysis.solve_report.summary();
  }
}

/// One analysis through the resident context when present, the full path
/// otherwise.
analysis::IrAnalysisResult solve_once(grid::PowerGrid& pg,
                                      const analysis::IrAnalysisOptions& solver,
                                      analysis::IncrementalIrSolver* resolve) {
  if (resolve != nullptr) {
    return resolve->analyze(solver);
  }
  return analysis::analyze_ir_drop(pg, solver);
}

}  // namespace

namespace detail {

void polish_widths(grid::PowerGrid& pg, const PlannerOptions& options,
                   analysis::IrAnalysisOptions& solver,
                   analysis::IncrementalIrSolver* resolve,
                   PlannerResult& result) {
  const Real limit = options.update.ir_limit;
  const Real worst = result.final_analysis.worst_ir_drop;
  if (worst >= limit * options.polish_margin) {
    return;  // already at the margin; nothing to reclaim
  }
  // Drops scale roughly with 1/width, so this factor lands the worst drop
  // near polish_margin × limit.
  const Real base_factor = worst / (limit * options.polish_margin);

  std::vector<Real> sized(static_cast<std::size_t>(pg.branch_count()), 0.0);
  bool anything_to_relax = false;
  for (Index b = 0; b < pg.branch_count(); ++b) {
    const grid::Branch& br = pg.branch(b);
    if (br.kind == grid::BranchKind::kWire) {
      sized[static_cast<std::size_t>(b)] = br.width;
      anything_to_relax |=
          br.width > pg.layer(br.layer).default_width * (1.0 + 1e-9);
    }
  }
  if (!anything_to_relax) {
    return;  // nothing was sized above its baseline; no metal to reclaim
  }

  for (Index attempt = 0; attempt < options.polish_attempts; ++attempt) {
    if (options.deadline.expired()) {
      break;  // out of budget mid-polish: restore the verified widths below
    }
    // factor, then √factor, then ∜factor, … approaching 1 (no relaxation).
    const Real f = std::pow(
        base_factor, 1.0 / static_cast<Real>(Index{1} << attempt));
    for (Index b = 0; b < pg.branch_count(); ++b) {
      const grid::Branch& br = pg.branch(b);
      if (br.kind != grid::BranchKind::kWire) {
        continue;
      }
      // Never relax below the layer default (the unplanned baseline), the
      // design-rule minimum, or the EM width for the last known current.
      const grid::Layer& layer = pg.layer(br.layer);
      const Real em_floor =
          options.update.em_safety *
          std::abs(result.final_analysis
                       .branch_current[static_cast<std::size_t>(b)]) /
          options.update.jmax;
      const Real w = std::max(
          {sized[static_cast<std::size_t>(b)] * f, layer.default_width,
           em_floor, grid::min_width(layer, options.update.rules)});
      pg.set_wire_width(b, w);
    }
    analysis::IrAnalysisResult verify = solve_once(pg, solver, resolve);
    result.analysis_seconds += verify.solve_seconds;
    // A relaxation attempt is speculative: tally its escalations (they
    // happened and cost time) but let neither a failed nor an escalated
    // verify overwrite the planner's accepted-state diagnosis.
    if (verify.solve_report.escalated()) {
      ++result.solver_escalations;
    }
    ++result.iterations;
    const bool ok = verify.converged && verify.worst_ir_drop <= limit &&
                    verify.worst_density <= options.update.jmax;
    IterationTrace trace;
    trace.iteration = result.iterations;
    trace.worst_ir_drop = verify.worst_ir_drop;
    trace.worst_density = verify.worst_density;
    trace.solve_seconds = verify.solve_seconds;
    trace.wires_widened = 0;
    result.trace.push_back(trace);
    if (ok) {
      // Only an ACCEPTED state may seed later warm starts; a rejected
      // relaxation's voltages belong to widths that no longer exist.
      if (options.warm_start) {
        solver.initial_voltages = verify.node_voltage;
      }
      result.final_analysis = std::move(verify);
      return;
    }
  }
  // No relaxation verified: restore the converged (unpolished) widths.
  for (Index b = 0; b < pg.branch_count(); ++b) {
    if (pg.branch(b).kind == grid::BranchKind::kWire) {
      pg.set_wire_width(b, sized[static_cast<std::size_t>(b)]);
    }
  }
}

}  // namespace detail

PlannerResult run_conventional_planner(grid::PowerGrid& pg,
                                       const PlannerOptions& options) {
  PPDL_REQUIRE(options.max_iterations > 0, "need at least one iteration");
  PlannerResult result;
  const Timer timer;
  const obs::Span span("planner.run");

  analysis::IrAnalysisOptions solver = options.solver;
  solver.deadline = options.deadline;

  // The resident context attaches the grid's (single) value observer; if
  // another context already watches this grid, degrade to the full path
  // rather than fight over the slot.
  std::optional<analysis::IncrementalIrSolver> resolve_ctx;
  if (options.incremental && !pg.has_value_observer()) {
    resolve_ctx.emplace(pg, options.resolve);
  }
  analysis::IncrementalIrSolver* const resolve =
      resolve_ctx ? &*resolve_ctx : nullptr;

  WidthUpdateState state;
  for (Index it = 1; it <= options.max_iterations; ++it) {
    if (options.deadline.expired()) {
      // Out of budget: stop before starting another expensive analysis.
      // The grid keeps the best widths reached so far.
      result.timed_out = true;
      break;
    }
    analysis::IrAnalysisResult analysis = solve_once(pg, solver, resolve);
    result.analysis_seconds += analysis.solve_seconds;
    account_solve(analysis, result);
    if (!analysis.converged) {
      // Widening against an unconverged solution would chase solver noise,
      // not real violations: stop and surface the diagnosis.
      result.iterations = it;
      result.final_analysis = std::move(analysis);
      break;
    }
    if (options.warm_start) {
      solver.initial_voltages = analysis.node_voltage;
    }

    const bool ir_ok = analysis.worst_ir_drop <= options.update.ir_limit;
    const bool em_ok = analysis.worst_density <= options.update.jmax;

    IterationTrace trace;
    trace.iteration = it;
    trace.worst_ir_drop = analysis.worst_ir_drop;
    trace.worst_density = analysis.worst_density;
    trace.solve_seconds = analysis.solve_seconds;

    if (ir_ok && em_ok) {
      trace.wires_widened = 0;
      result.trace.push_back(trace);
      result.converged = true;
      result.iterations = it;
      result.final_analysis = std::move(analysis);
      break;
    }

    trace.wires_widened = update_widths(pg, analysis, options.update, state);
    result.trace.push_back(trace);
    result.iterations = it;
    result.final_analysis = std::move(analysis);

    PPDL_LOG_DEBUG << pg.name() << " planner iter " << it << ": worst IR "
                   << trace.worst_ir_drop * 1e3 << " mV, worst J "
                   << trace.worst_density << " A/um, widened "
                   << trace.wires_widened;

    if (trace.wires_widened == 0) {
      // Width bounds exhausted while violations persist: stuck.
      break;
    }
  }

  // If the loop ended by widening on its last allowed iteration, the final
  // analysis predates the last update; re-verify so callers see the truth.
  // A timed-out loop skips the re-verify: no budget remains to spend.
  if (!result.converged && !result.solver_failed && !result.timed_out &&
      !result.trace.empty() && result.trace.back().wires_widened > 0) {
    analysis::IrAnalysisResult analysis = solve_once(pg, solver, resolve);
    result.analysis_seconds += analysis.solve_seconds;
    account_solve(analysis, result);
    result.converged = analysis.converged &&
                       analysis.worst_ir_drop <= options.update.ir_limit &&
                       analysis.worst_density <= options.update.jmax;
    result.final_analysis = std::move(analysis);
  }

  if (options.polish && result.converged && !options.deadline.expired()) {
    detail::polish_widths(pg, options, solver, resolve, result);
  }

  // Incremental runs end with one verify through the FULL path at the final
  // widths — the report's final_analysis never rests on a patched solve.
  // (The accepted state's voltages seed it, so a healthy verify converges
  // immediately and bit-reproduces the accepted solution.)
  if (resolve != nullptr && result.converged && !options.deadline.expired()) {
    analysis::IrAnalysisResult full = analysis::analyze_ir_drop(pg, solver);
    result.analysis_seconds += full.solve_seconds;
    account_solve(full, result);
    result.converged = full.converged &&
                       full.worst_ir_drop <= options.update.ir_limit &&
                       full.worst_density <= options.update.jmax;
    result.final_analysis = std::move(full);
  }

  result.total_seconds = timer.seconds();
  PPDL_ENSURE(!(result.converged && result.solver_failed),
              "planner invariant: a converged run cannot report "
              "solver_failed");
  record_planner_outcome(result);
  return result;
}

}  // namespace ppdl::planner
