// Regression suite for planner / solver result-reporting bugs and the
// incremental re-solve engine's equivalence contracts:
//   * rejected polish attempts never poison the converged report or the
//     warm-start voltages (and restore the widths bit-identically);
//   * a converged run can never report solver_failed;
//   * the incremental context matches the full path — bitwise in
//     replicate-full mode, within solver tolerance in the default mode —
//     at 1, 2, and 8 threads;
//   * update_worst_region survives degenerate inputs;
//   * the direct (Cholesky) solver honors an expired deadline;
//   * planner.resolve.* strategy counters tally as designed.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/incremental_solver.hpp"
#include "analysis/ir_solver.hpp"
#include "common/parallel.hpp"
#include "linalg/cg.hpp"
#include "linalg/vector_ops.hpp"
#include "planner/conventional_planner.hpp"
#include "planner/width_optimizer.hpp"
#include "support/fixtures.hpp"

namespace ppdl::planner {
namespace {

std::vector<Real> wire_widths(const grid::PowerGrid& pg) {
  std::vector<Real> w;
  w.reserve(static_cast<std::size_t>(pg.branch_count()));
  for (Index b = 0; b < pg.branch_count(); ++b) {
    w.push_back(pg.branch(b).width);
  }
  return w;
}

PlannerOptions tiny_options(const grid::GeneratedBenchmark& bench) {
  PlannerOptions opts;
  opts.update.ir_limit = bench.spec.ir_limit_mv * 1e-3;
  opts.update.jmax = bench.spec.jmax;
  return opts;
}

// Satellite 1 + 2: a polish pass whose every relaxation attempt fails must
// leave the converged report, the diagnosis, the warm-start voltages, and
// the widths exactly as it found them.
TEST(PlannerRegression, RejectedPolishAttemptsDoNotPoisonReport) {
  grid::GeneratedBenchmark bench = testsupport::make_tiny_benchmark();
  PlannerOptions opts = tiny_options(bench);
  opts.polish = false;       // converge first; polish is driven by hand below
  opts.incremental = false;  // classic path: the regression predates the ctx
  PlannerResult result = run_conventional_planner(bench.grid, opts);
  ASSERT_TRUE(result.converged);
  ASSERT_FALSE(result.solver_failed);

  const std::vector<Real> widths_before = wire_widths(bench.grid);
  analysis::IrAnalysisOptions solver = opts.solver;
  solver.initial_voltages = result.final_analysis.node_voltage;
  const std::vector<Real> warm_before = solver.initial_voltages;
  const std::string diagnosis_before = result.solver_diagnosis;
  const bool converged_before = result.converged;

  // Raise the limit so there is headroom to relax into, then starve CG with
  // escalation off: every relaxation verify fails and must be rejected.
  PlannerOptions polish_opts = opts;
  polish_opts.update.ir_limit = result.final_analysis.worst_ir_drop * 2.0;
  analysis::IrAnalysisOptions failing_solver = solver;
  failing_solver.escalate_on_failure = false;
  const linalg::ScopedCgIterationClamp clamp(1);
  detail::polish_widths(bench.grid, polish_opts, failing_solver,
                        /*resolve=*/nullptr, result);

  // The report is untouched by the rejected attempts...
  EXPECT_EQ(result.converged, converged_before);
  EXPECT_FALSE(result.solver_failed);
  EXPECT_EQ(result.solver_diagnosis, diagnosis_before);
  // ...the warm start still belongs to the accepted state...
  EXPECT_EQ(failing_solver.initial_voltages, warm_before);
  // ...and the widths are restored bit-identically.
  EXPECT_EQ(wire_widths(bench.grid), widths_before);
}

// The planner-wide invariant the bug violated: converged ⇒ ¬solver_failed,
// even when every CG solve needs the ladder (polish verifies included).
TEST(PlannerRegression, ConvergedRunNeverReportsSolverFailed) {
  for (const bool incremental : {false, true}) {
    grid::GeneratedBenchmark bench = testsupport::make_tiny_benchmark();
    PlannerOptions opts = tiny_options(bench);
    opts.incremental = incremental;
    const linalg::ScopedCgIterationClamp clamp(1);
    const PlannerResult result = run_conventional_planner(bench.grid, opts);
    ASSERT_TRUE(result.converged) << "incremental=" << incremental;
    EXPECT_FALSE(result.solver_failed) << "incremental=" << incremental;
    EXPECT_GT(result.solver_escalations, 0) << "incremental=" << incremental;
  }
}

// Tentpole equivalence, strong form: with the frozen-preconditioner
// shortcut disabled the incremental context replays the full path
// bit-for-bit — identical width trajectory, identical final analysis — at
// every thread count.
TEST(PlannerRegression, ReplicateFullModeIsBitIdentical) {
  std::vector<Real> reference_widths;
  for (const Index threads : {Index{1}, Index{2}, Index{8}}) {
    parallel::set_num_threads(threads);

    grid::GeneratedBenchmark full_bench = testsupport::make_tiny_benchmark();
    PlannerOptions full_opts = tiny_options(full_bench);
    full_opts.incremental = false;
    const PlannerResult full =
        run_conventional_planner(full_bench.grid, full_opts);
    ASSERT_TRUE(full.converged) << "threads=" << threads;

    grid::GeneratedBenchmark inc_bench = testsupport::make_tiny_benchmark();
    PlannerOptions inc_opts = tiny_options(inc_bench);
    inc_opts.incremental = true;
    inc_opts.resolve.frozen_preconditioner = false;
    const PlannerResult inc =
        run_conventional_planner(inc_bench.grid, inc_opts);
    ASSERT_TRUE(inc.converged) << "threads=" << threads;

    EXPECT_EQ(wire_widths(inc_bench.grid), wire_widths(full_bench.grid))
        << "threads=" << threads;
    EXPECT_EQ(inc.final_analysis.node_voltage,
              full.final_analysis.node_voltage)
        << "threads=" << threads;
    EXPECT_EQ(inc.iterations, full.iterations) << "threads=" << threads;

    // And the trajectory itself is thread-count independent.
    if (reference_widths.empty()) {
      reference_widths = wire_widths(full_bench.grid);
    } else {
      EXPECT_EQ(wire_widths(full_bench.grid), reference_widths)
          << "threads=" << threads;
    }
  }
  parallel::set_num_threads(0);
}

// Tentpole equivalence, default mode: the shortcut-enabled context must
// still land a verified design meeting the same margins, with the final
// analysis agreeing with the full path within solver tolerance.
TEST(PlannerRegression, DefaultIncrementalMatchesFullWithinTolerance) {
  grid::GeneratedBenchmark full_bench = testsupport::make_tiny_benchmark();
  PlannerOptions full_opts = tiny_options(full_bench);
  full_opts.incremental = false;
  const PlannerResult full =
      run_conventional_planner(full_bench.grid, full_opts);
  ASSERT_TRUE(full.converged);

  grid::GeneratedBenchmark inc_bench = testsupport::make_tiny_benchmark();
  PlannerOptions inc_opts = tiny_options(inc_bench);  // incremental default on
  const PlannerResult inc = run_conventional_planner(inc_bench.grid, inc_opts);
  ASSERT_TRUE(inc.converged);

  // Both meet the margins, and the final verify ran the full path (its
  // worst drop is the authoritative one), so the two designs sit at the
  // same operating point up to solver tolerance.
  EXPECT_LE(inc.final_analysis.worst_ir_drop,
            inc_opts.update.ir_limit + 1e-12);
  EXPECT_LE(inc.final_analysis.worst_density, inc_opts.update.jmax + 1e-12);
  EXPECT_NEAR(inc.final_analysis.worst_ir_drop,
              full.final_analysis.worst_ir_drop,
              0.05 * full.final_analysis.worst_ir_drop);
}

// The incremental run's final_analysis is certified by a fresh full-path
// solve at the final widths: re-running analyze_ir_drop cold reproduces it
// within tolerance.
TEST(PlannerRegression, FinalAnalysisIsFullPathCertified) {
  grid::GeneratedBenchmark bench = testsupport::make_tiny_benchmark();
  PlannerOptions opts = tiny_options(bench);
  const PlannerResult result = run_conventional_planner(bench.grid, opts);
  ASSERT_TRUE(result.converged);

  const analysis::IrAnalysisResult cold =
      analysis::analyze_ir_drop(bench.grid, opts.solver);
  ASSERT_TRUE(cold.converged);
  EXPECT_NEAR(cold.worst_ir_drop, result.final_analysis.worst_ir_drop,
              1e-6 * result.final_analysis.worst_ir_drop + 1e-12);
}

// Satellite 4: update_worst_region on degenerate inputs — no node drops at
// all, and worst_fraction outside (0, 1] — returns cleanly instead of
// underflowing size_t arithmetic.
TEST(PlannerRegression, WorstRegionSurvivesDegenerateInputs) {
  // Empty grid, empty drop vector, but a violating worst drop on record.
  grid::PowerGrid empty;
  analysis::IrAnalysisResult fake;
  fake.worst_ir_drop = 1.0;
  WidthUpdateOptions wopts;
  wopts.strategy = WidthUpdateStrategy::kWorstRegion;
  wopts.ir_limit = 0.1;
  wopts.jmax = 1.0;
  WidthUpdateState state;
  EXPECT_EQ(update_widths(empty, fake, wopts, state), 0);

  // Out-of-range worst_fraction on a real violating grid: clamped, not UB.
  for (const Real fraction : {-0.5, 0.0, 3.0}) {
    grid::PowerGrid pg = testsupport::make_chain_grid(8, 0.05);
    const analysis::IrAnalysisResult analysis =
        analysis::analyze_ir_drop(pg);
    ASSERT_TRUE(analysis.converged);
    WidthUpdateOptions opts;
    opts.strategy = WidthUpdateStrategy::kWorstRegion;
    opts.ir_limit = analysis.worst_ir_drop * 0.5;  // force a violation
    opts.jmax = 1.0;
    opts.worst_fraction = fraction;
    WidthUpdateState st;
    const Index changed = update_widths(pg, analysis, opts, st);
    EXPECT_GE(changed, 0) << "fraction=" << fraction;
  }
}

// Satellite 3: the direct solver path checks the deadline before paying for
// a factorization.
TEST(PlannerRegression, CholeskyHonorsExpiredDeadline) {
  grid::PowerGrid pg = testsupport::make_chain_grid(16, 0.01);
  analysis::IrAnalysisOptions opts;
  opts.solver = analysis::SolverKind::kCholesky;
  opts.deadline = Deadline::after_seconds(0.0);  // expired on arrival
  const analysis::IrAnalysisResult result = analysis::analyze_ir_drop(pg, opts);
  EXPECT_FALSE(result.converged);
  EXPECT_TRUE(result.solve_report.deadline_expired);
}

// The resident context's strategy accounting: cold build, cache hit on an
// unchanged grid, then a patched solve after a width change — and the stats
// mirror exactly the solves that happened.
TEST(PlannerRegression, ResolveStatsTallyStrategies) {
  grid::PowerGrid pg = testsupport::make_chain_grid(12, 0.02);
  analysis::IncrementalIrSolver solver(pg);
  analysis::IrAnalysisOptions opts;

  const analysis::IrAnalysisResult first = solver.analyze(opts);
  ASSERT_TRUE(first.converged);
  EXPECT_EQ(solver.stats().cold_builds, 1u);
  // The cold build's own solve is a patched-path solve through the fresh
  // factor.
  EXPECT_EQ(solver.stats().patched_solves, 1u);

  const analysis::IrAnalysisResult again = solver.analyze(opts);
  EXPECT_TRUE(again.converged);
  EXPECT_EQ(solver.stats().hits, 1u);
  EXPECT_EQ(again.node_voltage, first.node_voltage);

  pg.set_wire_width(0, pg.branch(0).width * 1.5);
  const analysis::IrAnalysisResult patched = solver.analyze(opts);
  EXPECT_TRUE(patched.converged);
  EXPECT_EQ(solver.stats().patched_solves, 2u);
  EXPECT_EQ(solver.stats().fallbacks, 0u);

  // The incremental answer agrees with a from-scratch solve.
  const analysis::IrAnalysisResult cold = analysis::analyze_ir_drop(pg, opts);
  ASSERT_EQ(patched.node_voltage.size(), cold.node_voltage.size());
  for (std::size_t i = 0; i < cold.node_voltage.size(); ++i) {
    EXPECT_NEAR(patched.node_voltage[i], cold.node_voltage[i], 1e-7);
  }
}

// With τ = 0 the frozen preconditioner is the exact factor of the matrix it
// was built on. After a width edit the patch path still takes the delta, and
// its answer matches a from-scratch solve within the CG tolerance (relative
// to the solution norm, as the CG stopping rule is relative).
TEST(PlannerRegression, ExactFactorPatchPathMatchesFullSolve) {
  grid::PowerGrid pg = testsupport::make_chain_grid(12, 0.02);
  analysis::IncrementalSolveOptions inc;
  inc.preconditioner_drop_tolerance = 0.0;
  analysis::IncrementalIrSolver solver(pg, inc);
  analysis::IrAnalysisOptions opts;

  const analysis::IrAnalysisResult first = solver.analyze(opts);
  ASSERT_TRUE(first.converged);
  const std::uint64_t patched_before = solver.stats().patched_solves;

  pg.set_wire_width(0, pg.branch(0).width * 1.5);
  const analysis::IrAnalysisResult shifted = solver.analyze(opts);
  ASSERT_TRUE(shifted.converged);
  EXPECT_EQ(solver.stats().patched_solves, patched_before + 1);
  EXPECT_EQ(solver.stats().fallbacks, 0u);

  const analysis::IrAnalysisResult cold = analysis::analyze_ir_drop(pg, opts);
  ASSERT_EQ(shifted.node_voltage.size(), cold.node_voltage.size());
  std::vector<Real> diff(cold.node_voltage.size());
  for (std::size_t i = 0; i < diff.size(); ++i) {
    diff[i] = shifted.node_voltage[i] - cold.node_voltage[i];
  }
  EXPECT_LE(linalg::norm2(diff),
            opts.cg_tolerance * linalg::norm2(cold.node_voltage));
}

}  // namespace
}  // namespace ppdl::planner
