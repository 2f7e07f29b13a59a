// E11 — Ablations over design choices called out in DESIGN.md:
//   * width-update strategy (proportional / uniform / worst-region):
//     convergence iterations, wall time, and metal area of the result;
//   * tapered vs raw per-segment sizing: learnability (r²) of the design;
//   * CG preconditioner (none / jacobi / ic0):
//     analysis time.
#include <iostream>
#include <string>

#include "analysis/ir_solver.hpp"
#include "bench_support.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/experiments.hpp"
#include "planner/conventional_planner.hpp"

using namespace ppdl;

namespace {

Real metal_area(const grid::PowerGrid& pg) {
  Real area = 0.0;
  for (Index b = 0; b < pg.branch_count(); ++b) {
    const grid::Branch& br = pg.branch(b);
    if (br.kind == grid::BranchKind::kWire) {
      area += br.length * br.width;
    }
  }
  return area;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_ablation", "design-choice ablations");
  benchsupport::BenchContext ctx;
  if (!benchsupport::parse_common(argc, argv, "Ablations",
                                  "planner & solver design choices", cli, ctx,
                                  /*default_scale=*/0.04)) {
    return 0;
  }

  core::BenchmarkOptions bopts;
  bopts.scale = ctx.scale;
  bopts.seed = ctx.seed;
  const grid::GeneratedBenchmark bench = core::make_benchmark("ibmpg2", bopts);

  // --- 1. width-update strategy ---------------------------------------------
  std::cout << "Ablation 1 — width-update strategy (ibmpg2 replica):\n";
  ConsoleTable strat({"strategy", "converged", "iterations", "time (s)",
                      "metal area (x1e6 um^2)", "worst IR (mV)"});
  for (const planner::WidthUpdateStrategy s :
       {planner::WidthUpdateStrategy::kProportional,
        planner::WidthUpdateStrategy::kUniform,
        planner::WidthUpdateStrategy::kWorstRegion}) {
    grid::PowerGrid pg = bench.grid;
    planner::PlannerOptions opts = core::planner_options_for(bench.spec, 60);
    opts.update.strategy = s;
    const planner::PlannerResult result =
        planner::run_conventional_planner(pg, opts);
    strat.add_row({planner::to_string(s), result.converged ? "yes" : "NO",
                   std::to_string(result.iterations),
                   ConsoleTable::fmt(result.total_seconds, 3),
                   ConsoleTable::fmt(metal_area(pg) / 1e6, 2),
                   ConsoleTable::fmt(
                       result.final_analysis.worst_ir_drop * 1e3, 1)});
  }
  strat.print(std::cout);
  std::cout << "Expected: proportional converges fastest with the least "
               "metal; uniform overdesigns; worst-region needs more "
               "iterations.\n\n";

  // --- 2. tapered vs per-segment sizing: learnability ------------------------
  std::cout << "Ablation 2 — tapered line sizing vs raw per-segment "
               "(combined-feature r²):\n";
  ConsoleTable taper({"sizing", "combined r2"});
  for (const bool per_stripe : {true, false}) {
    grid::PowerGrid pg = bench.grid;
    planner::PlannerOptions opts = core::planner_options_for(bench.spec, 60);
    opts.update.per_stripe = per_stripe;
    planner::run_conventional_planner(pg, opts);
    core::PpdlModelConfig mc;
    mc.hidden_layers = 4;
    mc.hidden_units = 24;
    mc.train.epochs = ctx.epochs;
    const auto rows = core::feature_r2_study(pg, mc);
    Real combined = 0.0;
    for (const core::FeatureR2& r : rows) {
      if (r.label == "Combined") {
        combined = r.r2;
      }
    }
    taper.add_row({per_stripe ? "tapered lines" : "raw per-segment",
                   ConsoleTable::fmt(combined, 3)});
  }
  taper.print(std::cout);
  std::cout << "Expected: tapered-line designs are far more learnable — the "
               "premise behind training on them.\n\n";

  // --- 3. preconditioner -----------------------------------------------------
  std::cout << "Ablation 3 — CG preconditioner on one full analysis:\n";
  ConsoleTable prec({"solver", "CG iterations", "time (ms)"});
  for (const linalg::PreconditionerKind kind :
       {linalg::PreconditionerKind::kNone, linalg::PreconditionerKind::kJacobi,
        linalg::PreconditionerKind::kIc0}) {
    analysis::IrAnalysisOptions opts;
    opts.preconditioner = kind;
    const Timer timer;
    const analysis::IrAnalysisResult res =
        analysis::analyze_ir_drop(bench.grid, opts);
    prec.add_row({std::string("cg (") + linalg::to_string(kind) + ")",
                  std::to_string(res.cg_iterations),
                  ConsoleTable::fmt(timer.millis(), 1)});
  }
  {
    analysis::IrAnalysisOptions opts;
    opts.solver = analysis::SolverKind::kCholesky;
    const Timer timer;
    analysis::analyze_ir_drop(bench.grid, opts);
    prec.add_row({"cholesky (direct, RCM)", "-",
                  ConsoleTable::fmt(timer.millis(), 1)});
  }
  prec.print(std::cout);
  std::cout << "Expected: ic0 needs the fewest CG iterations; the direct "
               "solver is competitive at this size but its envelope grows "
               "super-linearly with the mesh.\n";
  return 0;
}
