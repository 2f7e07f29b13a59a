// Quickstart: the whole PowerPlanningDL story in one small program.
//
//   1. Generate an IBM-PG-style benchmark grid (ibmpg1 replica).
//   2. Run the conventional planner once to get a golden design
//      ("historical data").
//   3. Train the DL width predictor and calibrate the fast IR predictor.
//   4. Perturb the specification by γ = 10% (a new, similar design).
//   5. Predict the new design's widths and IR drop — no solver in the loop —
//      and compare against a conventional redesign.
//
// Build & run:  ./examples/quickstart [--scale=0.05]
#include <iostream>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/flow.hpp"

using namespace ppdl;

int main(int argc, char** argv) {
  CliParser cli("quickstart", "end-to-end PowerPlanningDL walkthrough");
  cli.add_flag("scale", "grid scale vs the paper-size spec", "0.05");
  cli.add_flag("gamma", "perturbation size (fraction)", "0.10");
  cli.add_flag("preconditioner", "CG preconditioner: none|jacobi|ic0", "ic0");
  cli.add_switch("no-incremental",
                 "disable the incremental planner re-solve context");
  try {
    cli.parse(argc, argv);
  } catch (const CliError& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  if (cli.help_requested()) {
    return 0;
  }

  core::FlowOptions options;
  options.benchmark.scale = cli.get_real("scale");
  options.gamma = cli.get_real("gamma");
  options.incremental = !cli.get_bool("no-incremental");
  try {
    options.preconditioner =
        linalg::parse_preconditioner(cli.get("preconditioner"));
  } catch (const ContractViolation& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }

  std::cout << "Running the PowerPlanningDL flow on an ibmpg1 replica...\n";
  const core::FlowResult flow = core::run_flow("ibmpg1", options);

  std::cout << "\ngrid: " << flow.nodes << " nodes, " << flow.interconnects
            << " PG interconnects\n";
  std::cout << "golden design: "
            << (flow.golden_planner.converged ? "converged" : "STUCK")
            << " after " << flow.golden_planner.iterations
            << " planner iterations\n";
  std::cout << "model training: "
            << ConsoleTable::fmt(flow.training.train_seconds, 2)
            << " s offline across " << flow.training.layers.size()
            << " layer sub-models\n\n";

  ConsoleTable t({"path", "time (s)", "worst IR drop (mV)"});
  t.add_row({"conventional redesign (1 design iteration)",
             ConsoleTable::fmt(flow.conventional_seconds, 4),
             ConsoleTable::fmt(flow.worst_ir_conventional * 1e3, 1)});
  t.add_row({"PowerPlanningDL (width + IR prediction)",
             ConsoleTable::fmt(flow.dl_seconds, 4),
             ConsoleTable::fmt(flow.worst_ir_dl * 1e3, 1)});
  t.print(std::cout);

  std::cout << "\nwidth prediction: r2 = " << ConsoleTable::fmt(flow.width_r2, 3)
            << ", MSE = " << ConsoleTable::fmt(flow.width_mse, 4)
            << " um^2 vs the conventional redesign\n";
  std::cout << "speedup: " << ConsoleTable::fmt(flow.speedup(), 2)
            << "x (single design iteration), "
            << ConsoleTable::fmt(flow.full_speedup(), 2)
            << "x (full redesign loop)\n";
  return 0;
}
