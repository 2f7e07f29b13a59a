// Run-report demo: run the end-to-end flow with observability on and emit
// the schema-versioned run report, then print the headline tallies it
// recorded — how many CG solves the run took, whether the solver ladder had
// to escalate, how training behaved, and where the wall time went.
//
// Validate the emitted file with:
//   tools/validate_run_report.py run_report.json
//
// Build & run:  ./examples/run_report_demo [--scale=0.03] [--report=PATH]
#include <iostream>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/obs.hpp"
#include "common/table.hpp"
#include "core/flow.hpp"

using namespace ppdl;

int main(int argc, char** argv) {
  CliParser cli("run_report_demo",
                "emit and summarize a ppdl.run_report JSON document");
  cli.add_flag("scale", "grid scale vs the paper-size spec", "0.03");
  cli.add_flag("report", "where to write the run report", "run_report.json");
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
  options.run_report_path = cli.get("report");
  options.incremental = !cli.get_bool("no-incremental");
  try {
    options.preconditioner =
        linalg::parse_preconditioner(cli.get("preconditioner"));
  } catch (const ContractViolation& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }

  std::cout << "Running the instrumented flow on an ibmpg1 replica "
            << (obs::metrics_enabled() ? "(metrics on)"
                                       : "(PPDL_METRICS=off)")
            << "...\n";
  const core::FlowResult flow = core::run_flow("ibmpg1", options);

  // The report file holds everything; echo the highlights from the same
  // registry the report was built from.
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  const auto counter = [&snap](const char* name) -> Index {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };

  ConsoleTable t({"metric", "value"});
  t.add_row({"CG solves", std::to_string(counter("cg.solves"))});
  t.add_row({"CG iterations (total)",
             std::to_string(counter("cg.iterations"))});
  t.add_row({"solve ladder escalations",
             std::to_string(counter("solve.escalated"))});
  t.add_row({"planner iterations",
             std::to_string(counter("planner.iterations"))});
  t.add_row({"training epochs", std::to_string(counter("train.epochs"))});
  t.add_row({"training rollbacks",
             std::to_string(counter("train.rollbacks"))});
  t.add_row({"width r2 vs conventional",
             ConsoleTable::fmt(flow.width_r2, 3)});
  t.add_row({"flow speedup", ConsoleTable::fmt(flow.speedup(), 1) + "x"});
  t.print(std::cout);

  std::cout << "\nrun report written to " << cli.get("report")
            << " (schema ppdl.run_report v1)\n"
            << "validate with: tools/validate_run_report.py "
            << cli.get("report") << "\n";
  return 0;
}
