// E9 — google-benchmark microbenchmarks of the solver substrate: SpMV, MNA
// assembly, CG per preconditioner, and the Kirchhoff tree predictor. These
// underpin the Table IV cost model (conventional analysis is super-linear,
// tree prediction is ~linear).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <map>

#include "analysis/ir_solver.hpp"
#include "analysis/mna.hpp"
#include "bench_support.hpp"
#include "common/parallel.hpp"
#include "core/benchmarks.hpp"
#include "core/ir_predictor.hpp"
#include "grid/generator.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/ordering.hpp"
#include "linalg/vector_ops.hpp"

using namespace ppdl;

namespace {

/// Cached replica per scale-in-thousandths so setup cost is paid once.
const grid::GeneratedBenchmark& cached_bench(Index scale_milli) {
  static std::map<Index, grid::GeneratedBenchmark> cache;
  const auto it = cache.find(scale_milli);
  if (it != cache.end()) {
    return it->second;
  }
  core::BenchmarkOptions opts;
  opts.scale = static_cast<Real>(scale_milli) / 1000.0;
  opts.seed = 7;
  auto [pos, inserted] =
      cache.emplace(scale_milli, core::make_benchmark("ibmpg2", opts));
  return pos->second;
}

void BM_MnaAssembly(benchmark::State& state) {
  const grid::GeneratedBenchmark& bench = cached_bench(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::assemble_mna(bench.grid));
  }
  state.SetLabel(std::to_string(bench.grid.node_count()) + " nodes");
}
BENCHMARK(BM_MnaAssembly)->Arg(10)->Arg(20)->Arg(40)->Unit(benchmark::kMillisecond);

void BM_SpMV(benchmark::State& state) {
  const grid::GeneratedBenchmark& bench = cached_bench(state.range(0));
  const analysis::MnaSystem sys = analysis::assemble_mna(bench.grid);
  std::vector<Real> x(static_cast<std::size_t>(sys.free_count), 1.0);
  std::vector<Real> y(x.size());
  for (auto _ : state) {
    sys.g_reduced.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * sys.g_reduced.nnz());
}
BENCHMARK(BM_SpMV)->Arg(10)->Arg(20)->Arg(40)->Unit(benchmark::kMicrosecond);

void BM_CgSolve(benchmark::State& state) {
  const grid::GeneratedBenchmark& bench = cached_bench(state.range(0));
  analysis::IrAnalysisOptions opts;
  opts.preconditioner = static_cast<linalg::PreconditionerKind>(state.range(1));
  for (auto _ : state) {
    const analysis::IrAnalysisResult res =
        analysis::analyze_ir_drop(bench.grid, opts);
    benchmark::DoNotOptimize(res.worst_ir_drop);
  }
  state.SetLabel(std::to_string(bench.grid.node_count()) + " nodes");
}
BENCHMARK(BM_CgSolve)
    ->ArgsProduct(
        {{10, 20, 40},
         {static_cast<long>(linalg::PreconditionerKind::kNone),
          static_cast<long>(linalg::PreconditionerKind::kJacobi),
          static_cast<long>(linalg::PreconditionerKind::kIc0)}})
    ->Unit(benchmark::kMillisecond);

void BM_KirchhoffPredict(benchmark::State& state) {
  const grid::GeneratedBenchmark& bench = cached_bench(state.range(0));
  const core::KirchhoffIrPredictor predictor;
  for (auto _ : state) {
    const core::IrPrediction p = predictor.predict(bench.grid);
    benchmark::DoNotOptimize(p.worst_ir_drop);
  }
  state.SetLabel(std::to_string(bench.grid.node_count()) + " nodes");
}
BENCHMARK(BM_KirchhoffPredict)
    ->Arg(10)
    ->Arg(20)
    ->Arg(40)
    ->Unit(benchmark::kMillisecond);

/// Restores the default thread count when a benchmark run ends.
struct ThreadCount {
  explicit ThreadCount(Index threads) { parallel::set_num_threads(threads); }
  ~ThreadCount() { parallel::set_num_threads(0); }
};

/// Nested-dissection ordering of the reduced MNA matrix (the resident
/// solver's cold build), args: scale in thousandths, threads.
void BM_NdOrdering(benchmark::State& state) {
  const grid::GeneratedBenchmark& bench = cached_bench(state.range(0));
  const analysis::MnaSystem sys = analysis::assemble_mna(bench.grid);
  const ThreadCount threads(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::nd_ordering(sys.g_reduced));
  }
  state.SetLabel(std::to_string(sys.free_count) + " unknowns");
}
BENCHMARK(BM_NdOrdering)
    ->ArgsProduct({{40, 100, 200}, {1, 2}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Drop-tolerance (τ = 1e-3) sparse Cholesky of the ND-permuted reduced
/// MNA matrix — the frozen preconditioner's build; args as BM_NdOrdering.
void BM_SparseCholeskyFactor(benchmark::State& state) {
  const grid::GeneratedBenchmark& bench = cached_bench(state.range(0));
  const analysis::MnaSystem sys = analysis::assemble_mna(bench.grid);
  const std::vector<Index> perm = linalg::nd_ordering(sys.g_reduced);
  const ThreadCount threads(state.range(1));
  Index nnz = 0;
  for (auto _ : state) {
    const linalg::SparseCholesky chol(sys.g_reduced, perm, 1e-3);
    nnz = chol.factor_nnz();
  }
  state.SetLabel(std::to_string(sys.free_count) + " unknowns, nnz(L) " +
                 std::to_string(nnz));
}
BENCHMARK(BM_SparseCholeskyFactor)
    ->ArgsProduct({{40, 100, 200}, {1, 2}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Thread-scaling trajectory over the parallel solver hot paths →
/// BENCH_solvers.json (or --json=PATH). Scale via PPDL_BENCH_SCALE
/// (thousandths of the paper-size spec, default 40 → ~5300 nodes). One
/// `cg_solve_<kind>` row family per preconditioner, so the scaling story of
/// every kind is versioned alongside the code.
void emit_thread_scaling_json(const std::string& json_path) {
  Index scale_milli = 40;
  if (const char* env = std::getenv("PPDL_BENCH_SCALE")) {
    scale_milli = std::atol(env);
  }
  const grid::GeneratedBenchmark& bench = cached_bench(scale_milli);
  const analysis::MnaSystem sys = analysis::assemble_mna(bench.grid);
  const Index nodes = bench.grid.node_count();
  std::vector<benchsupport::ThreadBenchRecord> records;

  std::vector<Real> x(static_cast<std::size_t>(sys.free_count), 1.0);
  std::vector<Real> y(x.size());
  benchsupport::sweep_threads(
      "spmv", nodes, [&] { sys.g_reduced.multiply(x, y); }, records);
  benchsupport::sweep_threads(
      "dot", nodes, [&] { benchmark::DoNotOptimize(linalg::dot(x, x)); },
      records);
  for (const linalg::PreconditionerKind kind :
       {linalg::PreconditionerKind::kNone, linalg::PreconditionerKind::kJacobi,
        linalg::PreconditionerKind::kIc0}) {
    analysis::IrAnalysisOptions opts;
    opts.preconditioner = kind;
    // Measure the kind itself, not the ladder's recovery from it.
    opts.escalate_on_failure = false;
    benchsupport::sweep_threads(
        std::string("cg_solve_") + linalg::to_string(kind), nodes,
        [&] {
          const analysis::IrAnalysisResult res =
              analysis::analyze_ir_drop(bench.grid, opts);
          benchmark::DoNotOptimize(res.worst_ir_drop);
        },
        records);
  }

  benchsupport::write_bench_json(json_path, records);
}

}  // namespace

int main(int argc, char** argv) {
  // Project flags (stripped before google-benchmark sees the argv —
  // ReportUnrecognizedArguments would reject them):
  //   --json=PATH    run the thread sweep and write its records to PATH
  //   --sweep-only   run the thread sweep only (to --json=PATH, default
  //                  BENCH_solvers.json) and skip the google-benchmark suite
  //                  (CI perf-smoke / schema gate entry point)
  // Without either flag no sweep runs, so a plain or filtered run never
  // overwrites the checked-in BENCH_solvers.json.
  std::string json_path;
  bool sweep_only = false;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--sweep-only") {
      sweep_only = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             passthrough.data())) {
    return 1;
  }
  if (sweep_only || !json_path.empty()) {
    emit_thread_scaling_json(json_path.empty() ? "BENCH_solvers.json"
                                               : json_path);
  }
  if (!sweep_only) {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return 0;
}
