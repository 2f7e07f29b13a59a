// Shared hand-built grids with analytically known solutions, used across
// the analysis / planner / core test suites.
#pragma once

#include <string>

#include "analysis/mna.hpp"
#include "core/benchmarks.hpp"
#include "grid/generator.hpp"
#include "grid/power_grid.hpp"

namespace ppdl::testsupport {

/// A single-layer resistive chain:
///
///   pad(Vdd) — w — o — w — o — … — o ←(load I at the far end)
///
/// Each wire has length 100 µm, width 1 µm, ρ = 0.02 Ω/sq → R = 2 Ω.
/// Exact drop at node k (counting from the pad): I · k · R.
inline grid::PowerGrid make_chain_grid(Index nodes, Real load_amps,
                                       Real vdd = 1.8) {
  grid::PowerGrid pg;
  pg.set_name("chain");
  pg.set_vdd(vdd);
  pg.set_die(grid::Rect{0.0, 0.0, 100.0 * static_cast<Real>(nodes), 10.0});
  const Index layer =
      pg.add_layer(grid::Layer{"M1", true, 0.02, 1.0});
  for (Index i = 0; i < nodes; ++i) {
    pg.add_node(grid::Point{100.0 * static_cast<Real>(i), 5.0}, layer);
  }
  for (Index i = 0; i + 1 < nodes; ++i) {
    pg.add_wire(i, i + 1, layer, 100.0, 1.0);
  }
  pg.add_pad(0, vdd);
  pg.add_load(nodes - 1, load_amps);
  return pg;
}

/// Resistance of one chain segment in make_chain_grid.
inline Real chain_segment_resistance() { return 0.02 * 100.0 / 1.0; }

/// A tiny generated benchmark for integration-style tests: a few hundred
/// nodes, calibrated, deterministic.
inline grid::GeneratedBenchmark make_tiny_benchmark(
    Real violation_factor = 2.5) {
  core::BenchmarkOptions opts;
  opts.scale = 0.01;
  opts.seed = 12345;
  opts.initial_violation_factor = violation_factor;
  return core::make_benchmark("ibmpg1", opts);
}

/// Reduced MNA matrix of an uncalibrated IBM-PG replica — a seeded,
/// realistic sparse SPD system for ordering and factorization tests.
inline linalg::CsrMatrix replica_mna_matrix(const std::string& name,
                                            Real scale, U64 seed) {
  core::BenchmarkOptions opts;
  opts.scale = scale;
  opts.seed = seed;
  opts.calibrate = false;
  return analysis::assemble_mna(core::make_benchmark(name, opts).grid)
      .g_reduced;
}

}  // namespace ppdl::testsupport
