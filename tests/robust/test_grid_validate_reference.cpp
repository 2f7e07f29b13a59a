// Differential test of grid validation: validate_grid() and repaired_copy()
// must reproduce, defect for defect and repair for repair, the original
// map-based implementation kept below as the reference (std::map for
// duplicate-pair and pad bookkeeping, vector-of-vectors adjacency for the
// pad-reachability BFS).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <queue>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "grid/validate.hpp"
#include "support/fixtures.hpp"

namespace ppdl::grid {
namespace {

// ---------------------------------------------------------------------------
// Reference implementation (map-based).

void ref_add_defect(GridValidationReport& report, GridDefect defect) {
  switch (defect.severity) {
    case DefectSeverity::kFatal:
      ++report.fatal_count;
      break;
    case DefectSeverity::kRepairable:
      ++report.repairable_count;
      break;
    case DefectSeverity::kWarning:
      ++report.warning_count;
      break;
  }
  report.defects.push_back(std::move(defect));
}

std::vector<bool> ref_reachable_from_pads(const PowerGrid& pg) {
  std::vector<std::vector<Index>> adj(
      static_cast<std::size_t>(pg.node_count()));
  for (const Branch& b : pg.branches()) {
    adj[static_cast<std::size_t>(b.n1)].push_back(b.n2);
    adj[static_cast<std::size_t>(b.n2)].push_back(b.n1);
  }
  std::vector<bool> reach(static_cast<std::size_t>(pg.node_count()), false);
  std::queue<Index> queue;
  for (const Pad& pad : pg.pads()) {
    if (!reach[static_cast<std::size_t>(pad.node)]) {
      reach[static_cast<std::size_t>(pad.node)] = true;
      queue.push(pad.node);
    }
  }
  while (!queue.empty()) {
    const Index v = queue.front();
    queue.pop();
    for (const Index u : adj[static_cast<std::size_t>(v)]) {
      if (!reach[static_cast<std::size_t>(u)]) {
        reach[static_cast<std::size_t>(u)] = true;
        queue.push(u);
      }
    }
  }
  return reach;
}

GridValidationReport ref_validate_grid(const PowerGrid& pg) {
  GridValidationReport report;
  if (pg.layer_count() == 0) {
    ref_add_defect(report, {GridDefectKind::kNoLayers, DefectSeverity::kFatal,
                            -1, -1, "grid has no metal layers"});
  }
  if (pg.node_count() == 0) {
    ref_add_defect(report, {GridDefectKind::kNoNodes, DefectSeverity::kFatal,
                            -1, -1, "grid has no nodes"});
    return report;
  }
  if (pg.pad_count() == 0) {
    ref_add_defect(report, {GridDefectKind::kNoPads, DefectSeverity::kFatal,
                            -1, -1, "no supply pad pins any voltage"});
  }
  {
    std::map<Index, Real> pinned;
    for (std::size_t p = 0; p < pg.pads().size(); ++p) {
      const Pad& pad = pg.pads()[p];
      const auto [it, inserted] = pinned.emplace(pad.node, pad.voltage);
      if (!inserted && std::abs(it->second - pad.voltage) > 1e-12) {
        std::ostringstream os;
        os << it->second << " V vs " << pad.voltage << " V";
        ref_add_defect(report,
                       {GridDefectKind::kConflictingPadVoltages,
                        DefectSeverity::kFatal, pad.node, -1, os.str()});
      }
    }
  }
  std::map<std::pair<Index, Index>, Index> first_branch_of_pair;
  for (Index bi = 0; bi < pg.branch_count(); ++bi) {
    const Branch& b = pg.branch(bi);
    const Real resistance = pg.branch_resistance(bi);
    if (!std::isfinite(resistance) || resistance <= 0.0) {
      std::ostringstream os;
      os << "resistance " << resistance << " ohm";
      ref_add_defect(report,
                     {GridDefectKind::kNonPositiveConductance,
                      DefectSeverity::kFatal, -1, bi, os.str()});
    }
    const std::pair<Index, Index> key{std::min(b.n1, b.n2),
                                      std::max(b.n1, b.n2)};
    const auto [it, inserted] = first_branch_of_pair.emplace(key, bi);
    if (!inserted) {
      std::ostringstream os;
      os << "parallel with branch " << it->second;
      ref_add_defect(report,
                     {GridDefectKind::kDuplicateBranch,
                      DefectSeverity::kWarning, -1, bi, os.str()});
    }
  }
  std::vector<bool> has_load(static_cast<std::size_t>(pg.node_count()),
                             false);
  for (const CurrentLoad& load : pg.loads()) {
    has_load[static_cast<std::size_t>(load.node)] = true;
    if (!std::isfinite(load.amps)) {
      ref_add_defect(report,
                     {GridDefectKind::kNonFiniteLoad, DefectSeverity::kFatal,
                      load.node, -1, "load current is NaN/Inf"});
    }
  }
  std::vector<Index> degree(static_cast<std::size_t>(pg.node_count()), 0);
  for (const Branch& b : pg.branches()) {
    ++degree[static_cast<std::size_t>(b.n1)];
    ++degree[static_cast<std::size_t>(b.n2)];
  }
  const std::vector<bool> reach = ref_reachable_from_pads(pg);
  for (Index v = 0; v < pg.node_count(); ++v) {
    const auto vu = static_cast<std::size_t>(v);
    if (reach[vu]) {
      continue;
    }
    if (has_load[vu]) {
      ref_add_defect(
          report, {GridDefectKind::kUnreachableLoad, DefectSeverity::kFatal, v,
                   -1, "load has no path to any pad — MNA system is singular"});
    } else if (degree[vu] == 0) {
      ref_add_defect(report, {GridDefectKind::kIsolatedNode,
                              DefectSeverity::kRepairable, v, -1,
                              "node has no branches (zero conductance row)"});
    } else {
      ref_add_defect(report, {GridDefectKind::kUnreachableNode,
                              DefectSeverity::kRepairable, v, -1,
                              "connected component contains no pad"});
    }
  }
  for (const Pad& pad : pg.pads()) {
    if (degree[static_cast<std::size_t>(pad.node)] == 0) {
      ref_add_defect(report,
                     {GridDefectKind::kDanglingPad, DefectSeverity::kWarning,
                      pad.node, -1, "supply pad bonded to a branchless node"});
    }
  }
  return report;
}

PowerGrid ref_repaired_copy(const PowerGrid& pg,
                            std::vector<std::string>* actions) {
  const auto note = [&](const std::string& line) {
    if (actions != nullptr) {
      actions->push_back(line);
    }
  };
  const std::vector<bool> reach = ref_reachable_from_pads(pg);
  std::vector<bool> has_load(static_cast<std::size_t>(pg.node_count()),
                             false);
  for (const CurrentLoad& load : pg.loads()) {
    has_load[static_cast<std::size_t>(load.node)] = true;
  }
  std::vector<Index> new_id(static_cast<std::size_t>(pg.node_count()), -1);
  PowerGrid out;
  out.set_name(pg.name());
  out.set_vdd(pg.vdd());
  out.set_die(pg.die());
  for (const Layer& layer : pg.layers()) {
    out.add_layer(layer);
  }
  for (Index v = 0; v < pg.node_count(); ++v) {
    const auto vu = static_cast<std::size_t>(v);
    if (reach[vu] || has_load[vu]) {
      new_id[vu] = out.add_node(pg.node(v).pos, pg.node(v).layer);
    } else {
      std::ostringstream os;
      os << "dropped unreachable load-free node " << v;
      note(os.str());
    }
  }
  std::map<std::pair<Index, Index>, Real> pair_conductance;
  std::map<std::pair<Index, Index>, Index> pair_first;
  for (Index bi = 0; bi < pg.branch_count(); ++bi) {
    const Branch& b = pg.branch(bi);
    const std::pair<Index, Index> key{std::min(b.n1, b.n2),
                                      std::max(b.n1, b.n2)};
    pair_conductance[key] += 1.0 / pg.branch_resistance(bi);
    const auto [it, inserted] = pair_first.emplace(key, bi);
    if (!inserted) {
      std::ostringstream os;
      os << "merged duplicate branch " << bi << " into branch " << it->second
         << " (parallel conductance)";
      note(os.str());
    }
  }
  for (const auto& [key, first_bi] : pair_first) {
    const Branch& b = pg.branch(first_bi);
    const Index n1 = new_id[static_cast<std::size_t>(b.n1)];
    const Index n2 = new_id[static_cast<std::size_t>(b.n2)];
    if (n1 < 0 || n2 < 0) {
      continue;
    }
    const Real merged_resistance = 1.0 / pair_conductance[key];
    if (b.kind == BranchKind::kWire) {
      const Real rho = pg.layer(b.layer).sheet_rho;
      out.add_wire(n1, n2, b.layer, b.length,
                   rho * b.length / merged_resistance);
    } else {
      out.add_via(n1, n2, b.layer, merged_resistance);
    }
  }
  for (const CurrentLoad& load : pg.loads()) {
    out.add_load(new_id[static_cast<std::size_t>(load.node)], load.amps);
  }
  for (const Pad& pad : pg.pads()) {
    out.add_pad(new_id[static_cast<std::size_t>(pad.node)], pad.voltage);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Seeded defective grids.

/// A random two-layer grid seeded with every defect validate_grid knows:
/// duplicate wires and vias in both orientations, zero-resistance wires,
/// opened vias, non-finite loads, pads with equal and conflicting voltages
/// on one node, dangling pads, isolated and loaded isolated nodes, and
/// padless islands with and without loads.
PowerGrid random_defective_grid(U64 seed) {
  Rng rng(seed);
  PowerGrid pg;
  pg.set_name("random");
  pg.set_vdd(1.8);
  pg.set_die(Rect{0.0, 0.0, 100.0, 100.0});
  pg.add_layer(Layer{"M1", true, 0.02, 1.0});
  pg.add_layer(Layer{"M2", false, 0.01, 2.0});
  const Index nodes = rng.uniform_int(40, 160);
  for (Index v = 0; v < nodes; ++v) {
    pg.add_node(Point{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)},
                rng.uniform_int(0, 1));
  }
  // Only the first `wired` nodes get branches: the rest stay isolated or
  // form padless islands below.
  const Index wired = nodes - rng.uniform_int(3, 10);
  const auto random_pair = [&](Index lo, Index hi) {
    const Index a = rng.uniform_int(lo, hi - 1);
    Index b = rng.uniform_int(lo, hi - 2);
    if (b >= a) {
      ++b;
    }
    return std::pair<Index, Index>{a, b};
  };
  const Index wires = rng.uniform_int(wired, 3 * wired);
  for (Index k = 0; k < wires; ++k) {
    const auto [a, b] = random_pair(0, wired);
    if (rng.uniform() < 0.8) {
      pg.add_wire(a, b, rng.uniform_int(0, 1), rng.uniform(1.0, 10.0),
                  rng.uniform(0.5, 2.0));
    } else {
      pg.add_via(a, b, 1, rng.uniform(0.1, 1.0));
    }
  }
  // Duplicates of earlier branches, same and swapped orientation.
  const Index dups = rng.uniform_int(1, 12);
  for (Index k = 0; k < dups; ++k) {
    const Branch b = pg.branch(rng.uniform_int(0, pg.branch_count() - 1));
    const bool swap = rng.uniform() < 0.5;
    const Index n1 = swap ? b.n2 : b.n1;
    const Index n2 = swap ? b.n1 : b.n2;
    if (b.kind == BranchKind::kWire) {
      pg.add_wire(n1, n2, b.layer, b.length, rng.uniform(0.5, 2.0));
    } else {
      pg.add_via(n1, n2, b.layer, rng.uniform(0.1, 1.0));
    }
  }
  // A padless island among the unwired nodes, sometimes carrying a load.
  if (nodes - wired >= 4) {
    pg.add_wire(wired, wired + 1, 0, 1.0, 1.0);
    pg.add_wire(wired + 1, wired + 2, 0, 1.0, 1.0);
    pg.add_wire(wired + 2, wired, 0, 1.0, 1.0);
    if (rng.uniform() < 0.5) {
      pg.add_load(wired + 1, rng.uniform(1e-4, 1e-2));
    }
  }
  // Zero-resistance wires (infinite width) and opened vias.
  for (Index bi = 0; bi < pg.branch_count(); ++bi) {
    const Real u = rng.uniform();
    if (u < 0.01 && pg.branch(bi).kind == BranchKind::kWire) {
      pg.set_wire_width(bi, std::numeric_limits<Real>::infinity());
    } else if (u < 0.03 && pg.branch(bi).kind == BranchKind::kVia) {
      pg.set_via_resistance(bi, std::numeric_limits<Real>::infinity());
    }
  }
  // Loads: mostly finite, some infinite, one on an isolated node.
  const Index loads = rng.uniform_int(5, 30);
  for (Index k = 0; k < loads; ++k) {
    const Index node = rng.uniform_int(0, wired - 1);
    pg.add_load(node, rng.uniform() < 0.1
                          ? std::numeric_limits<Real>::infinity()
                          : rng.uniform(1e-4, 1e-2));
  }
  if (rng.uniform() < 0.5) {
    pg.add_load(nodes - 1, 1e-3);
  }
  // Pads: one to four, a repeat with the same voltage, a conflicting one,
  // and sometimes a dangling one on an isolated node.
  const Index pads = rng.uniform_int(0, 4);
  for (Index k = 0; k < pads; ++k) {
    pg.add_pad(rng.uniform_int(0, wired - 1), 1.8);
  }
  if (pads > 0) {
    const Index node = pg.pads().front().node;
    pg.add_pad(node, 1.8);
    if (rng.uniform() < 0.7) {
      pg.add_pad(node, rng.uniform(1.0, 1.7));
    }
    if (rng.uniform() < 0.5) {
      pg.add_pad(nodes - 2, 1.8);
    }
  }
  return pg;
}

void expect_same_report(const GridValidationReport& got,
                        const GridValidationReport& want,
                        const std::string& what) {
  ASSERT_EQ(got.defects.size(), want.defects.size()) << what;
  for (std::size_t k = 0; k < want.defects.size(); ++k) {
    const GridDefect& g = got.defects[k];
    const GridDefect& w = want.defects[k];
    EXPECT_EQ(g.kind, w.kind) << what << " defect " << k;
    EXPECT_EQ(g.severity, w.severity) << what << " defect " << k;
    EXPECT_EQ(g.node, w.node) << what << " defect " << k;
    EXPECT_EQ(g.branch, w.branch) << what << " defect " << k;
    EXPECT_EQ(g.detail, w.detail) << what << " defect " << k;
  }
  EXPECT_EQ(got.fatal_count, want.fatal_count) << what;
  EXPECT_EQ(got.repairable_count, want.repairable_count) << what;
  EXPECT_EQ(got.warning_count, want.warning_count) << what;
  EXPECT_EQ(got.summary(), want.summary()) << what;
}

bool same_bits(Real a, Real b) {
  return std::bit_cast<U64>(a) == std::bit_cast<U64>(b);
}

void expect_same_grid(const PowerGrid& got, const PowerGrid& want,
                      const std::string& what) {
  ASSERT_EQ(got.node_count(), want.node_count()) << what;
  ASSERT_EQ(got.branch_count(), want.branch_count()) << what;
  ASSERT_EQ(got.load_count(), want.load_count()) << what;
  ASSERT_EQ(got.pad_count(), want.pad_count()) << what;
  EXPECT_EQ(got.layer_count(), want.layer_count()) << what;
  for (Index v = 0; v < want.node_count(); ++v) {
    EXPECT_TRUE(same_bits(got.node(v).pos.x, want.node(v).pos.x)) << what;
    EXPECT_TRUE(same_bits(got.node(v).pos.y, want.node(v).pos.y)) << what;
    EXPECT_EQ(got.node(v).layer, want.node(v).layer) << what;
  }
  for (Index bi = 0; bi < want.branch_count(); ++bi) {
    const Branch& g = got.branch(bi);
    const Branch& w = want.branch(bi);
    EXPECT_EQ(g.n1, w.n1) << what << " branch " << bi;
    EXPECT_EQ(g.n2, w.n2) << what << " branch " << bi;
    EXPECT_EQ(g.kind, w.kind) << what << " branch " << bi;
    EXPECT_EQ(g.layer, w.layer) << what << " branch " << bi;
    EXPECT_TRUE(same_bits(g.length, w.length)) << what << " branch " << bi;
    EXPECT_TRUE(same_bits(g.width, w.width)) << what << " branch " << bi;
    EXPECT_TRUE(same_bits(g.via_resistance, w.via_resistance))
        << what << " branch " << bi;
  }
  for (Index k = 0; k < want.load_count(); ++k) {
    EXPECT_EQ(got.loads()[static_cast<std::size_t>(k)].node,
              want.loads()[static_cast<std::size_t>(k)].node)
        << what;
    EXPECT_TRUE(same_bits(got.loads()[static_cast<std::size_t>(k)].amps,
                          want.loads()[static_cast<std::size_t>(k)].amps))
        << what;
  }
  for (Index k = 0; k < want.pad_count(); ++k) {
    EXPECT_EQ(got.pads()[static_cast<std::size_t>(k)].node,
              want.pads()[static_cast<std::size_t>(k)].node)
        << what;
    EXPECT_TRUE(same_bits(got.pads()[static_cast<std::size_t>(k)].voltage,
                          want.pads()[static_cast<std::size_t>(k)].voltage))
        << what;
  }
}

/// validate_grid and repaired_copy against the reference on one grid;
/// a repair the reference refuses (ContractViolation) must be refused too.
void expect_matches_reference(const PowerGrid& pg, const std::string& what) {
  expect_same_report(validate_grid(pg), ref_validate_grid(pg), what);
  std::vector<std::string> want_actions;
  PowerGrid want;
  try {
    want = ref_repaired_copy(pg, &want_actions);
  } catch (const ContractViolation&) {
    EXPECT_THROW(repaired_copy(pg), ContractViolation) << what;
    return;
  }
  std::vector<std::string> got_actions;
  const PowerGrid got = repaired_copy(pg, &got_actions);
  EXPECT_EQ(got_actions, want_actions) << what;
  expect_same_grid(got, want, what);
}

TEST(GridValidate, MatchesMapBasedReferenceOnSeededDefectiveGrids) {
  Index kinds_seen[11] = {};
  for (U64 seed = 1; seed <= 200; ++seed) {
    const PowerGrid pg = random_defective_grid(seed);
    expect_matches_reference(pg, "seed " + std::to_string(seed));
    for (const GridDefect& d : validate_grid(pg).defects) {
      ++kinds_seen[static_cast<int>(d.kind)];
    }
  }
  // Every kind the random grids can carry was actually exercised (no
  // layers / no nodes need an empty grid: see the next test).
  for (const GridDefectKind kind :
       {GridDefectKind::kNoPads, GridDefectKind::kConflictingPadVoltages,
        GridDefectKind::kNonPositiveConductance,
        GridDefectKind::kIsolatedNode, GridDefectKind::kUnreachableNode,
        GridDefectKind::kUnreachableLoad, GridDefectKind::kDuplicateBranch,
        GridDefectKind::kNonFiniteLoad, GridDefectKind::kDanglingPad}) {
    EXPECT_GT(kinds_seen[static_cast<int>(kind)], 0) << to_string(kind);
  }
}

TEST(GridValidate, MatchesMapBasedReferenceOnEdgeGrids) {
  expect_same_report(validate_grid(PowerGrid{}), ref_validate_grid(PowerGrid{}),
                     "empty grid");
  PowerGrid layers_only;
  layers_only.add_layer(Layer{"M1", true, 0.02, 1.0});
  expect_matches_reference(layers_only, "layers only");
  expect_matches_reference(testsupport::make_chain_grid(16, 0.01), "chain");
  expect_matches_reference(testsupport::make_tiny_benchmark().grid,
                           "tiny benchmark");
}

}  // namespace
}  // namespace ppdl::grid
