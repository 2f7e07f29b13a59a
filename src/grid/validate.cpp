#include "grid/validate.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/check.hpp"

namespace ppdl::grid {

namespace {

void add_defect(GridValidationReport& report, GridDefect defect) {
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

/// Node → incident-branch adjacency in CSR form: node v's branches are
/// entries [ptr[v], ptr[v+1]), in ascending branch order, each with the
/// node at its other end. Built in O(nodes + branches) with one counting
/// pass, no per-node allocation.
struct BranchAdjacency {
  std::vector<Index> ptr;
  std::vector<Index> nbr;
  std::vector<Index> branch;

  Index degree(Index v) const {
    return ptr[static_cast<std::size_t>(v) + 1] -
           ptr[static_cast<std::size_t>(v)];
  }
};

BranchAdjacency build_adjacency(const PowerGrid& pg) {
  const auto n = static_cast<std::size_t>(pg.node_count());
  BranchAdjacency adj;
  adj.ptr.assign(n + 1, 0);
  for (const Branch& b : pg.branches()) {
    ++adj.ptr[static_cast<std::size_t>(b.n1) + 1];
    ++adj.ptr[static_cast<std::size_t>(b.n2) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) {
    adj.ptr[v + 1] += adj.ptr[v];
  }
  adj.nbr.resize(static_cast<std::size_t>(adj.ptr[n]));
  adj.branch.resize(adj.nbr.size());
  std::vector<Index> cursor(adj.ptr.begin(), adj.ptr.end() - 1);
  for (Index bi = 0; bi < pg.branch_count(); ++bi) {
    const Branch& b = pg.branch(bi);
    const auto k1 =
        static_cast<std::size_t>(cursor[static_cast<std::size_t>(b.n1)]++);
    adj.nbr[k1] = b.n2;
    adj.branch[k1] = bi;
    const auto k2 =
        static_cast<std::size_t>(cursor[static_cast<std::size_t>(b.n2)]++);
    adj.nbr[k2] = b.n1;
    adj.branch[k2] = bi;
  }
  return adj;
}

/// first[bi] = the lowest-numbered branch joining the same unordered node
/// pair as branch bi (bi itself unless bi is a duplicate). Each pair is
/// scanned from its smaller endpoint; a per-node stamp remembers the first
/// branch met towards each neighbour, and adjacency lists are in branch
/// order, so "first met" is "lowest index".
std::vector<Index> first_branch_of_pair(const PowerGrid& pg,
                                        const BranchAdjacency& adj) {
  const auto n = static_cast<std::size_t>(pg.node_count());
  std::vector<Index> first(static_cast<std::size_t>(pg.branch_count()));
  std::vector<Index> seen_from(n, -1);
  std::vector<Index> seen_branch(n, -1);
  for (Index v = 0; v < pg.node_count(); ++v) {
    for (Index k = adj.ptr[static_cast<std::size_t>(v)];
         k < adj.ptr[static_cast<std::size_t>(v) + 1]; ++k) {
      const Index u = adj.nbr[static_cast<std::size_t>(k)];
      const Index bi = adj.branch[static_cast<std::size_t>(k)];
      if (u < v) {
        continue;  // scanned from the smaller endpoint
      }
      const auto uu = static_cast<std::size_t>(u);
      if (seen_from[uu] != v) {
        seen_from[uu] = v;
        seen_branch[uu] = bi;
      }
      first[static_cast<std::size_t>(bi)] = seen_branch[uu];
    }
  }
  return first;
}

/// Pad-reachability BFS over the branch graph.
std::vector<bool> reachable_from_pads(const PowerGrid& pg,
                                      const BranchAdjacency& adj) {
  std::vector<bool> reach(static_cast<std::size_t>(pg.node_count()), false);
  std::vector<Index> queue;
  queue.reserve(static_cast<std::size_t>(pg.node_count()));
  for (const Pad& pad : pg.pads()) {
    if (!reach[static_cast<std::size_t>(pad.node)]) {
      reach[static_cast<std::size_t>(pad.node)] = true;
      queue.push_back(pad.node);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Index v = queue[head];
    for (Index k = adj.ptr[static_cast<std::size_t>(v)];
         k < adj.ptr[static_cast<std::size_t>(v) + 1]; ++k) {
      const Index u = adj.nbr[static_cast<std::size_t>(k)];
      if (!reach[static_cast<std::size_t>(u)]) {
        reach[static_cast<std::size_t>(u)] = true;
        queue.push_back(u);
      }
    }
  }
  return reach;
}

}  // namespace

std::string to_string(GridDefectKind kind) {
  switch (kind) {
    case GridDefectKind::kNoLayers:
      return "no-layers";
    case GridDefectKind::kNoNodes:
      return "no-nodes";
    case GridDefectKind::kNoPads:
      return "no-pads";
    case GridDefectKind::kConflictingPadVoltages:
      return "conflicting-pad-voltages";
    case GridDefectKind::kNonPositiveConductance:
      return "non-positive-conductance";
    case GridDefectKind::kIsolatedNode:
      return "isolated-node";
    case GridDefectKind::kUnreachableNode:
      return "unreachable-node";
    case GridDefectKind::kUnreachableLoad:
      return "unreachable-load";
    case GridDefectKind::kDuplicateBranch:
      return "duplicate-branch";
    case GridDefectKind::kNonFiniteLoad:
      return "non-finite-load";
    case GridDefectKind::kDanglingPad:
      return "dangling-pad";
  }
  return "?";
}

std::string to_string(DefectSeverity severity) {
  switch (severity) {
    case DefectSeverity::kWarning:
      return "warning";
    case DefectSeverity::kRepairable:
      return "repairable";
    case DefectSeverity::kFatal:
      return "fatal";
  }
  return "?";
}

std::string GridValidationReport::summary() const {
  std::ostringstream os;
  os << defects.size() << " defect" << (defects.size() == 1 ? "" : "s")
     << " (" << fatal_count << " fatal, " << repairable_count
     << " repairable, " << warning_count << " warning)";
  for (const GridDefect& d : defects) {
    os << "; " << to_string(d.kind);
    if (d.node >= 0) {
      os << " node " << d.node;
    }
    if (d.branch >= 0) {
      os << " branch " << d.branch;
    }
    if (!d.detail.empty()) {
      os << " (" << d.detail << ')';
    }
  }
  return os.str();
}

GridValidationReport validate_grid(const PowerGrid& pg) {
  GridValidationReport report;

  if (pg.layer_count() == 0) {
    add_defect(report, {GridDefectKind::kNoLayers, DefectSeverity::kFatal, -1,
                        -1, "grid has no metal layers"});
  }
  if (pg.node_count() == 0) {
    add_defect(report, {GridDefectKind::kNoNodes, DefectSeverity::kFatal, -1,
                        -1, "grid has no nodes"});
    return report;  // nothing else is checkable
  }
  if (pg.pad_count() == 0) {
    add_defect(report, {GridDefectKind::kNoPads, DefectSeverity::kFatal, -1,
                        -1, "no supply pad pins any voltage"});
  }

  // Conflicting pad voltages on a shared node (each pad is compared with
  // the first pad bonded to its node).
  {
    std::vector<Index> first_pad(static_cast<std::size_t>(pg.node_count()),
                                 -1);
    for (std::size_t p = 0; p < pg.pads().size(); ++p) {
      const Pad& pad = pg.pads()[p];
      Index& first = first_pad[static_cast<std::size_t>(pad.node)];
      if (first < 0) {
        first = static_cast<Index>(p);
        continue;
      }
      const Real pinned = pg.pads()[static_cast<std::size_t>(first)].voltage;
      if (std::abs(pinned - pad.voltage) > 1e-12) {
        std::ostringstream os;
        os << pinned << " V vs " << pad.voltage << " V";
        add_defect(report,
                   {GridDefectKind::kConflictingPadVoltages,
                    DefectSeverity::kFatal, pad.node, -1, os.str()});
      }
    }
  }

  // Branch conductances and duplicate detection, in branch order.
  const BranchAdjacency adj = build_adjacency(pg);
  const std::vector<Index> first_of_pair = first_branch_of_pair(pg, adj);
  for (Index bi = 0; bi < pg.branch_count(); ++bi) {
    const Real resistance = pg.branch_resistance(bi);
    if (!std::isfinite(resistance) || resistance <= 0.0) {
      std::ostringstream os;
      os << "resistance " << resistance << " ohm";
      add_defect(report,
                 {GridDefectKind::kNonPositiveConductance,
                  DefectSeverity::kFatal, -1, bi, os.str()});
    }
    const Index first = first_of_pair[static_cast<std::size_t>(bi)];
    if (first != bi) {
      std::ostringstream os;
      os << "parallel with branch " << first;
      add_defect(report,
                 {GridDefectKind::kDuplicateBranch, DefectSeverity::kWarning,
                  -1, bi, os.str()});
    }
  }

  // Per-node load totals and finiteness.
  std::vector<bool> has_load(static_cast<std::size_t>(pg.node_count()),
                             false);
  for (std::size_t li = 0; li < pg.loads().size(); ++li) {
    const CurrentLoad& load = pg.loads()[li];
    has_load[static_cast<std::size_t>(load.node)] = true;
    if (!std::isfinite(load.amps)) {
      add_defect(report,
                 {GridDefectKind::kNonFiniteLoad, DefectSeverity::kFatal,
                  load.node, -1, "load current is NaN/Inf"});
    }
  }

  // Connectivity: every free node must reach a pad or its MNA row/column is
  // singular (a zero-conductance row for isolated nodes, a padless block
  // otherwise).
  const std::vector<bool> reach = reachable_from_pads(pg, adj);
  for (Index v = 0; v < pg.node_count(); ++v) {
    const auto vu = static_cast<std::size_t>(v);
    if (reach[vu]) {
      continue;
    }
    if (has_load[vu]) {
      add_defect(report,
                 {GridDefectKind::kUnreachableLoad, DefectSeverity::kFatal, v,
                  -1, "load has no path to any pad — MNA system is singular"});
    } else if (adj.degree(v) == 0) {
      add_defect(report,
                 {GridDefectKind::kIsolatedNode, DefectSeverity::kRepairable,
                  v, -1, "node has no branches (zero conductance row)"});
    } else {
      add_defect(report,
                 {GridDefectKind::kUnreachableNode,
                  DefectSeverity::kRepairable, v, -1,
                  "connected component contains no pad"});
    }
  }

  // Dangling pads: a pad node with no branches is reachable by definition
  // (the BFS starts there) and harmless to MNA (pad nodes are eliminated),
  // but the bump delivers no current — a packaging defect worth surfacing.
  for (const Pad& pad : pg.pads()) {
    if (adj.degree(pad.node) == 0) {
      add_defect(report,
                 {GridDefectKind::kDanglingPad, DefectSeverity::kWarning,
                  pad.node, -1, "supply pad bonded to a branchless node"});
    }
  }
  return report;
}

PowerGrid repaired_copy(const PowerGrid& pg,
                        std::vector<std::string>* actions) {
  const auto note = [&](const std::string& line) {
    if (actions != nullptr) {
      actions->push_back(line);
    }
  };

  const BranchAdjacency adj = build_adjacency(pg);
  const std::vector<bool> reach = reachable_from_pads(pg, adj);
  std::vector<bool> has_load(static_cast<std::size_t>(pg.node_count()),
                             false);
  for (const CurrentLoad& load : pg.loads()) {
    has_load[static_cast<std::size_t>(load.node)] = true;
  }

  // Keep reachable nodes plus any unreachable node that carries a load (an
  // unrepairable fatal defect the caller must still see).
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

  // Merge duplicate branches in parallel: keep the first branch of each
  // unordered endpoint pair, folding the others' conductance into it in
  // branch order.
  const std::vector<Index> first_of_pair = first_branch_of_pair(pg, adj);
  std::vector<Real> pair_conductance(
      static_cast<std::size_t>(pg.branch_count()), 0.0);
  for (Index bi = 0; bi < pg.branch_count(); ++bi) {
    const Index first = first_of_pair[static_cast<std::size_t>(bi)];
    pair_conductance[static_cast<std::size_t>(first)] +=
        1.0 / pg.branch_resistance(bi);
    if (first != bi) {
      std::ostringstream os;
      os << "merged duplicate branch " << bi << " into branch " << first
         << " (parallel conductance)";
      note(os.str());
    }
  }
  // Emit one branch per pair in (smaller endpoint, larger endpoint) order.
  std::vector<std::pair<Index, Index>> pairs;  // (larger endpoint, branch)
  for (Index v = 0; v < pg.node_count(); ++v) {
    pairs.clear();
    for (Index k = adj.ptr[static_cast<std::size_t>(v)];
         k < adj.ptr[static_cast<std::size_t>(v) + 1]; ++k) {
      const Index u = adj.nbr[static_cast<std::size_t>(k)];
      const Index bi = adj.branch[static_cast<std::size_t>(k)];
      if (u >= v && first_of_pair[static_cast<std::size_t>(bi)] == bi) {
        pairs.emplace_back(u, bi);
      }
    }
    std::sort(pairs.begin(), pairs.end());
    for (const auto& [u, first_bi] : pairs) {
      const Branch& b = pg.branch(first_bi);
      const Index n1 = new_id[static_cast<std::size_t>(b.n1)];
      const Index n2 = new_id[static_cast<std::size_t>(b.n2)];
      if (n1 < 0 || n2 < 0) {
        continue;  // endpoint dropped with its unreachable component
      }
      const Real merged_resistance =
          1.0 / pair_conductance[static_cast<std::size_t>(first_bi)];
      if (b.kind == BranchKind::kWire) {
        // g ∝ width at fixed geometry, so the parallel merge is a width
        // sum: w = ρ·l / R_parallel.
        const Real rho = pg.layer(b.layer).sheet_rho;
        out.add_wire(n1, n2, b.layer, b.length,
                     rho * b.length / merged_resistance);
      } else {
        out.add_via(n1, n2, b.layer, merged_resistance);
      }
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

GridDefectError::GridDefectError(GridValidationReport report)
    : std::runtime_error("grid validation failed: " + report.summary()),
      report_(std::move(report)) {}

}  // namespace ppdl::grid
