#include "analysis/incremental_solver.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "common/check.hpp"
#include "common/obs.hpp"
#include "common/timer.hpp"
#include "grid/validate.hpp"
#include "linalg/ordering.hpp"

namespace ppdl::analysis {

namespace {

/// Slot layout per branch in branch_slots_: [diag(f1), diag(f2), off(f1,f2),
/// off(f2,f1)].
constexpr Index kSlotsPerBranch = 4;

}  // namespace

IncrementalIrSolver::IncrementalIrSolver(grid::PowerGrid& pg,
                                         IncrementalSolveOptions options)
    : pg_(pg), opts_(options) {
  PPDL_REQUIRE(opts_.staleness_budget > 0.0, "staleness_budget must be > 0");
  PPDL_REQUIRE(opts_.iteration_inflation >= 1.0,
               "iteration_inflation must be >= 1");
  token_ = pg_.attach_value_observer(
      [this](Index branch_or_sentinel) { on_value_change(branch_or_sentinel); });
}

IncrementalIrSolver::~IncrementalIrSolver() {
  pg_.detach_value_observer(token_);
}

void IncrementalIrSolver::on_value_change(Index branch_or_sentinel) {
  cached_valid_ = false;
  if (branch_or_sentinel == grid::PowerGrid::kRhsOnlyChange) {
    rhs_dirty_ = true;
    return;
  }
  const auto b = static_cast<std::size_t>(branch_or_sentinel);
  if (b < dirty_mark_.size()) {
    if (dirty_mark_[b] != dirty_stamp_) {
      dirty_mark_[b] = dirty_stamp_;
      dirty_.push_back(branch_or_sentinel);
    }
  } else {
    // A branch added after the last build (topology change): the epoch check
    // in analyze() forces a rebuild, no bookkeeping needed here.
  }
}

Real IncrementalIrSolver::current_conductance(Index branch) const {
  return 1.0 / pg_.branch_resistance(branch);
}

bool IncrementalIrSolver::pad_adjacent(Index branch) const {
  const grid::Branch& b = pg_.branch(branch);
  return sys_.free_of_node[static_cast<std::size_t>(b.n1)] < 0 ||
         sys_.free_of_node[static_cast<std::size_t>(b.n2)] < 0;
}

Real IncrementalIrSolver::staleness() const {
  if (!factor_ || g_norm_at_factor_ <= 0.0) {
    return 0.0;
  }
  Real delta = 0.0;
  for (const Index b : changed_since_factor_) {
    delta += std::abs(current_conductance(b) -
                      g_at_factor_[static_cast<std::size_t>(b)]);
  }
  return delta / g_norm_at_factor_;
}

void IncrementalIrSolver::rebuild(const IrAnalysisOptions& options) {
  if (options.validate_grid) {
    grid::GridValidationReport report = grid::validate_grid(pg_);
    if (report.blocks_assembly()) {
      throw grid::GridDefectError(std::move(report));
    }
  }

  sys_ = assemble_mna(pg_);

  const Index m = pg_.branch_count();
  const Index nnz = sys_.g_reduced.nnz();
  branch_slots_.assign(static_cast<std::size_t>(m * kSlotsPerBranch), -1);
  std::vector<Index> counts(static_cast<std::size_t>(nnz) + 1, 0);

  const auto slots_of = [&](Index bi, Index out[kSlotsPerBranch]) {
    out[0] = out[1] = out[2] = out[3] = -1;
    const grid::Branch& b = pg_.branch(bi);
    const Index f1 = sys_.free_of_node[static_cast<std::size_t>(b.n1)];
    const Index f2 = sys_.free_of_node[static_cast<std::size_t>(b.n2)];
    if (f1 >= 0) {
      out[0] = sys_.g_reduced.value_slot(f1, f1);
    }
    if (f2 >= 0) {
      out[1] = sys_.g_reduced.value_slot(f2, f2);
    }
    if (f1 >= 0 && f2 >= 0) {
      out[2] = sys_.g_reduced.value_slot(f1, f2);
      out[3] = sys_.g_reduced.value_slot(f2, f1);
    }
  };

  Index slots[kSlotsPerBranch];
  for (Index bi = 0; bi < m; ++bi) {
    slots_of(bi, slots);
    for (Index s = 0; s < kSlotsPerBranch; ++s) {
      branch_slots_[static_cast<std::size_t>(bi * kSlotsPerBranch + s)] =
          slots[s];
      if (slots[s] >= 0) {
        ++counts[static_cast<std::size_t>(slots[s]) + 1];
      }
    }
  }
  for (std::size_t s = 0; s + 1 < counts.size(); ++s) {
    counts[s + 1] += counts[s];
  }
  slot_contrib_ptr_ = counts;
  const auto total = static_cast<std::size_t>(slot_contrib_ptr_.back());
  slot_contrib_branch_.assign(total, 0);
  slot_contrib_sign_.assign(total, 1);
  std::vector<Index> cursor(slot_contrib_ptr_.begin(),
                            slot_contrib_ptr_.end() - 1);
  // Branch-order scatter: each slot's contributor list ends up in insertion
  // order, the order from_coo's stable duplicate fold sums in.
  for (Index bi = 0; bi < m; ++bi) {
    for (Index s = 0; s < kSlotsPerBranch; ++s) {
      const Index slot =
          branch_slots_[static_cast<std::size_t>(bi * kSlotsPerBranch + s)];
      if (slot < 0) {
        continue;
      }
      const auto pos =
          static_cast<std::size_t>(cursor[static_cast<std::size_t>(slot)]++);
      slot_contrib_branch_[pos] = bi;
      slot_contrib_sign_[pos] = (s < 2) ? 1 : -1;  // diag adds, off-diag subs
    }
  }

  dirty_.clear();
  dirty_mark_.assign(static_cast<std::size_t>(m), 0);
  dirty_stamp_ = 1;
  rhs_dirty_ = false;
  factor_mark_.assign(static_cast<std::size_t>(m), 0);
  factor_stamp_ = 1;
  changed_since_factor_.clear();
  cached_valid_ = false;
  built_ = true;
  built_topology_epoch_ = pg_.topology_epoch();
  seen_value_epoch_ = pg_.value_epoch();

  rebuild_factor();
}

void IncrementalIrSolver::rebuild_factor() {
  factor_.reset();
  frozen_precond_.reset();
  force_refactor_ = false;
  baseline_iterations_ = 0;
  changed_since_factor_.clear();
  ++factor_stamp_;
  // The factor's only consumer is the frozen preconditioner; replicate-full
  // mode builds none.
  if (!opts_.frozen_preconditioner) {
    return;
  }
  try {
    // Nested dissection keeps the factor sparse enough that its backsolve
    // (the per-CG-iteration preconditioner cost) beats assembling and
    // IC(0)-solving from scratch; RCM's O(n·bandwidth) fill does not.
    factor_ = std::make_unique<linalg::SparseCholesky>(
        sys_.g_reduced, linalg::nd_ordering(sys_.g_reduced),
        opts_.preconditioner_drop_tolerance);
  } catch (const ContractViolation&) {
    // Not SPD (defective grid): every solve takes the patched-CG path and
    // the robust ladder diagnoses it exactly as the full path would.
    factor_.reset();
    return;
  }
  // Dropping already happened at factorization; the adapter just re-encodes
  // to float/32-bit for the sweeps.
  frozen_precond_ = std::make_unique<linalg::CholeskyPreconditioner>(*factor_);
  const Index m = pg_.branch_count();
  g_at_factor_.resize(static_cast<std::size_t>(m));
  g_norm_at_factor_ = 0.0;
  for (Index bi = 0; bi < m; ++bi) {
    const Real g = current_conductance(bi);
    g_at_factor_[static_cast<std::size_t>(bi)] = g;
    g_norm_at_factor_ += std::abs(g);
  }
}

void IncrementalIrSolver::rebuild_rhs() {
  // Replays assemble_mna's right-hand-side construction verbatim (loads in
  // load order, then pad-adjacent branch terms in branch order) so the
  // result is bit-identical to a fresh assembly.
  sys_.rhs.assign(static_cast<std::size_t>(sys_.free_count), 0.0);
  for (const grid::CurrentLoad& load : pg_.loads()) {
    const Index f = sys_.free_of_node[static_cast<std::size_t>(load.node)];
    if (f >= 0) {
      sys_.rhs[static_cast<std::size_t>(f)] -= load.amps;
    }
  }
  for (Index bi = 0; bi < pg_.branch_count(); ++bi) {
    const grid::Branch& b = pg_.branch(bi);
    const Index f1 = sys_.free_of_node[static_cast<std::size_t>(b.n1)];
    const Index f2 = sys_.free_of_node[static_cast<std::size_t>(b.n2)];
    if (f1 < 0 && f2 < 0) {
      continue;
    }
    if (f1 < 0) {
      sys_.rhs[static_cast<std::size_t>(f2)] +=
          current_conductance(bi) *
          sys_.pad_voltage[static_cast<std::size_t>(b.n1)];
    } else if (f2 < 0) {
      sys_.rhs[static_cast<std::size_t>(f1)] +=
          current_conductance(bi) *
          sys_.pad_voltage[static_cast<std::size_t>(b.n2)];
    }
  }
}

void IncrementalIrSolver::patch_dirty_slots() {
  // Dirty slots, deduplicated via stamps (shared diagonals between two
  // dirty branches) — no sort, the re-sum below is order-independent
  // because each slot is written exactly once.
  if (slot_mark_.size() != static_cast<std::size_t>(sys_.g_reduced.nnz())) {
    slot_mark_.assign(static_cast<std::size_t>(sys_.g_reduced.nnz()), 0);
    slot_stamp_ = 0;
  }
  ++slot_stamp_;
  std::vector<Index> slots;
  slots.reserve(dirty_.size() * kSlotsPerBranch);
  for (const Index bi : dirty_) {
    for (Index s = 0; s < kSlotsPerBranch; ++s) {
      const Index slot =
          branch_slots_[static_cast<std::size_t>(bi * kSlotsPerBranch + s)];
      if (slot >= 0 && slot_mark_[static_cast<std::size_t>(slot)] !=
                           slot_stamp_) {
        slot_mark_[static_cast<std::size_t>(slot)] = slot_stamp_;
        slots.push_back(slot);
      }
    }
  }

  const std::span<Real> values = sys_.g_reduced.mutable_values();
  for (const Index slot : slots) {
    // Canonical re-summation: left fold over contributors in insertion
    // order, exactly what from_coo's duplicate merge computes.
    Real acc = 0.0;
    const Index begin = slot_contrib_ptr_[static_cast<std::size_t>(slot)];
    const Index end = slot_contrib_ptr_[static_cast<std::size_t>(slot) + 1];
    for (Index k = begin; k < end; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      const Real g = current_conductance(slot_contrib_branch_[ku]);
      acc += (slot_contrib_sign_[ku] > 0) ? g : -g;
    }
    values[static_cast<std::size_t>(slot)] = acc;
  }
}

IrAnalysisResult IncrementalIrSolver::analyze(const IrAnalysisOptions& options) {
  const Timer timer;

  if (options.solver == SolverKind::kCholesky) {
    // A caller asking for a fresh factorization per call gets exactly that;
    // the resident state is invalidated so a later CG-mode call rebuilds.
    built_ = false;
    cached_valid_ = false;
    factor_.reset();
    ++stats_.fallbacks;
    obs::count("planner.resolve.fallback");
    return analyze_ir_drop(pg_, options);
  }

  const bool topology_changed =
      built_ && pg_.topology_epoch() != built_topology_epoch_;
  // Backstop: value mutations with an empty journal mean notifications were
  // missed (e.g. the grid object was replaced via move, which drops the
  // observer) — never trust the resident state in that case.
  const bool missed_mutations = built_ && dirty_.empty() && !rhs_dirty_ &&
                                pg_.value_epoch() != seen_value_epoch_;

  if (!built_ || topology_changed || missed_mutations) {
    const bool first = !built_;
    rebuild(options);
    if (first) {
      ++stats_.cold_builds;
      obs::count("planner.resolve.cold");
    } else {
      ++stats_.fallbacks;
      obs::count("planner.resolve.fallback");
    }
  } else if (dirty_.empty() && !rhs_dirty_) {
    if (cached_valid_ && cached_x0_ == options.initial_voltages) {
      ++stats_.hits;
      obs::count("planner.resolve.hit");
      obs::gauge("planner.resolve.staleness", staleness());
      IrAnalysisResult result = cached_;
      result.solve_seconds = timer.seconds();
      return result;
    }
  } else {
    // Ingest the journal: patch the matrix in place, track the cumulative
    // delta set, refresh the RHS when it could have moved.
    bool rhs_needs_rebuild = rhs_dirty_;
    for (const Index bi : dirty_) {
      const auto bu = static_cast<std::size_t>(bi);
      if (factor_mark_[bu] != factor_stamp_) {
        factor_mark_[bu] = factor_stamp_;
        changed_since_factor_.push_back(bi);
      }
      if (pad_adjacent(bi)) {
        rhs_needs_rebuild = true;
      }
    }
    patch_dirty_slots();
    if (rhs_needs_rebuild) {
      rebuild_rhs();
    }
    dirty_.clear();
    ++dirty_stamp_;
    rhs_dirty_ = false;
    seen_value_epoch_ = pg_.value_epoch();

    if (force_refactor_ || staleness() > opts_.staleness_budget) {
      rebuild(options);
      ++stats_.fallbacks;
      obs::count("planner.resolve.fallback");
    }
  }

  // Patched-matrix iterative solve, identical to analyze_ir_drop's CG path
  // except the frozen factorization rides along as the preconditioner.
  robust::RobustSolveOptions solve_opts;
  solve_opts.cg.tolerance = options.cg_tolerance;
  solve_opts.cg.preconditioner = options.preconditioner;
  solve_opts.allow_escalation = options.escalate_on_failure;
  solve_opts.deadline = options.deadline;
  if (frozen_precond_) {
    solve_opts.cg.shared_preconditioner = frozen_precond_.get();
  }

  std::optional<std::vector<Real>> x0;
  if (!options.initial_voltages.empty()) {
    PPDL_REQUIRE(static_cast<Index>(options.initial_voltages.size()) ==
                     pg_.node_count(),
                 "warm-start voltage size mismatch");
    std::vector<Real> reduced(static_cast<std::size_t>(sys_.free_count));
    for (Index f = 0; f < sys_.free_count; ++f) {
      reduced[static_cast<std::size_t>(f)] =
          options.initial_voltages[static_cast<std::size_t>(
              sys_.node_of_free[static_cast<std::size_t>(f)])];
    }
    x0 = std::move(reduced);
  }

  robust::RobustSolveResult solve = robust::robust_solve(
      sys_.g_reduced, sys_.rhs, solve_opts, std::move(x0));
  IrAnalysisResult result;
  result.cg_iterations = solve.report.total_iterations;
  result.converged = solve.report.converged;
  result.solve_report = std::move(solve.report);
  result.node_voltage = expand_solution(sys_, std::move(solve.x));
  ++stats_.patched_solves;
  obs::count("planner.resolve.patch");

  // Iteration-inflation half of the staleness budget: the first solve after
  // a (re)factorization sets the baseline; later patched solves that blow
  // past it schedule a refactorization.
  if (factor_) {
    if (baseline_iterations_ == 0) {
      baseline_iterations_ = std::max<Index>(result.cg_iterations, 1);
    } else if (static_cast<Real>(result.cg_iterations) >
               opts_.iteration_inflation *
                   static_cast<Real>(baseline_iterations_)) {
      force_refactor_ = true;
    }
  }

  detail::finalize_ir_metrics(pg_, result);
  result.solve_seconds = timer.seconds();

  cached_ = result;
  cached_valid_ = true;
  cached_x0_ = options.initial_voltages;
  seen_value_epoch_ = pg_.value_epoch();
  obs::gauge("planner.resolve.staleness", staleness());
  return result;
}

}  // namespace ppdl::analysis
