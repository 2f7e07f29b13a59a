// Flow benchmark: the conventional and PowerPlanningDL design paths of one
// workload, timed through their public calls (paper Table IV), with every
// output checked.
//
// A run sets the workload up (replica, golden design, trained model,
// calibrated Kirchhoff IR estimate), then designs a fixed list of γ = 10 %
// current-workload perturbed specs (paper §IV-D) with both paths,
// interleaved per spec so that a slow period of the host hits both. After
// one full pass over the list, specs are designed again in list order while
// the --seconds budget allows another. Quality metrics come from the first
// pass, so they depend on the seed and the spec count alone.
//
//   --trace 0   end-to-end metrics, tracing off
//   --trace 1   per-layer metrics from spans opened around the calls into
//               each layer; the same specs also run untraced in the same
//               run, and the difference is reported as tracing overhead
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. Any failed check makes the run exit 1.
// Workload rationale and the metric map: perfbench/METRICS.md.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/incremental_solver.hpp"
#include "analysis/ir_solver.hpp"
#include "analysis/mna.hpp"
#include "common/artifact_io.hpp"
#include "common/cli.hpp"
#include "common/memory.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "core/benchmarks.hpp"
#include "core/features.hpp"
#include "core/flow.hpp"
#include "core/ir_predictor.hpp"
#include "core/ppdl_model.hpp"
#include "grid/perturb.hpp"
#include "linalg/cg.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/ordering.hpp"
#include "linalg/preconditioner.hpp"
#include "planner/conventional_planner.hpp"
#include "planner/sign_off.hpp"
#include "trace.hpp"

using namespace ppdl;
using perfbench::Tracer;

namespace {

struct Workload {
  const char* name;
  const char* circuit;  ///< IBM-PG replica
  Real scale;
  Index threads;  ///< pinned with parallel::set_num_threads
  Index specs;    ///< perturbed specs per pass (fixed: quality depends on it)
  Index setups;   ///< set-up repetitions behind the setup_s median
};

// Why each workload exists: perfbench/METRICS.md. large and large-2t share
// their inputs, so their quality metrics must agree bit for bit.
constexpr Workload kWorkloads[] = {
    {"small", "ibmpg2", 0.05, 1, 24, 3},
    {"large", "ibmpg6", 0.05, 1, 6, 2},
    {"large-2t", "ibmpg6", 0.05, 2, 6, 2},
};

// The replica is the circuit being designed and stays fixed; the seed
// argument drives the perturbed specs, as the paper's test set perturbs the
// design it trained on.
constexpr U64 kReplicaSeed = 42;
constexpr Real kGamma = 0.10;
constexpr Index kPlannerMaxIterations = 40;
// Bound on the relative KCL residual of a full-path solution (the solver
// stops at a 1e-8 relative residual of the reduced system).
constexpr Real kMaxKclResidual = 1e-6;

// --- statistics ------------------------------------------------------------

Real median(std::vector<Real> v) {
  if (v.empty()) {
    return std::numeric_limits<Real>::quiet_NaN();
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The end-to-end timing statistic: the fastest sample of the run. The
/// host's speed swings by up to 2x in phases of seconds (other tenants), so
/// a run's median moves with the share of its samples that fell in slow
/// phases, while its fastest sample reads the uncontended cost of the call;
/// see METRICS.md "Timing statistic".
Real fastest(const std::vector<Real>& v) {
  return v.empty() ? std::numeric_limits<Real>::quiet_NaN()
                   : *std::min_element(v.begin(), v.end());
}

/// "F ms (fastest of n=N; median M ms, pP X ms)", with the highest of
/// p75/p90/p95/p99 that has at least ten samples beyond it.
std::string describe_timing(const std::vector<Real>& v) {
  std::ostringstream os;
  os << fastest(v) << " ms (fastest of n=" << v.size() << "; median "
     << median(v) << " ms";
  std::vector<Real> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (const int p : {99, 95, 90, 75}) {
    const auto beyond = static_cast<std::size_t>(
        std::floor(static_cast<Real>(sorted.size()) * (100 - p) / 100.0));
    if (beyond >= 10) {
      os << ", p" << p << " " << sorted[sorted.size() - beyond - 1] << " ms";
      break;
    }
  }
  os << ")";
  return os.str();
}

std::string json_number(Real v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

// --- checks ----------------------------------------------------------------

/// Relative KCL residual of a node-voltage solution, computed from the grid
/// itself rather than from the MNA system the solver used: at every node
/// that is not a pad, the current flowing in through its branches must
/// equal its load. Normalized by the norm of the reduced right-hand side
/// (loads plus pad injections), the quantity the solver's tolerance bounds.
Real kcl_residual(const grid::PowerGrid& pg, const std::vector<Real>& v) {
  const auto n = static_cast<std::size_t>(pg.node_count());
  if (v.size() != n) {
    return std::numeric_limits<Real>::infinity();
  }
  std::vector<bool> pad(n, false);
  for (const grid::Pad& p : pg.pads()) {
    pad[static_cast<std::size_t>(p.node)] = true;
  }
  std::vector<Real> residual(n, 0.0);
  std::vector<Real> rhs(n, 0.0);
  for (const grid::CurrentLoad& load : pg.loads()) {
    residual[static_cast<std::size_t>(load.node)] -= load.amps;
    rhs[static_cast<std::size_t>(load.node)] -= load.amps;
  }
  for (Index bi = 0; bi < pg.branch_count(); ++bi) {
    const grid::Branch& b = pg.branch(bi);
    const auto a = static_cast<std::size_t>(b.n1);
    const auto c = static_cast<std::size_t>(b.n2);
    const Real g = 1.0 / pg.branch_resistance(bi);
    residual[a] -= g * (v[a] - v[c]);
    residual[c] -= g * (v[c] - v[a]);
    if (pad[c]) {
      rhs[a] += g * v[c];
    }
    if (pad[a]) {
      rhs[c] += g * v[a];
    }
  }
  Real r2 = 0.0;
  Real b2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!pad[i]) {
      r2 += residual[i] * residual[i];
      b2 += rhs[i] * rhs[i];
    }
  }
  return b2 > 0.0 ? std::sqrt(r2 / b2)
                  : std::numeric_limits<Real>::infinity();
}

// --- set-up ----------------------------------------------------------------

struct Setup {
  explicit Setup(grid::GeneratedBenchmark generated)
      : bench(std::move(generated)), golden(bench.grid) {}

  grid::GeneratedBenchmark bench;
  grid::PowerGrid golden;
  planner::PlannerResult golden_plan;
  core::PowerPlanningDL model;
  core::KirchhoffIrPredictor ir;
  Index fit_epochs = 0;
  Real seconds = 0.0;
};

/// make_benchmark + golden run_conventional_planner + PowerPlanningDL::fit +
/// KirchhoffIrPredictor::calibrate: the offline half of the flow.
Setup set_up(const Workload& w, Tracer& tracer) {
  const Timer total;
  const Tracer::Scope root(tracer, "setup", -1);
  Setup s = [&] {
    const Tracer::Scope span(tracer, "grid.generate", -1);
    core::BenchmarkOptions opts;
    opts.scale = w.scale;
    opts.seed = kReplicaSeed;
    return Setup(core::make_benchmark(w.circuit, opts));
  }();
  {
    Tracer::Scope span(tracer, "planner.golden", -1);
    s.golden_plan = planner::run_conventional_planner(
        s.golden,
        core::planner_options_for(s.bench.spec, kPlannerMaxIterations));
    span.annotate("iterations", static_cast<Real>(s.golden_plan.iterations));
  }
  {
    Tracer::Scope span(tracer, "nn.fit", -1);
    const core::TrainReport report = s.model.fit(s.golden);
    for (const core::LayerFit& fit : report.layers) {
      s.fit_epochs += fit.history.epochs_run;
    }
    span.annotate("epochs", static_cast<Real>(s.fit_epochs));
  }
  {
    const Tracer::Scope span(tracer, "core.calibrate", -1);
    s.ir.calibrate(s.golden, s.golden_plan.final_analysis.node_ir_drop);
  }
  s.seconds = total.seconds();
  return s;
}

/// Empty when the set-up is usable and reproduces `first` exactly.
std::string check_setup(const Setup& s, const Setup* first) {
  if (!s.golden_plan.converged || s.golden_plan.solver_failed) {
    return "golden design did not converge: " + s.golden_plan.solver_diagnosis;
  }
  if (!s.model.trained()) {
    return "model not trained";
  }
  if (first != nullptr &&
      (s.golden_plan.final_analysis.worst_ir_drop !=
           first->golden_plan.final_analysis.worst_ir_drop ||
       s.fit_epochs != first->fit_epochs ||
       s.ir.correction() != first->ir.correction())) {
    return "set-up is not reproducible within one run";
  }
  return "";
}

// --- specs -----------------------------------------------------------------

struct Context {
  const Setup& setup;
  planner::PlannerOptions plan;
  planner::PlannerOptions one_iteration;
  planner::SignOffOptions sign_off;
  Real ir_limit = 0.0;
  Real flops_per_row = 0.0;  ///< MLP forward: Σ 2·in·out over its layers
  U64 seed = 0;
};

struct SpecResult {
  Real conv_iter_ms = 0.0;
  Real conv_redesign_ms = 0.0;
  Real dl_design_ms = 0.0;
  Real dl_signoff_ms = 0.0;
  bool signed_off = false;
  std::string rejected_by;  ///< sign-off checks the DL design failed
  Real ir_err_pct = 0.0;
  Real width_err_pct = 0.0;
  std::string failure;  ///< why the spec failed; empty when it did not
  bool same_quality(const SpecResult& o) const {
    return signed_off == o.signed_off && ir_err_pct == o.ir_err_pct &&
           width_err_pct == o.width_err_pct && failure == o.failure;
  }
};

grid::PowerGrid make_spec(const Context& ctx, Index i) {
  Rng rng = Rng::stream(ctx.seed, static_cast<U64>(i));
  return grid::perturbed_copy(ctx.setup.golden,
                              grid::PerturbationKind::kCurrentWorkloads,
                              kGamma, rng.next_u64(), ctx.ir_limit);
}

Index resolve_counter(const char* outcome) {
  return obs::MetricsRegistry::global().counter(
      std::string("planner.resolve.") + outcome);
}

/// Designs spec `i` with both paths. With tracing on, opens one span per
/// end-to-end operation and one per layer call inside it, and annotates
/// the spans with the result-struct and counter values the per-layer
/// metrics use.
SpecResult design_spec(const Context& ctx, Index i,
                       const grid::PowerGrid& spec, Tracer& tracer,
                       grid::PowerGrid* dl_design = nullptr) {
  SpecResult r;
  try {
    // Table IV's Conventional column: one design iteration from
    // layer-default widths (flow phase 4).
    {
      grid::PowerGrid g = spec;
      g.reset_wire_widths();
      const Tracer::Scope op(tracer, "conv_iter", i);
      const Timer t;
      Tracer::Scope call(tracer, "planner.iter", i);
      const planner::PlannerResult one =
          planner::run_conventional_planner(g, ctx.one_iteration);
      r.conv_iter_ms = t.millis();
      call.annotate("analysis_ms", one.analysis_seconds * 1e3);
      call.annotate("update_ms",
                    (one.total_seconds - one.analysis_seconds) * 1e3);
      call.annotate("escalations",
                    static_cast<Real>(one.solver_escalations));
      if (one.trace.empty() || one.solver_failed) {
        r.failure = "one-iteration planner run did not complete";
      }
    }

    // PowerPlanningDL: predicted widths plus the Kirchhoff IR estimate.
    grid::PowerGrid dl = spec;
    core::WidthPrediction prediction;
    core::IrPrediction estimate;
    {
      const Tracer::Scope op(tracer, "dl_design", i);
      const Timer t;
      {
        const Tracer::Scope call(tracer, "nn.predict", i);
        prediction = ctx.setup.model.predict(dl);
      }
      {
        const Tracer::Scope call(tracer, "core.apply_widths", i);
        core::PowerPlanningDL::apply_widths(dl, prediction);
      }
      {
        const Tracer::Scope call(tracer, "core.kirchhoff", i);
        estimate = ctx.setup.ir.predict(dl);
      }
      r.dl_design_ms = t.millis();
    }

    // The full conventional redesign, run to convergence.
    grid::PowerGrid conv = spec;
    conv.reset_wire_widths();
    {
      const Index hit = resolve_counter("hit");
      const Index patch = resolve_counter("patch");
      const Index low_rank = resolve_counter("low_rank");
      const Index fallback = resolve_counter("fallback");
      const Tracer::Scope op(tracer, "conv_redesign", i);
      const Timer t;
      Tracer::Scope call(tracer, "planner.redesign", i);
      const planner::PlannerResult full =
          planner::run_conventional_planner(conv, ctx.plan);
      r.conv_redesign_ms = t.millis();
      call.annotate("iterations", static_cast<Real>(full.iterations));
      call.annotate("analysis_ms", full.analysis_seconds * 1e3);
      call.annotate("escalations",
                    static_cast<Real>(full.solver_escalations));
      call.annotate("resolve.hit",
                    static_cast<Real>(resolve_counter("hit") - hit));
      call.annotate("resolve.patch",
                    static_cast<Real>(resolve_counter("patch") - patch));
      call.annotate("resolve.low_rank",
                    static_cast<Real>(resolve_counter("low_rank") - low_rank));
      call.annotate("resolve.fallback",
                    static_cast<Real>(resolve_counter("fallback") - fallback));
      if (!full.converged || !full.final_analysis.converged ||
          full.final_analysis.worst_ir_drop > ctx.ir_limit) {
        r.failure =
            "conventional redesign did not converge within the IR limit";
      } else if (kcl_residual(conv, full.final_analysis.node_voltage) >
                 kMaxKclResidual) {
        r.failure = "conventional design fails the KCL residual check";
      }
    }

    // What a designer pays to trust the DL design: full solve, EM, DRC.
    planner::SignOffReport report;
    {
      const Tracer::Scope op(tracer, "dl_signoff", i);
      const Timer t;
      const Tracer::Scope call(tracer, "planner.signoff", i);
      report = planner::run_sign_off(dl, ctx.sign_off);
      r.dl_signoff_ms = t.millis();
    }

    // Quality and output checks (untimed).
    const Index wires = dl.wire_count();
    if (static_cast<Index>(prediction.predicted.size()) != wires) {
      r.failure = "DL prediction does not cover every wire";
    }
    std::vector<Real> conv_width(static_cast<std::size_t>(dl.branch_count()),
                                 0.0);
    for (Index bi = 0; bi < conv.branch_count(); ++bi) {
      conv_width[static_cast<std::size_t>(bi)] = conv.branch(bi).width;
    }
    Real err_sum = 0.0;
    for (std::size_t k = 0; k < prediction.predicted.size(); ++k) {
      const Real w_dl = prediction.predicted[k];
      if (!std::isfinite(w_dl) || w_dl <= 0.0) {
        r.failure = "DL width is non-finite or not positive";
      }
      const Real w_conv =
          conv_width[static_cast<std::size_t>(prediction.branch[k])];
      err_sum += std::abs(w_dl - w_conv) / w_conv;
    }
    r.width_err_pct = 100.0 * err_sum / static_cast<Real>(wires);
    if (!std::isfinite(estimate.worst_ir_drop) ||
        !std::isfinite(report.worst_ir_drop) || report.worst_ir_drop <= 0.0) {
      r.failure = "IR result is non-finite";
    }
    r.signed_off = report.signed_off;
    r.rejected_by = std::string(report.ir_ok ? "" : " IR") +
                    (report.em_ok ? "" : " EM") + (report.drc_ok ? "" : " DRC");
    r.ir_err_pct = 100.0 *
                   std::abs(estimate.worst_ir_drop - report.worst_ir_drop) /
                   report.worst_ir_drop;
    if (dl_design != nullptr) {
      *dl_design = std::move(dl);
    }
  } catch (const std::exception& e) {
    r.failure = std::string("a call threw: ") + e.what();
  }
  return r;
}

/// Traced run only: separate calls, on the DL design of spec `i`, into the
/// layers a design operation hides inside one public call — feature
/// extraction (inside PowerPlanningDL::predict), the sign-off's full solve,
/// and one cold analysis split into the calls the full and incremental
/// paths make. Returns a failure message, or empty.
std::string probe_layers(const Context& ctx, Index i,
                         const grid::PowerGrid& dl, Tracer& tracer) {
  const Tracer::Scope root(tracer, "probe", i);
  {
    const Tracer::Scope call(tracer, "core.features", i);
    const core::FeatureExtractor extractor(
        ctx.setup.model.config().feature_window_pitches);
    if (static_cast<Index>(extractor.extract(dl).size()) != dl.wire_count()) {
      return "feature extraction does not cover every wire";
    }
  }
  {
    Tracer::Scope call(tracer, "analysis.full_solve", i);
    const analysis::IrAnalysisResult a =
        analysis::analyze_ir_drop(dl, ctx.sign_off.solver);
    call.annotate("cg_iterations", static_cast<Real>(a.cg_iterations));
    if (!a.converged) {
      return "full solve of the DL design did not converge";
    }
  }
  const Tracer::Scope cold(tracer, "linalg.cold", i);
  analysis::MnaSystem sys;
  {
    const Tracer::Scope call(tracer, "linalg.assemble", i);
    sys = analysis::assemble_mna(dl);
  }
  std::vector<Index> perm;
  {
    const Tracer::Scope call(tracer, "linalg.order", i);
    perm = linalg::nd_ordering(sys.g_reduced);
  }
  {
    Tracer::Scope call(tracer, "linalg.factor", i);
    const linalg::SparseCholesky factor(
        sys.g_reduced, std::move(perm),
        analysis::IncrementalSolveOptions{}.preconditioner_drop_tolerance);
    call.annotate("nnz", static_cast<Real>(factor.factor_nnz()));
  }
  std::unique_ptr<linalg::Preconditioner> ic0;
  {
    const Tracer::Scope call(tracer, "linalg.precond", i);
    ic0 = linalg::make_preconditioner(linalg::PreconditionerKind::kIc0,
                                      sys.g_reduced);
  }
  linalg::CgResult cg;
  {
    Tracer::Scope call(tracer, "linalg.cg", i);
    linalg::CgOptions opts;
    opts.tolerance = ctx.sign_off.solver.cg_tolerance;
    opts.shared_preconditioner = ic0.get();
    cg = linalg::conjugate_gradient(sys.g_reduced, sys.rhs, opts);
    call.annotate("iterations", static_cast<Real>(cg.iterations));
  }
  if (!cg.converged ||
      kcl_residual(dl, analysis::expand_solution(sys, std::move(cg.x))) >
          kMaxKclResidual) {
    return "cold analysis of the DL design fails the KCL residual check";
  }
  return "";
}

// --- reporting -------------------------------------------------------------

struct Metric {
  std::string name;
  Real value = 0.0;
  std::string unit;
};

/// Per-layer values read back from the recorded spans.
class SpanTable {
 public:
  explicit SpanTable(const Tracer& tracer) : tracer_(tracer) {
    for (const perfbench::SpanRecord& s : tracer.spans()) {
      by_name_[s.name].push_back(&s);
    }
  }

  /// Durations (ms) of every span with this name, in recording order.
  std::vector<Real> durations(const std::string& name) const {
    std::vector<Real> out;
    for (const perfbench::SpanRecord* s : find(name)) {
      out.push_back(s->duration_ms());
    }
    return out;
  }

  std::vector<Real> self_times(const std::string& name) const {
    std::vector<Real> out;
    for (const perfbench::SpanRecord* s : find(name)) {
      out.push_back(tracer_.self_ms(s->id));
    }
    return out;
  }

  /// Values of one annotation on every span with this name.
  std::vector<Real> arg(const std::string& name, const std::string& key) const {
    std::vector<Real> out;
    for (const perfbench::SpanRecord* s : find(name)) {
      for (const auto& [k, v] : s->args) {
        if (k == key) {
          out.push_back(v);
        }
      }
    }
    return out;
  }

 private:
  const std::vector<const perfbench::SpanRecord*>& find(
      const std::string& name) const {
    static const std::vector<const perfbench::SpanRecord*> kNone;
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? kNone : it->second;
  }

  const Tracer& tracer_;
  std::map<std::string, std::vector<const perfbench::SpanRecord*>> by_name_;
};

std::vector<Real> minus(const std::vector<Real>& a,
                        const std::vector<Real>& b) {
  std::vector<Real> out;
  for (std::size_t k = 0; k < std::min(a.size(), b.size()); ++k) {
    out.push_back(a[k] - b[k]);
  }
  return out;
}

Real sum(const std::vector<Real>& v) {
  Real s = 0.0;
  for (const Real x : v) {
    s += x;
  }
  return s;
}

std::vector<Metric> layer_metrics(const SpanTable& t, const Context& ctx,
                                  Real rss_after_setup_mib) {
  const std::vector<Real> predict = t.durations("nn.predict");
  const std::vector<Real> features = t.durations("core.features");
  const std::vector<Real> infer = minus(predict, features);
  const Real rows = static_cast<Real>(ctx.setup.golden.wire_count());
  std::vector<Real> gflops;
  for (const Real ms : infer) {
    gflops.push_back(rows * ctx.flops_per_row / (ms * 1e-3) / 1e9);
  }
  const Real hit = sum(t.arg("planner.redesign", "resolve.hit"));
  const Real patch = sum(t.arg("planner.redesign", "resolve.patch"));
  const Real low_rank = sum(t.arg("planner.redesign", "resolve.low_rank"));
  const Real fallback = sum(t.arg("planner.redesign", "resolve.fallback"));
  const Real redesigns =
      static_cast<Real>(t.durations("planner.redesign").size());
  const Real attempts = hit + patch + low_rank + fallback;
  const std::vector<Real> cg_ms = t.durations("linalg.cg");
  const std::vector<Real> cg_iters = t.arg("linalg.cg", "iterations");
  std::vector<Real> cg_per_iter;
  for (std::size_t k = 0; k < std::min(cg_ms.size(), cg_iters.size()); ++k) {
    cg_per_iter.push_back(cg_ms[k] / std::max<Real>(cg_iters[k], 1.0));
  }
  return {
      {"grid.generate_ms", median(t.durations("grid.generate")), "ms"},
      {"nn.fit_ms", median(t.durations("nn.fit")), "ms"},
      {"nn.fit_epochs", median(t.arg("nn.fit", "epochs")), "count"},
      {"nn.infer_ms", median(infer), "ms"},
      {"nn.infer_gflops", median(gflops), "GFLOP/s"},
      {"core.features_ms", median(features), "ms"},
      {"core.kirchhoff_ms", median(t.durations("core.kirchhoff")), "ms"},
      {"core.calibrate_ms", median(t.durations("core.calibrate")), "ms"},
      {"planner.golden_ms", median(t.durations("planner.golden")), "ms"},
      {"planner.golden_iterations",
       median(t.arg("planner.golden", "iterations")), "count"},
      {"planner.iter_analysis_ms",
       median(t.arg("planner.iter", "analysis_ms")), "ms"},
      {"planner.iter_update_ms", median(t.arg("planner.iter", "update_ms")),
       "ms"},
      {"planner.redesign_iterations",
       median(t.arg("planner.redesign", "iterations")), "count"},
      {"planner.redesign_analysis_ms",
       median(t.arg("planner.redesign", "analysis_ms")), "ms"},
      {"planner.signoff_ms", median(t.durations("planner.signoff")), "ms"},
      {"analysis.full_solve_ms", median(t.durations("analysis.full_solve")),
       "ms"},
      {"analysis.cg_iterations",
       median(t.arg("analysis.full_solve", "cg_iterations")), "count"},
      {"analysis.resolve.hit", hit / redesigns, "count"},
      {"analysis.resolve.patch", patch / redesigns, "count"},
      {"analysis.resolve.low_rank", low_rank / redesigns, "count"},
      {"analysis.resolve.fallback", fallback / redesigns, "count"},
      {"analysis.resolve.useful_ratio",
       attempts > 0.0 ? (hit + patch + low_rank) / attempts : 1.0, "ratio"},
      {"robust.escalations",
       sum(t.arg("planner.iter", "escalations")) +
           sum(t.arg("planner.redesign", "escalations")),
       "count"},
      {"linalg.assemble_ms", median(t.durations("linalg.assemble")), "ms"},
      {"linalg.order_ms", median(t.durations("linalg.order")), "ms"},
      {"linalg.factor_ms", median(t.durations("linalg.factor")), "ms"},
      {"linalg.factor_nnz", median(t.arg("linalg.factor", "nnz")), "count"},
      {"linalg.precond_ms", median(t.durations("linalg.precond")), "ms"},
      {"linalg.cg_ms", median(cg_ms), "ms"},
      {"linalg.cg_iterations", median(cg_iters), "count"},
      {"linalg.cg_ms_per_iter", median(cg_per_iter), "ms"},
      {"mem.rss_after_setup_mib", rss_after_setup_mib, "MiB"},
  };
}

/// Prints, for one end-to-end operation, the mean per call of its span,
/// of each layer attributed inside it, and of the unattributed remainder;
/// the parts sum to the span.
void print_breakdown(
    const std::string& op,
    const std::vector<std::pair<std::string, std::vector<Real>>>& parts,
    const SpanTable& t) {
  const Real span = mean(t.durations(op));
  Real attributed = 0.0;
  const std::streamsize precision = std::cout.precision(12);
  std::cout << "breakdown " << op << ": span " << span
            << " ms (mean per call)\n";
  for (const auto& [label, values] : parts) {
    const Real m = mean(values);
    attributed += m;
    std::cout << "  " << label << " " << m << " ms\n";
  }
  std::cout << "  unattributed " << span - attributed << " ms\n";
  std::cout.precision(precision);
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

std::string read_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_result(bool correct, Index attempted, Index failed,
                  const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    std::cout << (k == 0 ? "" : ", ") << '"' << metrics[k].name
              << "\": {\"value\": " << json_number(metrics[k].value)
              << ", \"unit\": \"" << metrics[k].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

struct Samples {
  std::vector<Real> conv_iter, conv_redesign, dl_design, dl_signoff;
  void add(const SpecResult& r) {
    conv_iter.push_back(r.conv_iter_ms);
    conv_redesign.push_back(r.conv_redesign_ms);
    dl_design.push_back(r.dl_design_ms);
    dl_signoff.push_back(r.dl_signoff_ms);
  }
};

int run(int argc, char** argv) {
  CliParser cli("ppdl_perfbench",
                "Flow benchmark: conventional vs PowerPlanningDL design");
  cli.add_flag("workload", "small | large | large-2t", "small");
  cli.add_flag("seed", "seed of the perturbed specs", "1");
  cli.add_flag("seconds", "measuring budget (the first pass always completes)",
               "10");
  cli.add_flag("trace", "0: end-to-end metrics, 1: per-layer metrics", "0");
  cli.add_flag("trace-out", "Chrome trace-event JSON path (--trace 1)", "");
  cli.add_flag("commit", "source revision, for the host fingerprint",
               "unknown");
  cli.add_flag("scale", "override the workload's grid scale (tests)", "0");
  cli.add_flag("threads", "override the workload's thread count (tests)", "0");
  cli.add_flag("specs", "override the workload's spec count (tests)", "0");
  cli.add_flag("setups", "override the workload's set-up count (tests)", "0");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    return 0;
  }
  const std::string name = cli.get("workload");
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      found = &w;
    }
  }
  if (found == nullptr) {
    throw CliError("unknown workload '" + name + "'");
  }
  Workload w = *found;
  if (cli.get_real("scale") > 0.0) {
    w.scale = cli.get_real_in("scale", 0.001, 1.0);
  }
  if (cli.get_int("threads") > 0) {
    w.threads = cli.get_int_in("threads", 1, 64);
  }
  if (cli.get_int("specs") > 0) {
    w.specs = cli.get_int_in("specs", 1, 10000);
  }
  if (cli.get_int("setups") > 0) {
    w.setups = cli.get_int_in("setups", 1, 100);
  }
  const U64 seed = static_cast<U64>(cli.get_int_in(
      "seed", 0, std::numeric_limits<Index>::max()));
  const Real budget_s = cli.get_real_in("seconds", 0.0, 3600.0);
  const bool traced = cli.get_int_in("trace", 0, 1) == 1;

  parallel::set_num_threads(w.threads);
  std::cout << "perfbench workload=" << w.name << " circuit=" << w.circuit
            << " scale=" << w.scale << " threads=" << w.threads
            << " specs=" << w.specs << " seed=" << seed
            << " trace=" << (traced ? 1 : 0) << "\n";
  std::cout << "host nproc=" << std::thread::hardware_concurrency()
            << " cpu=\"" << read_cpu_model() << "\" compiler=\"" << kCompiler
            << "\" flags=\"" << PERFBENCH_CXX_FLAGS
            << "\" build=" << PERFBENCH_BUILD_TYPE
            << " commit=" << cli.get("commit") << "\n";

  // --- set-up: repeated for the setup_s median, traced once ----------------
  Tracer tracer(traced);
  Tracer untraced(false);
  const Index setups = traced ? 1 : w.setups;
  std::vector<Setup> done;
  std::vector<Real> setup_s;
  done.reserve(static_cast<std::size_t>(setups));
  for (Index k = 0; k < setups; ++k) {
    // Keep one finished set-up alive at a time beside the first.
    if (done.size() > 1) {
      done.pop_back();
    }
    done.push_back(set_up(w, tracer));
    setup_s.push_back(done.back().seconds);
    const std::string problem =
        check_setup(done.back(), k == 0 ? nullptr : &done.front());
    if (!problem.empty()) {
      std::cout << "FAILED set-up: " << problem << "\n";
      print_result(false, 1, 1, {});
      return 1;
    }
  }
  const Setup& setup = done.front();
  const Real rss_after_setup = current_rss_mib();
  std::cout << "replica nodes=" << setup.golden.node_count()
            << " wires=" << setup.golden.wire_count()
            << " golden_iterations=" << setup.golden_plan.iterations
            << " fit_epochs=" << setup.fit_epochs << "\n";

  const core::PpdlModelConfig& cfg = setup.model.config();
  Real flops = 0.0;
  {
    Index in = cfg.features.count();
    for (Index l = 0; l < cfg.hidden_layers; ++l) {
      flops += 2.0 * static_cast<Real>(in * cfg.hidden_units);
      in = cfg.hidden_units;
    }
    flops += 2.0 * static_cast<Real>(in);
  }
  Context ctx{setup, {}, {}, {}, 0.0, flops, seed};
  ctx.ir_limit = setup.bench.spec.ir_limit_mv * 1e-3;
  ctx.plan = core::planner_options_for(setup.bench.spec, kPlannerMaxIterations);
  ctx.one_iteration = ctx.plan;
  ctx.one_iteration.max_iterations = 1;
  ctx.sign_off.ir_limit = ctx.ir_limit;
  ctx.sign_off.jmax = setup.bench.spec.jmax;
  ctx.sign_off.rules = ctx.plan.update.rules;
  ctx.sign_off.solver = ctx.plan.solver;

  // --- specs: one full pass, then more specs while the budget allows ------
  std::vector<SpecResult> first_pass;
  Samples plain;
  Samples with_spans;
  Index attempted = 0;
  Index failed = 0;
  bool reproducible = true;
  std::string probe_failure;
  const Timer measuring;
  Real last_spec_s = 0.0;
  for (Index n = 0;
       n < w.specs || measuring.seconds() + last_spec_s <= budget_s; ++n) {
    const Timer spec_timer;
    const Index i = n % w.specs;
    const grid::PowerGrid spec = make_spec(ctx, i);
    const SpecResult r = design_spec(ctx, i, spec, untraced);
    ++attempted;
    if (!r.failure.empty()) {
      ++failed;
      std::cout << "FAILED spec " << i << ": " << r.failure << "\n";
    } else {
      plain.add(r);
    }
    if (n < w.specs) {
      first_pass.push_back(r);
      if (r.failure.empty() && !r.signed_off) {
        std::cout << "spec " << i << ": DL design rejected at sign-off:"
                  << r.rejected_by << "\n";
      }
    } else if (!r.same_quality(first_pass[static_cast<std::size_t>(i)])) {
      reproducible = false;
    }
    if (traced) {
      grid::PowerGrid dl;
      const SpecResult t = design_spec(ctx, i, spec, tracer, &dl);
      if (!t.same_quality(r)) {
        reproducible = false;
      }
      if (t.failure.empty()) {
        with_spans.add(t);
        const std::string p = probe_layers(ctx, i, dl, tracer);
        if (!p.empty()) {
          probe_failure = p;
        }
      }
    }
    last_spec_s = spec_timer.seconds();
  }

  // --- quality (first pass) -------------------------------------------------
  Index ok = 0;
  Index signed_off = 0;
  std::vector<Real> ir_err;
  std::vector<Real> width_err;
  for (const SpecResult& r : first_pass) {
    if (r.failure.empty()) {
      ++ok;
      signed_off += r.signed_off ? 1 : 0;
      ir_err.push_back(r.ir_err_pct);
      width_err.push_back(r.width_err_pct);
    }
  }
  if (ok == 0) {
    std::cout << "FAILED: no spec was designed without failure\n";
    print_result(false, attempted, failed, {});
    return 1;
  }
  const Real n_first = static_cast<Real>(first_pass.size());
  const Real failed_pct = 100.0 * (n_first - static_cast<Real>(ok)) / n_first;
  const Real peak_rss = peak_rss_mib();

  std::cout << "specs=" << w.specs << " attempted=" << attempted
            << " failed=" << failed << " measured_s=" << measuring.seconds()
            << "\n";
  std::cout << "setup_s " << median(setup_s) << " s (median of n="
            << setup_s.size() << " set-ups)\n";
  const auto print_timings = [](const char* tag, const Samples& s) {
    std::cout << tag << "dl_design_ms " << describe_timing(s.dl_design)
              << "\n";
    std::cout << tag << "conv_iter_ms " << describe_timing(s.conv_iter)
              << "\n";
    std::cout << tag << "conv_redesign_ms "
              << describe_timing(s.conv_redesign) << "\n";
    std::cout << tag << "dl_signoff_ms " << describe_timing(s.dl_signoff)
              << "\n";
  };
  print_timings("", plain);
  std::cout << "dl_signoff_pass_pct " << 100.0 * signed_off / n_first
            << " % (n=" << first_pass.size() << " specs)\n";
  std::cout << "dl_ir_err_pct " << mean(ir_err) << " %\n";
  std::cout << "width_err_pct " << mean(width_err) << " %\n";
  std::cout << "peak_rss_mib " << peak_rss << " MiB\n";
  std::cout << "failed_pct " << failed_pct << " %\n";
  // Reported, never gated: a faster conventional solver lowers it, so a
  // gate would reject every solver gain as a regression.
  std::cout << "speedup (not gated) conv_iter_ms / dl_design_ms = "
            << fastest(plain.conv_iter) << " / " << fastest(plain.dl_design)
            << " = " << fastest(plain.conv_iter) / fastest(plain.dl_design)
            << "x\n";

  bool correct = failed == 0 && reproducible;
  if (!reproducible) {
    std::cout << "FAILED: repeated designs of one spec disagree\n";
  }
  if (!probe_failure.empty()) {
    std::cout << "FAILED probe: " << probe_failure << "\n";
    correct = false;
  }

  if (!traced) {
    print_result(correct, attempted, failed,
                 {{"setup_s", median(setup_s), "s"},
                  {"dl_design_ms", fastest(plain.dl_design), "ms"},
                  {"conv_iter_ms", fastest(plain.conv_iter), "ms"},
                  {"conv_redesign_ms", fastest(plain.conv_redesign), "ms"},
                  {"dl_signoff_ms", fastest(plain.dl_signoff), "ms"},
                  {"dl_signoff_pass_pct", 100.0 * signed_off / n_first, "%"},
                  {"dl_ir_err_pct", mean(ir_err), "%"},
                  {"width_err_pct", mean(width_err), "%"},
                  {"peak_rss_mib", peak_rss, "MiB"},
                  {"specs_ok_pct", 100.0 - failed_pct, "%"}});
    return correct ? 0 : 1;
  }

  // --- traced run: overhead, breakdown, per-layer metrics, trace file ------
  print_timings("traced ", with_spans);
  const auto overhead = [](const char* op, const std::vector<Real>& a,
                           const std::vector<Real>& b) {
    std::cout << "tracing overhead " << op << " " << fastest(a) - fastest(b)
              << " ms (" << 100.0 * (fastest(a) / fastest(b) - 1.0)
              << " %)\n";
  };
  overhead("dl_design_ms", with_spans.dl_design, plain.dl_design);
  overhead("conv_iter_ms", with_spans.conv_iter, plain.conv_iter);
  overhead("conv_redesign_ms", with_spans.conv_redesign, plain.conv_redesign);
  overhead("dl_signoff_ms", with_spans.dl_signoff, plain.dl_signoff);

  const SpanTable t(tracer);
  const std::vector<Real> features = t.durations("core.features");
  print_breakdown(
      "dl_design",
      {{"core.features (separate call, inside nn.predict)", features},
       {"nn.infer (nn.predict - core.features)",
        minus(t.durations("nn.predict"), features)},
       {"core.apply_widths", t.self_times("core.apply_widths")},
       {"core.kirchhoff", t.self_times("core.kirchhoff")}},
      t);
  print_breakdown(
      "conv_iter",
      {{"planner.iter_analysis (PlannerResult)",
        t.arg("planner.iter", "analysis_ms")},
       {"planner.iter_update (PlannerResult)",
        t.arg("planner.iter", "update_ms")}},
      t);
  const std::vector<Real> full_solve = t.durations("analysis.full_solve");
  print_breakdown(
      "dl_signoff",
      {{"analysis.full_solve (separate call)", full_solve},
       {"EM check + DRC (planner.signoff - analysis.full_solve)",
        minus(t.self_times("planner.signoff"), full_solve)}},
      t);

  const std::string trace_out = cli.get("trace-out");
  if (!trace_out.empty()) {
    write_raw_file_atomic(trace_out, tracer.chrome_json());
    std::cout << "trace written to " << trace_out << " ("
              << tracer.spans().size() << " spans)\n";
  }
  print_result(correct, attempted, failed,
               layer_metrics(t, ctx, rss_after_setup));
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cout << "perfbench error: " << e.what() << "\n";
    return 2;
  }
}
