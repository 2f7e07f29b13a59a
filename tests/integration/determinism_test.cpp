// End-to-end determinism: the parallel substrate must produce BIT-IDENTICAL
// results for any thread count (1, 2, 8) and across repeated runs at the
// same count. Exercised through every parallelized hot path: the IR solver,
// NN training and inference, golden-dataset generation, and the
// conventional planner.
//
// All comparisons are EXPECT_EQ on doubles — exact equality is the
// contract, not a tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "analysis/ir_solver.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/flow.hpp"
#include "core/golden.hpp"
#include "core/ppdl_model.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/ordering.hpp"
#include "nn/mlp.hpp"
#include "nn/trainer.hpp"
#include "planner/conventional_planner.hpp"
#include "support/fixtures.hpp"

namespace ppdl {
namespace {

struct ThreadGuard {
  ~ThreadGuard() { parallel::set_num_threads(0); }
};

const Index kThreadCounts[] = {1, 2, 8};

void expect_bitwise_equal(const std::vector<Real>& a,
                          const std::vector<Real>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " differs at element " << i;
  }
}

std::vector<Real> to_vector(std::span<const Real> s) {
  return std::vector<Real>(s.begin(), s.end());
}

TEST(Determinism, SolverSolutionAcrossThreadCounts) {
  ThreadGuard guard;
  const grid::GeneratedBenchmark bench = testsupport::make_tiny_benchmark();

  const auto solve_at = [&](Index threads) {
    parallel::set_num_threads(threads);
    return analysis::analyze_ir_drop(bench.grid);
  };

  const analysis::IrAnalysisResult ref = solve_at(1);
  for (const Index threads : kThreadCounts) {
    const analysis::IrAnalysisResult got = solve_at(threads);
    expect_bitwise_equal(ref.node_ir_drop, got.node_ir_drop, "node_ir_drop");
    expect_bitwise_equal(ref.branch_current, got.branch_current,
                         "branch_current");
    EXPECT_EQ(ref.worst_ir_drop, got.worst_ir_drop);
  }
  // Repeatability at a fixed parallel count.
  const analysis::IrAnalysisResult again = solve_at(8);
  expect_bitwise_equal(ref.node_ir_drop, again.node_ir_drop,
                       "node_ir_drop repeat");
}

// The run-report metric story must also be thread-count independent: the
// CG counters an IC(0) solve records (solves, iterations) are compared as
// before/after registry deltas at every thread count.
TEST(Determinism, PreconditionerMetricsAcrossThreadCounts) {
  ThreadGuard guard;
  const grid::GeneratedBenchmark bench = testsupport::make_tiny_benchmark();

  const auto metrics_at = [&](Index threads) {
    parallel::set_num_threads(threads);
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::global().snapshot();
    analysis::IrAnalysisOptions opts;
    opts.preconditioner = linalg::PreconditionerKind::kIc0;
    analysis::analyze_ir_drop(bench.grid, opts);
    return obs::MetricsRegistry::global().snapshot().delta_since(before);
  };

  const obs::MetricsSnapshot ref = metrics_at(1);
  EXPECT_GT(ref.counters.at("cg.iterations"), 0);
  for (const Index threads : kThreadCounts) {
    const obs::MetricsSnapshot got = metrics_at(threads);
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    for (const auto& [name, value] : ref.counters) {
      if (name.rfind("cg.", 0) == 0) {
        ASSERT_TRUE(got.counters.contains(name)) << name;
        EXPECT_EQ(got.counters.at(name), value) << name;
      }
    }
  }
}

TEST(Determinism, TrainedWeightsAcrossThreadCounts) {
  ThreadGuard guard;
  // Synthetic regression problem big enough to span several gradient
  // chunks per batch (batch 64, grain 16 → 4 chunks).
  const Index rows = 512;
  nn::Matrix x(rows, 3);
  nn::Matrix y(rows, 1);
  Rng rng(11);
  for (Index r = 0; r < rows; ++r) {
    const Real a = rng.uniform(-1.0, 1.0);
    const Real b = rng.uniform(-1.0, 1.0);
    const Real c = rng.uniform(-1.0, 1.0);
    x(r, 0) = a;
    x(r, 1) = b;
    x(r, 2) = c;
    y(r, 0) = 0.5 * a - 1.5 * b * b + 0.25 * c;
  }

  const auto train_at = [&](Index threads) {
    parallel::set_num_threads(threads);
    nn::MlpConfig cfg = nn::MlpConfig::paper_default(3, 1, 4, 16);
    Rng init(5);
    nn::Mlp model(cfg, init);
    nn::TrainOptions opts;
    opts.epochs = 8;
    opts.batch_size = 64;
    opts.learning_rate = 1e-3;
    nn::train(model, x, y, opts);
    return model.snapshot_parameters();
  };

  const std::vector<nn::Matrix> ref = train_at(1);
  for (const Index threads : kThreadCounts) {
    const std::vector<nn::Matrix> got = train_at(threads);
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      expect_bitwise_equal(to_vector(ref[i].data()), to_vector(got[i].data()),
                           "trained parameter tensor");
    }
  }
  const std::vector<nn::Matrix> again = train_at(8);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    expect_bitwise_equal(to_vector(ref[i].data()), to_vector(again[i].data()),
                         "trained parameter tensor repeat");
  }
}

// FNV-1a over the bit patterns of every parameter, in layer order.
U64 fnv1a_parameters(const std::vector<nn::Matrix>& params) {
  U64 hash = 0xcbf29ce484222325ULL;
  for (const nn::Matrix& m : params) {
    for (const Real v : m.data()) {
      U64 bits = std::bit_cast<U64>(v);
      for (int byte = 0; byte < 8; ++byte) {
        hash ^= bits & 0xffU;
        hash *= 0x100000001b3ULL;
        bits >>= 8;
      }
    }
  }
  return hash;
}

// Pins the trained weights themselves, not just their agreement across
// thread counts: any change to the training arithmetic (kernel order,
// chunking, combine order, optimizer) shows up here. The expected hash was
// produced by commit 63e0c68 ("Fuse MLP inference into one row-block
// kernel"), before training moved onto the row-block kernels.
TEST(Determinism, TrainedWeightsPinnedChecksum) {
  ThreadGuard guard;
  // 1000 rows, 10 % validation: 900 training rows in batches of 128, so
  // the last batch (4 rows) and its only chunk are partial.
  const Index rows = 1000;
  nn::Matrix x(rows, 3);
  nn::Matrix y(rows, 1);
  Rng rng(2024);
  for (Index r = 0; r < rows; ++r) {
    const Real a = rng.uniform(-1.0, 1.0);
    const Real b = rng.uniform(-1.0, 1.0);
    const Real c = rng.uniform(0.0, 2.0);
    x(r, 0) = a;
    x(r, 1) = b;
    x(r, 2) = c;
    y(r, 0) = 0.5 * a - 1.5 * b * b + 0.25 * c * a;
  }

  for (const Index threads : {Index{1}, Index{2}}) {
    parallel::set_num_threads(threads);
    Rng init(7);
    nn::Mlp model(nn::MlpConfig::paper_default(3, 1, 10, 16), init);
    nn::TrainOptions opts;
    opts.epochs = 4;
    opts.batch_size = 128;
    opts.early_stopping_patience = 0;
    const nn::TrainHistory history = nn::train(model, x, y, opts);
    ASSERT_EQ(history.epochs_run, 4);
    EXPECT_EQ(fnv1a_parameters(model.snapshot_parameters()),
              0x147c778d820e1e8bULL)
        << "threads=" << threads;
  }
}

TEST(Determinism, MlpPredictAcrossThreadCounts) {
  ThreadGuard guard;
  // Enough rows for predict() to split into many row chunks, with an odd
  // count so the last chunk and the last register tile are both partial.
  const Index rows = 20001;
  Rng init(21);
  const nn::Mlp model(nn::MlpConfig::paper_default(3, 1, 10, 16), init);
  nn::Matrix x(rows, 3);
  Rng rng(22);
  for (Real& v : x.data()) {
    v = rng.normal();
  }

  const auto predict_at = [&](Index threads) {
    parallel::set_num_threads(threads);
    return to_vector(model.predict(x).data());
  };

  const std::vector<Real> ref = predict_at(1);
  for (const Index threads : kThreadCounts) {
    expect_bitwise_equal(ref, predict_at(threads), "MLP predictions");
  }
  expect_bitwise_equal(ref, predict_at(8), "MLP predictions repeat");
}

TEST(Determinism, PlannerWidthsAcrossThreadCounts) {
  ThreadGuard guard;
  const grid::GeneratedBenchmark bench = testsupport::make_tiny_benchmark();

  const auto plan_at = [&](Index threads) {
    parallel::set_num_threads(threads);
    grid::PowerGrid pg = bench.grid;
    planner::PlannerOptions opts = core::planner_options_for(bench.spec, 40);
    planner::run_conventional_planner(pg, opts);
    std::vector<Real> widths;
    widths.reserve(static_cast<std::size_t>(pg.branch_count()));
    for (Index bi = 0; bi < pg.branch_count(); ++bi) {
      widths.push_back(pg.branch(bi).width);
    }
    return widths;
  };

  const std::vector<Real> ref = plan_at(1);
  for (const Index threads : kThreadCounts) {
    expect_bitwise_equal(ref, plan_at(threads), "planner widths");
  }
  expect_bitwise_equal(ref, plan_at(8), "planner widths repeat");
}

TEST(Determinism, GoldenDatasetsAcrossThreadCounts) {
  ThreadGuard guard;
  core::GoldenDesignOptions opts;
  opts.benchmark.scale = 0.01;
  opts.benchmark.seed = 12345;
  const std::vector<std::string> names = {"ibmpg1", "ibmpg2"};

  const auto generate_at = [&](Index threads) {
    parallel::set_num_threads(threads);
    return core::generate_golden_datasets(names, opts);
  };

  const core::GoldenSuite ref = generate_at(1);
  ASSERT_EQ(ref.designs.size(), names.size());
  for (const core::GoldenDesign& d : ref.designs) {
    EXPECT_TRUE(d.completed) << d.name;
    EXPECT_FALSE(d.datasets.empty()) << d.name;
  }

  for (const Index threads : kThreadCounts) {
    const core::GoldenSuite got = generate_at(threads);
    ASSERT_EQ(got.designs.size(), ref.designs.size());
    for (std::size_t i = 0; i < ref.designs.size(); ++i) {
      const core::GoldenDesign& rd = ref.designs[i];
      const core::GoldenDesign& gd = got.designs[i];
      EXPECT_EQ(rd.name, gd.name);
      EXPECT_EQ(rd.converged, gd.converged);
      ASSERT_EQ(rd.datasets.size(), gd.datasets.size());
      for (std::size_t k = 0; k < rd.datasets.size(); ++k) {
        EXPECT_EQ(rd.datasets[k].layer, gd.datasets[k].layer);
        expect_bitwise_equal(to_vector(rd.datasets[k].x.data()),
                             to_vector(gd.datasets[k].x.data()),
                             "dataset features");
        expect_bitwise_equal(to_vector(rd.datasets[k].y.data()),
                             to_vector(gd.datasets[k].y.data()),
                             "dataset widths");
      }
    }
  }
}

TEST(Determinism, LayerModelFitAcrossThreadCounts) {
  ThreadGuard guard;
  grid::GeneratedBenchmark bench = testsupport::make_tiny_benchmark();
  planner::PlannerOptions popts = core::planner_options_for(bench.spec, 40);
  planner::run_conventional_planner(bench.grid, popts);

  const auto predict_at = [&](Index threads) {
    parallel::set_num_threads(threads);
    core::PpdlModelConfig mc;
    mc.hidden_layers = 3;
    mc.hidden_units = 12;
    mc.train.epochs = 10;
    core::PowerPlanningDL model(mc);
    model.fit(bench.grid);
    const core::WidthPrediction p = model.predict(bench.grid);
    return p.predicted;
  };

  const std::vector<Real> ref = predict_at(1);
  for (const Index threads : kThreadCounts) {
    expect_bitwise_equal(ref, predict_at(threads), "predicted widths");
  }
  expect_bitwise_equal(ref, predict_at(8), "predicted widths repeat");
}


// Nested dissection runs its subtasks as pool chunks (the subtask set is
// fixed by the matrix structure); the permutation and the splits must not
// depend on the thread count.
TEST(Determinism, NestedDissectionAcrossThreadCounts) {
  ThreadGuard guard;
  const linalg::CsrMatrix a =
      testsupport::replica_mna_matrix("ibmpg2", 0.05, 7);

  const auto order_at = [&](Index threads,
                            std::vector<linalg::NdSplit>& splits) {
    parallel::set_num_threads(threads);
    return linalg::nd_ordering(a, &splits);
  };

  std::vector<linalg::NdSplit> ref_splits;
  const std::vector<Index> ref = order_at(1, ref_splits);
  for (const Index threads : kThreadCounts) {
    std::vector<linalg::NdSplit> splits;
    ASSERT_EQ(order_at(threads, splits), ref) << "threads=" << threads;
    ASSERT_EQ(splits.size(), ref_splits.size()) << "threads=" << threads;
    for (std::size_t k = 0; k < splits.size(); ++k) {
      EXPECT_EQ(splits[k].begin, ref_splits[k].begin);
      EXPECT_EQ(splits[k].b_begin, ref_splits[k].b_begin);
      EXPECT_EQ(splits[k].separator_begin, ref_splits[k].separator_begin);
      EXPECT_EQ(splits[k].end, ref_splits[k].end);
    }
  }
}

// The factorization builds etree subtrees as pool chunks and the top rows
// serially; the factor must equal the serial one exactly.
TEST(Determinism, SparseCholeskyFactorAcrossThreadCounts) {
  ThreadGuard guard;
  const linalg::CsrMatrix a =
      testsupport::replica_mna_matrix("ibmpg2", 0.1, 7);
  const std::vector<Index> perm = linalg::nd_ordering(a);

  for (const Real tau : {0.0, 1e-3}) {
    const auto factor_at = [&](Index threads) {
      parallel::set_num_threads(threads);
      return linalg::SparseCholesky(a, perm, tau);
    };
    const linalg::SparseCholesky ref = factor_at(1);
    for (const Index threads : kThreadCounts) {
      const linalg::SparseCholesky got = factor_at(threads);
      const auto row_ptr = got.factor_row_ptr();
      const auto col_idx = got.factor_col_idx();
      ASSERT_TRUE(std::equal(row_ptr.begin(), row_ptr.end(),
                             ref.factor_row_ptr().begin(),
                             ref.factor_row_ptr().end()))
          << "row_ptr, tau=" << tau << " threads=" << threads;
      ASSERT_TRUE(std::equal(col_idx.begin(), col_idx.end(),
                             ref.factor_col_idx().begin(),
                             ref.factor_col_idx().end()))
          << "col_idx, tau=" << tau << " threads=" << threads;
      expect_bitwise_equal(to_vector(ref.factor_values()),
                           to_vector(got.factor_values()), "factor values");
    }
  }
}

}  // namespace
}  // namespace ppdl
