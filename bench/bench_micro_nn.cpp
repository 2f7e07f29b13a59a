// E10 — google-benchmark microbenchmarks of the NN substrate: forward
// inference, backward pass, and one Adam step on the paper's architecture
// (3 inputs → 10 hidden layers → 1 output). These underpin the DL side of
// the Table IV cost model (inference is linear in batch rows).
#include <benchmark/benchmark.h>

#include "bench_support.hpp"
#include "common/rng.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"

using namespace ppdl;

namespace {

nn::Matrix random_batch(Index rows, Index cols, U64 seed) {
  Rng rng(seed);
  nn::Matrix m(rows, cols);
  for (Real& v : m.data()) {
    v = rng.normal();
  }
  return m;
}

/// One multiply and one add per weight per row: the forward pass's FLOPs.
Real forward_flops_per_row(const nn::Mlp& mlp) {
  Real flops = 0.0;
  for (Index l = 0; l < mlp.layer_count(); ++l) {
    flops += 2.0 * static_cast<Real>(mlp.layer(l).in_features() *
                                     mlp.layer(l).out_features());
  }
  return flops;
}

/// `flops_per_row` × rows × iterations, as a rate over wall time.
void set_flops_counter(benchmark::State& state, Real flops_per_row) {
  state.counters["FLOPS"] = benchmark::Counter(
      static_cast<Real>(state.iterations()) * static_cast<Real>(state.range(0)) *
          flops_per_row,
      benchmark::Counter::kIsRate);
}

void BM_MlpForward(benchmark::State& state) {
  Rng rng(1);
  nn::Mlp mlp(nn::MlpConfig::paper_default(3, 1, 10, state.range(1)), rng);
  const nn::Matrix x = random_batch(state.range(0), 3, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.predict(x));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  set_flops_counter(state, forward_flops_per_row(mlp));
}
BENCHMARK(BM_MlpForward)
    ->ArgsProduct({{256, 4096, 65536}, {16, 32}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_MlpTrainStep(benchmark::State& state) {
  Rng rng(3);
  nn::Mlp mlp(nn::MlpConfig::paper_default(3, 1, 10, 16), rng);
  const nn::Matrix x = random_batch(state.range(0), 3, 4);
  const nn::Matrix y = random_batch(state.range(0), 1, 5);
  nn::AdamOptimizer adam(1e-3);
  const std::vector<nn::ParamSlot> slots = mlp.parameter_slots();
  for (auto _ : state) {
    const nn::Matrix pred = mlp.forward(x, /*train=*/true);
    mlp.backward(nn::loss_gradient(pred, y, nn::Loss::kMse));
    adam.step(slots);
    benchmark::DoNotOptimize(pred.data().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MlpTrainStep)
    ->Arg(128)
    ->Arg(512)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

/// One epoch of nn::train (Adam, batch 128, no validation split) on the
/// paper's 3 → 10×16 → 1 model — the offline fit's unit of work.
void BM_TrainEpoch(benchmark::State& state) {
  const nn::Matrix x = random_batch(state.range(0), 3, 4);
  const nn::Matrix y = random_batch(state.range(0), 1, 5);
  const nn::MlpConfig config = nn::MlpConfig::paper_default(3, 1, 10, 16);
  nn::TrainOptions opts;
  opts.epochs = 1;
  opts.batch_size = 128;
  opts.validation_fraction = 0.0;
  for (auto _ : state) {
    Rng rng(3);
    nn::Mlp mlp(config, rng);
    benchmark::DoNotOptimize(nn::train(mlp, x, y, opts));
    benchmark::DoNotOptimize(mlp.layer(0).weights().data().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  // Forward, dW = xᵀδ and dx = δWᵀ: about three forward passes per row.
  Rng rng(3);
  set_flops_counter(state, 3.0 * forward_flops_per_row(nn::Mlp(config, rng)));
}
BENCHMARK(BM_TrainEpoch)
    ->Arg(4096)
    ->Arg(20000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_AdamStepOnly(benchmark::State& state) {
  Rng rng(6);
  nn::Mlp mlp(nn::MlpConfig::paper_default(3, 1, 10, 32), rng);
  // One real backward fills the gradients, then time the optimizer alone.
  const nn::Matrix x = random_batch(64, 3, 7);
  const nn::Matrix y = random_batch(64, 1, 8);
  const nn::Matrix pred = mlp.forward(x, true);
  mlp.backward(nn::loss_gradient(pred, y, nn::Loss::kMse));
  nn::AdamOptimizer adam(1e-3);
  const std::vector<nn::ParamSlot> slots = mlp.parameter_slots();
  for (auto _ : state) {
    adam.step(slots);
  }
  state.SetItemsProcessed(state.iterations() * mlp.parameter_count());
}
BENCHMARK(BM_AdamStepOnly)->Unit(benchmark::kMicrosecond);

/// Thread-scaling trajectory over the parallel NN hot paths → BENCH_nn.json.
void emit_thread_scaling_json() {
  std::vector<benchsupport::ThreadBenchRecord> records;

  {
    Rng rng(1);
    nn::Mlp mlp(nn::MlpConfig::paper_default(3, 1, 10, 32), rng);
    const Index rows = 16384;
    const nn::Matrix x = random_batch(rows, 3, 2);
    benchsupport::sweep_threads(
        "mlp_forward", rows,
        [&] { benchmark::DoNotOptimize(mlp.predict(x)); }, records);
  }
  {
    const Index rows = 4096;
    const nn::Matrix x = random_batch(rows, 3, 4);
    const nn::Matrix y = random_batch(rows, 1, 5);
    benchsupport::sweep_threads(
        "train_epoch", rows,
        [&] {
          Rng rng(3);
          nn::Mlp mlp(nn::MlpConfig::paper_default(3, 1, 10, 16), rng);
          nn::TrainOptions opts;
          opts.epochs = 1;
          opts.batch_size = 256;
          opts.validation_fraction = 0.0;
          nn::train(mlp, x, y, opts);
        },
        records);
  }

  benchsupport::write_bench_json("BENCH_nn.json", records);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  emit_thread_scaling_json();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
