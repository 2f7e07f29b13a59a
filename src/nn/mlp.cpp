#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace ppdl::nn {

MlpConfig MlpConfig::paper_default(Index inputs, Index outputs,
                                   Index hidden_layers, Index hidden_units) {
  MlpConfig c;
  c.inputs = inputs;
  c.outputs = outputs;
  c.hidden.assign(static_cast<std::size_t>(hidden_layers), hidden_units);
  return c;
}

Mlp::Mlp(const MlpConfig& config, Rng& rng) : config_(config) {
  PPDL_REQUIRE(config.inputs > 0 && config.outputs > 0,
               "MLP needs positive input/output sizes");
  Index in = config.inputs;
  for (const Index units : config.hidden) {
    PPDL_REQUIRE(units > 0, "hidden layer size must be > 0");
    layers_.emplace_back(in, units, config.hidden_activation, rng);
    in = units;
  }
  layers_.emplace_back(in, config.outputs, config.output_activation, rng);
}

DenseLayer& Mlp::layer(Index i) {
  PPDL_REQUIRE(i >= 0 && i < layer_count(), "layer index out of range");
  return layers_[static_cast<std::size_t>(i)];
}

const DenseLayer& Mlp::layer(Index i) const {
  PPDL_REQUIRE(i >= 0 && i < layer_count(), "layer index out of range");
  return layers_[static_cast<std::size_t>(i)];
}

Matrix Mlp::forward(const Matrix& x, bool train) {
  PPDL_REQUIRE(x.cols() == config_.inputs, "MLP forward: input size mismatch");
  Matrix h = x;
  for (DenseLayer& layer : layers_) {
    h = layer.forward(h, train);
  }
  return h;
}

namespace {

// Inference walks a block of rows through every layer before moving on, so
// the activations live in two block × widest scratch buffers that stay in
// L1. A chunk spans many blocks to amortize the scratch allocation and the
// dispatch. Rows are independent, so neither constant affects the bits.
constexpr Index kPredictBlockRows = 32;
constexpr Index kPredictChunkRows = 32 * kPredictBlockRows;

}  // namespace

Matrix Mlp::predict(const Matrix& x) const {
  PPDL_REQUIRE(x.cols() == config_.inputs, "MLP predict: input size mismatch");
  Matrix out(x.rows(), config_.outputs);
  Index widest = 0;
  for (const DenseLayer& layer : layers_) {
    widest = std::max(widest, layer.out_features());
  }
  const std::size_t scratch_size =
      static_cast<std::size_t>(kPredictBlockRows * widest);
  const std::size_t last = layers_.size() - 1;
  parallel::for_range(x.rows(), kPredictChunkRows, [&](Index begin, Index end) {
    std::vector<Real> ping(scratch_size);
    std::vector<Real> pong(scratch_size);
    for (Index r = begin; r < end; r += kPredictBlockRows) {
      const Index rows = std::min(kPredictBlockRows, end - r);
      const Real* in = x.data().data() + r * config_.inputs;
      for (std::size_t l = 0; l < last; ++l) {
        Real* dst = (l % 2 == 0 ? ping : pong).data();
        layers_[l].apply_rows(in, rows, dst);
        in = dst;
      }
      layers_[last].apply_rows(in, rows,
                               out.data().data() + r * config_.outputs);
    }
  });
  return out;
}

void Mlp::backward(const Matrix& grad_output) {
  Matrix grad = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    grad = it->backward(grad);
  }
}

void Mlp::GradientBuffers::clear() {
  loss_sum = 0.0;
  for (Matrix& g : weight_grads) {
    std::fill(g.data().begin(), g.data().end(), 0.0);
  }
  for (Matrix& g : bias_grads) {
    std::fill(g.data().begin(), g.data().end(), 0.0);
  }
}

Mlp::GradientBuffers Mlp::make_gradient_buffers() const {
  GradientBuffers buffers;
  buffers.weight_grads.reserve(layers_.size());
  buffers.bias_grads.reserve(layers_.size());
  for (const DenseLayer& layer : layers_) {
    buffers.weight_grads.emplace_back(layer.weights().rows(),
                                      layer.weights().cols());
    buffers.bias_grads.emplace_back(1, layer.bias().cols());
  }
  return buffers;
}

void Mlp::accumulate_gradients(const Matrix& x, const Matrix& y, Index begin,
                               Index end, Loss loss, Real delta_scale,
                               GradientBuffers& out) const {
  PPDL_REQUIRE(x.cols() == config_.inputs && y.cols() == config_.outputs,
               "accumulate_gradients: input/output size mismatch");
  PPDL_REQUIRE(begin >= 0 && begin < end && end <= x.rows() &&
                   end <= y.rows(),
               "accumulate_gradients: bad row range");
  PPDL_REQUIRE(out.weight_grads.size() == layers_.size() &&
                   out.bias_grads.size() == layers_.size(),
               "accumulate_gradients: buffer layer count mismatch");
  const Index rows = end - begin;
  Index sum_out = 0;
  Index widest = 0;
  Index largest = 0;
  for (const DenseLayer& layer : layers_) {
    sum_out += layer.out_features();
    widest = std::max({widest, layer.in_features(), layer.out_features()});
    largest = std::max(largest, layer.in_features() * layer.out_features());
  }
  const std::size_t needed =
      static_cast<std::size_t>(2 * rows * sum_out + 2 * rows * widest + largest);
  if (out.workspace.size() < needed) {
    out.workspace.resize(needed);
  }
  Real* const preacts = out.workspace.data();
  Real* const acts = preacts + rows * sum_out;
  Real* delta = acts + rows * sum_out;
  Real* delta_next = delta + rows * widest;
  Real* const wt = delta_next + rows * widest;

  // Forward: layer l's z and σ(z) land at `offset` in their blocks.
  const Real* const x_rows = x.data().data() + begin * config_.inputs;
  const Real* in = x_rows;
  Index offset = 0;
  for (const DenseLayer& layer : layers_) {
    layer.forward_rows(in, rows, preacts + offset, acts + offset);
    in = acts + offset;
    offset += rows * layer.out_features();
  }

  const std::size_t n = static_cast<std::size_t>(rows * config_.outputs);
  const std::span<const Real> pred(in, n);
  const std::span<const Real> target(
      y.data().data() + begin * config_.outputs, n);
  out.loss_sum += loss_value(pred, target, loss) * static_cast<Real>(n);
  loss_gradient(pred, target, loss, std::span<Real>(delta, n));
  if (delta_scale != 1.0) {
    for (std::size_t i = 0; i < n; ++i) {
      delta[i] *= delta_scale;
    }
  }

  // Backward; layer 0's input gradient is never used, so it is skipped.
  for (std::size_t l = layers_.size(); l-- > 0;) {
    const DenseLayer& layer = layers_[l];
    offset -= rows * layer.out_features();
    const Real* layer_in =
        l == 0 ? x_rows : acts + (offset - rows * layer.in_features());
    layer.backward_rows(layer_in, preacts + offset, delta, rows,
                        out.weight_grads[l].data().data(),
                        out.bias_grads[l].data().data(),
                        l == 0 ? nullptr : delta_next, wt);
    std::swap(delta, delta_next);
  }
}

void Mlp::add_gradients(const GradientBuffers& from) {
  PPDL_REQUIRE(from.weight_grads.size() == layers_.size() &&
                   from.bias_grads.size() == layers_.size(),
               "add_gradients: buffer layer count mismatch");
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    auto wg = layers_[l].weight_grad().data();
    const auto fw = from.weight_grads[l].data();
    for (std::size_t i = 0; i < wg.size(); ++i) {
      wg[i] += fw[i];
    }
    auto bg = layers_[l].bias_grad().data();
    const auto fb = from.bias_grads[l].data();
    for (std::size_t i = 0; i < bg.size(); ++i) {
      bg[i] += fb[i];
    }
  }
}

void Mlp::zero_gradients() {
  for (DenseLayer& layer : layers_) {
    auto wg = layer.weight_grad().data();
    std::fill(wg.begin(), wg.end(), 0.0);
    auto bg = layer.bias_grad().data();
    std::fill(bg.begin(), bg.end(), 0.0);
  }
}

std::vector<ParamSlot> Mlp::parameter_slots() {
  std::vector<ParamSlot> slots;
  slots.reserve(layers_.size() * 2);
  for (DenseLayer& layer : layers_) {
    slots.push_back({layer.weights().data(), layer.weight_grad().data()});
    slots.push_back({layer.bias().data(), layer.bias_grad().data()});
  }
  return slots;
}

Index Mlp::parameter_count() const {
  Index total = 0;
  for (const DenseLayer& layer : layers_) {
    total += layer.parameter_count();
  }
  return total;
}

std::vector<Matrix> Mlp::snapshot_parameters() const {
  std::vector<Matrix> snapshot;
  snapshot.reserve(layers_.size() * 2);
  for (const DenseLayer& layer : layers_) {
    snapshot.push_back(layer.weights());
    snapshot.push_back(layer.bias());
  }
  return snapshot;
}

void Mlp::restore_parameters(const std::vector<Matrix>& snapshot) {
  PPDL_REQUIRE(snapshot.size() == layers_.size() * 2,
               "parameter snapshot does not match this model");
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    DenseLayer& layer = layers_[i];
    const Matrix& w = snapshot[2 * i];
    const Matrix& b = snapshot[2 * i + 1];
    PPDL_REQUIRE(w.rows() == layer.weights().rows() &&
                     w.cols() == layer.weights().cols() &&
                     b.rows() == layer.bias().rows() &&
                     b.cols() == layer.bias().cols(),
                 "parameter snapshot does not match this model");
    layer.weights() = w;
    layer.bias() = b;
  }
}

Real Mlp::gradient_norm() const {
  Real sum_sq = 0.0;
  for (const DenseLayer& layer : layers_) {
    for (const Real g : layer.weight_grad().data()) {
      sum_sq += g * g;
    }
    for (const Real g : layer.bias_grad().data()) {
      sum_sq += g * g;
    }
  }
  return std::sqrt(sum_sq);
}

void Mlp::scale_gradients(Real factor) {
  for (DenseLayer& layer : layers_) {
    for (Real& g : layer.weight_grad().data()) {
      g *= factor;
    }
    for (Real& g : layer.bias_grad().data()) {
      g *= factor;
    }
  }
}

}  // namespace ppdl::nn
