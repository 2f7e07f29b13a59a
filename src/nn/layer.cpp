#include "nn/layer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/check.hpp"

namespace ppdl::nn {

namespace {

// The inference kernel works on 2-row × 8-column register tiles of the
// output. Vec2 is a GCC/Clang generic vector of two doubles: every lane
// operation is the same IEEE multiply or add as the scalar code, so the
// tile only reorders work across outputs, never within one.
using Vec2 = Real __attribute__((vector_size(16)));
constexpr Index kTileCols = 8;
constexpr Index kTileVecs = kTileCols / 2;

Vec2 load2(const Real* p) {
  Vec2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store2(Real* p, Vec2 v) { std::memcpy(p, &v, sizeof v); }

/// Lane-wise `x > 0.0 ? x : 0.0` (NaN and -0.0 map to +0.0, as activate()).
Vec2 relu2(Vec2 v) {
  const auto positive = v > Vec2{0.0, 0.0};
  return std::bit_cast<Vec2>(std::bit_cast<decltype(positive)>(v) & positive);
}

/// Scalar path for the column tail [j_begin, n_out) of one row.
void row_tail(const Real* a, Index n_in, const Real* w, const Real* b,
              Index n_out, Index j_begin, Activation act, Real* out) {
  for (Index j = j_begin; j < n_out; ++j) {
    Real acc = 0.0;
    for (Index k = 0; k < n_in; ++k) {
      acc += a[k] * w[k * n_out + j];
    }
    out[j] = activate(acc + b[j], act);
  }
}

/// Rows a0, a1 × columns [0, 8) of W (row stride n_out), bias and
/// activation fused into the store.
void tile_2x8(const Real* a0, const Real* a1, Index n_in, const Real* w,
              const Real* b, Index n_out, Activation act, Real* out0,
              Real* out1) {
  Vec2 acc0[kTileVecs] = {};
  Vec2 acc1[kTileVecs] = {};
  for (Index k = 0; k < n_in; ++k) {
    const Real* wk = w + k * n_out;
    const Real x0 = a0[k];
    const Real x1 = a1[k];
#pragma GCC unroll 4
    for (Index q = 0; q < kTileVecs; ++q) {
      const Vec2 wq = load2(wk + 2 * q);
      acc0[q] += x0 * wq;
      acc1[q] += x1 * wq;
    }
  }
#pragma GCC unroll 4
  for (Index q = 0; q < kTileVecs; ++q) {
    const Vec2 bq = load2(b + 2 * q);
    Vec2 z0 = acc0[q] + bq;
    Vec2 z1 = acc1[q] + bq;
    if (act == Activation::kRelu) {
      z0 = relu2(z0);
      z1 = relu2(z1);
    }
    store2(out0 + 2 * q, z0);
    store2(out1 + 2 * q, z1);
  }
  if (act != Activation::kRelu && act != Activation::kIdentity) {
    for (Index c = 0; c < kTileCols; ++c) {
      out0[c] = activate(out0[c], act);
      out1[c] = activate(out1[c], act);
    }
  }
}

}  // namespace

DenseLayer::DenseLayer(Index in_features, Index out_features,
                       Activation activation, Rng& rng)
    : weights_(in_features, out_features),
      bias_(1, out_features),
      activation_(activation),
      grad_weights_(in_features, out_features),
      grad_bias_(1, out_features) {
  PPDL_REQUIRE(in_features > 0 && out_features > 0,
               "layer dimensions must be > 0");
  // He-uniform: U(−√(6/fan_in), +√(6/fan_in)).
  const Real bound = std::sqrt(6.0 / static_cast<Real>(in_features));
  for (Real& w : weights_.data()) {
    w = rng.uniform(-bound, bound);
  }
}

Matrix DenseLayer::forward_into(const Matrix& x, Matrix& preact) const {
  PPDL_REQUIRE(x.cols() == weights_.rows(), "layer forward: shape mismatch");
  Matrix z = x.multiply(weights_);
  for (Index r = 0; r < z.rows(); ++r) {
    for (Index c = 0; c < z.cols(); ++c) {
      z(r, c) += bias_(0, c);
    }
  }
  preact = z;
  apply_activation(z, activation_);
  return z;
}

Matrix DenseLayer::forward(const Matrix& x, bool train) {
  Matrix z;
  Matrix a = forward_into(x, z);
  if (train) {
    cached_input_ = x;
    cached_preact_ = std::move(z);
    has_cache_ = true;
  }
  return a;
}

Matrix DenseLayer::apply(const Matrix& x) const {
  PPDL_REQUIRE(x.cols() == weights_.rows(), "layer apply: shape mismatch");
  Matrix z(x.rows(), weights_.cols());
  apply_rows(x.data().data(), x.rows(), z.data().data());
  return z;
}

void DenseLayer::apply_rows(const Real* in, Index rows, Real* out) const {
  const Index n_in = weights_.rows();
  const Index n_out = weights_.cols();
  const Real* w = weights_.data().data();
  const Real* b = bias_.data().data();
  const Index tiled_cols = n_out - n_out % kTileCols;
  Index i = 0;
  for (; i + 2 <= rows; i += 2) {
    const Real* a0 = in + i * n_in;
    const Real* a1 = a0 + n_in;
    Real* out0 = out + i * n_out;
    Real* out1 = out0 + n_out;
    for (Index j = 0; j < tiled_cols; j += kTileCols) {
      tile_2x8(a0, a1, n_in, w + j, b + j, n_out, activation_, out0 + j,
               out1 + j);
    }
    row_tail(a0, n_in, w, b, n_out, tiled_cols, activation_, out0);
    row_tail(a1, n_in, w, b, n_out, tiled_cols, activation_, out1);
  }
  if (i < rows) {
    row_tail(in + i * n_in, n_in, w, b, n_out, 0, activation_,
             out + i * n_out);
  }
}

Matrix DenseLayer::backward_into(const Matrix& grad_out, const Matrix& x,
                                 const Matrix& preact, Matrix& grad_w,
                                 Matrix& grad_b) const {
  PPDL_REQUIRE(grad_out.rows() == preact.rows() &&
                   grad_out.cols() == preact.cols(),
               "layer backward: shape mismatch");
  PPDL_REQUIRE(grad_w.rows() == weights_.rows() &&
                   grad_w.cols() == weights_.cols() &&
                   grad_b.cols() == bias_.cols(),
               "layer backward: gradient buffer shape mismatch");

  // δ = grad_out ⊙ σ'(z)
  Matrix delta = activation_gradient(preact, activation_);
  {
    auto d = delta.data();
    const auto g = grad_out.data();
    for (std::size_t i = 0; i < d.size(); ++i) {
      d[i] *= g[i];
    }
  }

  // dW += xᵀ δ ; db += column sums of δ ; dx = δ Wᵀ.
  for (Index r = 0; r < x.rows(); ++r) {
    for (Index i = 0; i < grad_w.rows(); ++i) {
      const Real xi = x(r, i);
      if (xi == 0.0) {
        continue;
      }
      for (Index j = 0; j < grad_w.cols(); ++j) {
        grad_w(i, j) += xi * delta(r, j);
      }
    }
  }
  for (Index c = 0; c < grad_b.cols(); ++c) {
    Real acc = 0.0;
    for (Index r = 0; r < delta.rows(); ++r) {
      acc += delta(r, c);
    }
    grad_b(0, c) += acc;
  }
  return delta.multiply(weights_.transposed());
}

Matrix DenseLayer::backward(const Matrix& grad_out) {
  PPDL_REQUIRE(has_cache_, "backward without cached forward pass");
  // Gradients are written in place: optimizer ParamSlot spans captured once
  // must stay valid across training steps.
  std::fill(grad_weights_.data().begin(), grad_weights_.data().end(), 0.0);
  std::fill(grad_bias_.data().begin(), grad_bias_.data().end(), 0.0);
  Matrix grad_in = backward_into(grad_out, cached_input_, cached_preact_,
                                 grad_weights_, grad_bias_);
  has_cache_ = false;
  return grad_in;
}

}  // namespace ppdl::nn
