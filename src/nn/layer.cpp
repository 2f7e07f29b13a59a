#include "nn/layer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/check.hpp"

namespace ppdl::nn {

namespace {

// The dense kernels work on 2-row × 8-column register tiles of the output.
// Vec2 is a GCC/Clang generic vector of two doubles: every lane operation
// is the same IEEE multiply or add as the scalar code, so the tile only
// reorders work across outputs, never within one.
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

/// σ(z), with the common ReLU and identity cases inlined; the same values
/// as activate().
Real activate_inline(Real z, Activation act) {
  if (act == Activation::kRelu) {
    return z > 0.0 ? z : 0.0;
  }
  if (act == Activation::kIdentity) {
    return z;
  }
  return activate(z, act);
}

// The dense kernels below compute, per output, z = 0.0 + Σₖ a_k·w_kj (k
// ascending), then + b_j when kBias, store z into `pre` when kPre, and σ(z)
// into `out`. The flags are template parameters so that each caller's
// variant compiles to its own branch-free tile.

/// Scalar path for the column tail [j_begin, n_out) of one row.
template <bool kBias, bool kPre>
void row_tail(const Real* a, Index n_in, const Real* w, const Real* b,
              Index n_out, Index j_begin, Activation act, Real* pre,
              Real* out) {
  for (Index j = j_begin; j < n_out; ++j) {
    Real acc = 0.0;
    for (Index k = 0; k < n_in; ++k) {
      acc += a[k] * w[k * n_out + j];
    }
    if constexpr (kBias) {
      acc += b[j];
    }
    if constexpr (kPre) {
      pre[j] = acc;
    }
    out[j] = activate_inline(acc, act);
  }
}

/// Rows a0, a1 × columns [0, 8) of W (row stride n_out); the bias add, the
/// pre-activation store and the activation run on the finished tile.
template <bool kBias, bool kPre>
void tile_2x8(const Real* a0, const Real* a1, Index n_in, const Real* w,
              const Real* b, Index n_out, Activation act, Real* pre0,
              Real* pre1, Real* out0, Real* out1) {
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
    Vec2 z0 = acc0[q];
    Vec2 z1 = acc1[q];
    if constexpr (kBias) {
      const Vec2 bq = load2(b + 2 * q);
      z0 += bq;
      z1 += bq;
    }
    if constexpr (kPre) {
      store2(pre0 + 2 * q, z0);
      store2(pre1 + 2 * q, z1);
    }
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

/// The one dense kernel: `rows` row-major rows of `in` (row stride n_in)
/// times W (n_in × n_out), as 2 × 8 tiles plus scalar tails. `pre` (when
/// kPre) and `out` are rows × n_out.
template <bool kBias, bool kPre>
void affine_rows(const Real* in, Index rows, Index n_in, const Real* w,
                 const Real* b, Index n_out, Activation act, Real* pre,
                 Real* out) {
  const Index tiled_cols = n_out - n_out % kTileCols;
  Index i = 0;
  for (; i + 2 <= rows; i += 2) {
    const Real* a0 = in + i * n_in;
    const Real* a1 = a0 + n_in;
    Real* out0 = out + i * n_out;
    Real* out1 = out0 + n_out;
    Real* pre0 = kPre ? pre + i * n_out : nullptr;
    Real* pre1 = kPre ? pre0 + n_out : nullptr;
    for (Index j = 0; j < tiled_cols; j += kTileCols) {
      tile_2x8<kBias, kPre>(a0, a1, n_in, w + j, kBias ? b + j : nullptr,
                            n_out, act, kPre ? pre0 + j : nullptr,
                            kPre ? pre1 + j : nullptr, out0 + j, out1 + j);
    }
    row_tail<kBias, kPre>(a0, n_in, w, b, n_out, tiled_cols, act, pre0, out0);
    row_tail<kBias, kPre>(a1, n_in, w, b, n_out, tiled_cols, act, pre1, out1);
  }
  if (i < rows) {
    row_tail<kBias, kPre>(in + i * n_in, n_in, w, b, n_out, 0, act,
                          kPre ? pre + i * n_out : nullptr, out + i * n_out);
  }
}

/// grad_w += xᵀ·δ over `rows` rows (x is rows × n_in, δ rows × n_out).
/// Each element adds x(r,i)·δ(r,j) for r ascending and skips rows with
/// x(r,i) == 0, the serial reference's sequence. The rows to add are
/// listed once per grad_w row (a branch-free compaction: ReLU inputs make
/// the skip a coin flip, which a per-row branch would mispredict), and
/// the tile keeps 8 columns of that grad_w row in registers across them.
void weight_grad_rows(const Real* x, Index rows, Index n_in,
                      const Real* delta, Index n_out, Real* grad_w) {
  constexpr Index kRowBlock = 64;
  const Index tiled_cols = n_out - n_out % kTileCols;
  Index live[kRowBlock] = {};
  for (Index r0 = 0; r0 < rows; r0 += kRowBlock) {
    const Index r1 = std::min(rows, r0 + kRowBlock);
    for (Index i = 0; i < n_in; ++i) {
      Index n_live = 0;
      for (Index r = r0; r < r1; ++r) {
        live[n_live] = r;
        n_live += x[r * n_in + i] != 0.0 ? 1 : 0;
      }
      Real* gw = grad_w + i * n_out;
      for (Index j = 0; j < tiled_cols; j += kTileCols) {
        Vec2 acc[kTileVecs];
#pragma GCC unroll 4
        for (Index q = 0; q < kTileVecs; ++q) {
          acc[q] = load2(gw + j + 2 * q);
        }
        for (Index t = 0; t < n_live; ++t) {
          const Index r = live[t];
          const Real xi = x[r * n_in + i];
          const Real* d = delta + r * n_out + j;
#pragma GCC unroll 4
          for (Index q = 0; q < kTileVecs; ++q) {
            acc[q] += xi * load2(d + 2 * q);
          }
        }
#pragma GCC unroll 4
        for (Index q = 0; q < kTileVecs; ++q) {
          store2(gw + j + 2 * q, acc[q]);
        }
      }
      for (Index j = tiled_cols; j < n_out; ++j) {
        Real acc = gw[j];
        for (Index t = 0; t < n_live; ++t) {
          const Index r = live[t];
          acc += x[r * n_in + i] * delta[r * n_out + j];
        }
        gw[j] = acc;
      }
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

Matrix DenseLayer::forward(const Matrix& x, bool train) {
  PPDL_REQUIRE(x.cols() == weights_.rows(), "layer forward: shape mismatch");
  Matrix z(x.rows(), weights_.cols());
  Matrix a(x.rows(), weights_.cols());
  forward_rows(x.data().data(), x.rows(), z.data().data(), a.data().data());
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
  affine_rows<true, false>(in, rows, weights_.rows(), weights_.data().data(),
                           bias_.data().data(), weights_.cols(), activation_,
                           nullptr, out);
}

void DenseLayer::forward_rows(const Real* in, Index rows, Real* preact,
                              Real* out) const {
  affine_rows<true, true>(in, rows, weights_.rows(), weights_.data().data(),
                          bias_.data().data(), weights_.cols(), activation_,
                          preact, out);
}

void DenseLayer::backward_rows(const Real* in, const Real* preact,
                               Real* delta, Index rows, Real* grad_w,
                               Real* grad_b, Real* grad_in,
                               Real* wt_scratch) const {
  const Index n_in = weights_.rows();
  const Index n_out = weights_.cols();

  // δ = σ'(z) ⊙ dL/dy.
  const Index n = rows * n_out;
  if (activation_ == Activation::kRelu) {
    for (Index i = 0; i < n; ++i) {
      delta[i] = (preact[i] > 0.0 ? 1.0 : 0.0) * delta[i];
    }
  } else {
    for (Index i = 0; i < n; ++i) {
      delta[i] = activate_grad(preact[i], activation_) * delta[i];
    }
  }

  // dW += xᵀ δ ; db += column sums of δ ; dx = δ Wᵀ.
  weight_grad_rows(in, rows, n_in, delta, n_out, grad_w);
  for (Index c = 0; c < n_out; ++c) {
    Real acc = 0.0;
    for (Index r = 0; r < rows; ++r) {
      acc += delta[r * n_out + c];
    }
    grad_b[c] += acc;
  }
  if (grad_in == nullptr) {
    return;
  }
  const Real* w = weights_.data().data();
  for (Index k = 0; k < n_in; ++k) {
    for (Index j = 0; j < n_out; ++j) {
      wt_scratch[j * n_in + k] = w[k * n_out + j];
    }
  }
  affine_rows<false, false>(delta, rows, n_out, wt_scratch, nullptr, n_in,
                            Activation::kIdentity, nullptr, grad_in);
}

Matrix DenseLayer::backward(const Matrix& grad_out) {
  PPDL_REQUIRE(has_cache_, "backward without cached forward pass");
  PPDL_REQUIRE(grad_out.rows() == cached_preact_.rows() &&
                   grad_out.cols() == cached_preact_.cols(),
               "layer backward: shape mismatch");
  // Gradients are written in place: optimizer ParamSlot spans captured once
  // must stay valid across training steps.
  std::fill(grad_weights_.data().begin(), grad_weights_.data().end(), 0.0);
  std::fill(grad_bias_.data().begin(), grad_bias_.data().end(), 0.0);
  Matrix delta = grad_out;
  Matrix grad_in(grad_out.rows(), weights_.rows());
  Matrix wt(weights_.cols(), weights_.rows());
  backward_rows(cached_input_.data().data(), cached_preact_.data().data(),
                delta.data().data(), grad_out.rows(),
                grad_weights_.data().data(), grad_bias_.data().data(),
                grad_in.data().data(), wt.data().data());
  has_cache_ = false;
  return grad_in;
}

}  // namespace ppdl::nn
