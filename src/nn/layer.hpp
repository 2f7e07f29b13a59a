// Fully connected layer with cached forward state for backprop.
#pragma once

#include "common/rng.hpp"
#include "nn/activation.hpp"

namespace ppdl::nn {

/// y = σ(x · W + b) for a batch of row vectors x.
class DenseLayer {
 public:
  /// He-uniform initialization scaled for the fan-in (suits ReLU family);
  /// biases start at zero.
  DenseLayer(Index in_features, Index out_features, Activation activation,
             Rng& rng);

  Index in_features() const { return weights_.rows(); }
  Index out_features() const { return weights_.cols(); }
  Activation activation() const { return activation_; }

  /// Forward pass; caches input and pre-activations when `train` is true.
  /// A wrapper over forward_rows().
  Matrix forward(const Matrix& x, bool train);

  /// Inference-only forward pass: no caching, usable on const models.
  Matrix apply(const Matrix& x) const;

  /// The inference kernel: out = σ(in · W + b) over `rows` dense row-major
  /// rows (`in` is rows × in_features, `out` rows × out_features; they must
  /// not overlap). Each output is computed as 0.0 + Σₖ in(i,k)·W(k,j) with k
  /// ascending, then + b(j), then σ — bit-identical to
  /// DenseMatrix::multiply + bias + apply_activation, and independent of
  /// how a batch is split into calls.
  void apply_rows(const Real* in, Index rows, Real* out) const;

  /// The training forward kernel: apply_rows() that also keeps the
  /// pre-activations z = in · W + b in `preact` (rows × out_features).
  void forward_rows(const Real* in, Index rows, Real* preact, Real* out) const;

  /// The training backward kernel over the rows a forward_rows() call saw
  /// (`in`, `preact`). On entry `delta` holds dL/dy (rows × out_features);
  /// it is overwritten with dL/dz = σ'(z) ⊙ dL/dy. Accumulates (+=)
  /// dW = inᵀ·δ into `grad_w` (in × out, each element summed over rows in
  /// ascending order, skipping rows whose input is 0) and db = column sums
  /// of δ into `grad_b`. When `grad_in` is non-null, also writes
  /// dL/dx = δ·Wᵀ (rows × in_features, same arithmetic as
  /// DenseMatrix::multiply) into it, staging Wᵀ in `wt_scratch`
  /// (in × out values). Const, and touches only the caller's buffers, so
  /// sub-batches can run concurrently against the same weights.
  void backward_rows(const Real* in, const Real* preact, Real* delta,
                     Index rows, Real* grad_w, Real* grad_b, Real* grad_in,
                     Real* wt_scratch) const;

  /// Backward pass for the cached batch: takes dL/dy, fills dL/dW and dL/db,
  /// returns dL/dx. Must follow a forward(…, /*train=*/true). A wrapper
  /// over backward_rows().
  Matrix backward(const Matrix& grad_out);

  // Parameter and gradient access for optimizers and serialization.
  Matrix& weights() { return weights_; }
  const Matrix& weights() const { return weights_; }
  Matrix& bias() { return bias_; }
  const Matrix& bias() const { return bias_; }
  const Matrix& weight_grad() const { return grad_weights_; }
  const Matrix& bias_grad() const { return grad_bias_; }
  Matrix& weight_grad() { return grad_weights_; }
  Matrix& bias_grad() { return grad_bias_; }

  Index parameter_count() const {
    return weights_.rows() * weights_.cols() + bias_.cols();
  }

 private:
  Matrix weights_;       // in × out
  Matrix bias_;          // 1 × out
  Activation activation_;

  // Training caches.
  Matrix cached_input_;   // batch × in
  Matrix cached_preact_;  // batch × out
  bool has_cache_ = false;

  Matrix grad_weights_;
  Matrix grad_bias_;
};

}  // namespace ppdl::nn
