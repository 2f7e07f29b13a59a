#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/trainer.hpp"

namespace ppdl::nn {
namespace {

TEST(MlpConfig, PaperDefaultHasTenHiddenLayers) {
  const MlpConfig c = MlpConfig::paper_default();
  EXPECT_EQ(c.inputs, 3);
  EXPECT_EQ(c.outputs, 1);
  EXPECT_EQ(c.hidden.size(), 10u);
  EXPECT_EQ(c.hidden_activation, Activation::kRelu);
  EXPECT_EQ(c.output_activation, Activation::kIdentity);
}

TEST(Mlp, LayerCountIsHiddenPlusOne) {
  Rng rng(1);
  const Mlp mlp(MlpConfig::paper_default(3, 1, 10, 8), rng);
  EXPECT_EQ(mlp.layer_count(), 11);
}

TEST(Mlp, ParameterCountMatchesArchitecture) {
  Rng rng(1);
  MlpConfig c;
  c.inputs = 3;
  c.outputs = 2;
  c.hidden = {4, 5};
  const Mlp mlp(c, rng);
  // (3·4+4) + (4·5+5) + (5·2+2) = 16 + 25 + 12
  EXPECT_EQ(mlp.parameter_count(), 53);
}

TEST(Mlp, ForwardShape) {
  Rng rng(2);
  MlpConfig c;
  c.inputs = 4;
  c.outputs = 2;
  c.hidden = {6};
  Mlp mlp(c, rng);
  Matrix x(7, 4, 0.1);
  const Matrix y = mlp.forward(x);
  EXPECT_EQ(y.rows(), 7);
  EXPECT_EQ(y.cols(), 2);
}

TEST(Mlp, PredictConstMatchesForward) {
  Rng rng(3);
  MlpConfig c;
  c.hidden = {8, 8};
  Mlp mlp(c, rng);
  Matrix x(5, 3);
  Rng data_rng(4);
  for (Real& v : x.data()) {
    v = data_rng.normal();
  }
  const Matrix a = mlp.forward(x, false);
  const Mlp& view = mlp;
  const Matrix b = view.predict(x);
  for (Index r = 0; r < a.rows(); ++r) {
    for (Index col = 0; col < a.cols(); ++col) {
      EXPECT_EQ(a(r, col), b(r, col));
    }
  }
}

// Layer-by-layer reference: DenseMatrix::multiply (k-ascending from 0.0),
// then + bias, then apply_activation — the arithmetic predict() must
// reproduce bit for bit.
Matrix reference_predict(const Mlp& mlp, const Matrix& x) {
  Matrix h = x;
  for (Index l = 0; l < mlp.layer_count(); ++l) {
    const DenseLayer& layer = mlp.layer(l);
    Matrix z = h.multiply(layer.weights());
    for (Index r = 0; r < z.rows(); ++r) {
      for (Index c = 0; c < z.cols(); ++c) {
        z(r, c) += layer.bias()(0, c);
      }
    }
    apply_activation(z, layer.activation());
    h = std::move(z);
  }
  return h;
}

// Same bits (so +0.0 ≠ -0.0), or NaN on both sides.
void expect_same_bits(const Matrix& want, const Matrix& got,
                      const std::string& what) {
  ASSERT_EQ(want.rows(), got.rows()) << what;
  ASSERT_EQ(want.cols(), got.cols()) << what;
  const auto a = want.data();
  const auto b = got.data();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i])) {
      ASSERT_TRUE(std::isnan(b[i])) << what << " element " << i;
    } else {
      ASSERT_EQ(std::bit_cast<U64>(a[i]), std::bit_cast<U64>(b[i]))
          << what << " element " << i << ": " << a[i] << " vs " << b[i];
    }
  }
}

TEST(Mlp, PredictBitIdenticalToLayerByLayerReference) {
  const Activation kinds[] = {Activation::kIdentity, Activation::kRelu,
                              Activation::kLeakyRelu, Activation::kTanh,
                              Activation::kSigmoid};
  const Index row_counts[] = {0, 1, 2, 3, 63, 64, 65, 257, 1000};
  const Index widths[] = {1, 3, 8, 9, 16, 17, 32};
  const Real nan = std::numeric_limits<Real>::quiet_NaN();
  U64 seed = 100;
  for (const Activation act : kinds) {
    for (const Index width : widths) {
      for (const Index outputs : {Index{1}, Index{2}}) {
        MlpConfig c;
        c.inputs = 3;
        c.outputs = outputs;
        c.hidden = {width, width, 9};
        c.hidden_activation = act;
        c.output_activation = act;
        Rng rng(++seed);
        Mlp mlp(c, rng);
        for (Index l = 0; l < mlp.layer_count(); ++l) {
          for (Real& b : mlp.layer(l).bias().data()) {
            b = rng.uniform(-0.5, 0.5);
          }
        }
        for (const Index rows : row_counts) {
          Matrix x(rows, c.inputs);
          for (Real& v : x.data()) {
            v = rng.normal();
          }
          // Signed zeros and NaN in the input, spread over tiles and tails.
          for (Index r = 0; r < rows; r += 5) {
            x(r, r % c.inputs) = (r % 2 == 0) ? 0.0 : -0.0;
          }
          for (Index r = 3; r < rows; r += 11) {
            x(r, (r + 1) % c.inputs) = nan;
          }
          expect_same_bits(reference_predict(mlp, x), mlp.predict(x),
                           "act " + to_string(act) + " width " +
                               std::to_string(width) + " outputs " +
                               std::to_string(outputs) + " rows " +
                               std::to_string(rows));
        }
      }
    }
  }
}

// Matrix-level reference of accumulate_gradients: forward with multiply +
// bias + apply_activation; backward with activation_gradient, a
// zero-skipping xᵀδ loop, row-ascending bias sums and
// multiply(transposed()) — the arithmetic the row kernels must reproduce
// bit for bit.
void reference_accumulate(const Mlp& mlp, const Matrix& x, const Matrix& y,
                          Loss loss, Real delta_scale,
                          Mlp::GradientBuffers& out) {
  std::vector<Matrix> inputs;
  std::vector<Matrix> preacts;
  Matrix h = x;
  for (Index l = 0; l < mlp.layer_count(); ++l) {
    const DenseLayer& layer = mlp.layer(l);
    Matrix z = h.multiply(layer.weights());
    for (Index r = 0; r < z.rows(); ++r) {
      for (Index c = 0; c < z.cols(); ++c) {
        z(r, c) += layer.bias()(0, c);
      }
    }
    inputs.push_back(h);
    preacts.push_back(z);
    apply_activation(z, layer.activation());
    h = std::move(z);
  }
  out.loss_sum +=
      loss_value(h, y, loss) * static_cast<Real>(h.rows() * h.cols());
  Matrix grad = loss_gradient(h, y, loss);
  for (Real& g : grad.data()) {
    g *= delta_scale;
  }
  for (Index l = mlp.layer_count(); l-- > 0;) {
    const DenseLayer& layer = mlp.layer(l);
    Matrix delta = activation_gradient(preacts[l], layer.activation());
    for (std::size_t i = 0; i < delta.data().size(); ++i) {
      delta.data()[i] *= grad.data()[i];
    }
    const Matrix& in = inputs[static_cast<std::size_t>(l)];
    Matrix& gw = out.weight_grads[static_cast<std::size_t>(l)];
    for (Index r = 0; r < in.rows(); ++r) {
      for (Index i = 0; i < gw.rows(); ++i) {
        const Real xi = in(r, i);
        if (xi == 0.0) {
          continue;
        }
        for (Index j = 0; j < gw.cols(); ++j) {
          gw(i, j) += xi * delta(r, j);
        }
      }
    }
    Matrix& gb = out.bias_grads[static_cast<std::size_t>(l)];
    for (Index c = 0; c < gb.cols(); ++c) {
      Real acc = 0.0;
      for (Index r = 0; r < delta.rows(); ++r) {
        acc += delta(r, c);
      }
      gb(0, c) += acc;
    }
    grad = delta.multiply(layer.weights().transposed());
  }
}

TEST(Mlp, AccumulateGradientsBitIdenticalToReference) {
  const Activation kinds[] = {Activation::kIdentity, Activation::kRelu,
                              Activation::kLeakyRelu, Activation::kTanh,
                              Activation::kSigmoid};
  const Loss losses[] = {Loss::kMse, Loss::kMae, Loss::kHuber};
  const Index row_counts[] = {1, 2, 3, 15, 16, 17, 33};
  const Index widths[] = {1, 3, 8, 9, 16, 17};
  constexpr Index kShift = 5;  // second call's row offset
  U64 seed = 500;
  for (const Activation act : kinds) {
    for (const Index width : widths) {
      for (const Loss loss : losses) {
        MlpConfig c;
        c.inputs = 3;
        c.outputs = 2;
        c.hidden = {width, width};
        c.hidden_activation = act;
        c.output_activation = act;
        Rng rng(++seed);
        Mlp mlp(c, rng);
        for (Index l = 0; l < mlp.layer_count(); ++l) {
          for (Real& b : mlp.layer(l).bias().data()) {
            b = rng.uniform(-0.5, 0.5);
          }
        }
        for (const Index rows : row_counts) {
          Matrix x(rows + kShift, c.inputs);
          Matrix y(rows + kShift, c.outputs);
          for (Real& v : x.data()) {
            v = rng.normal();
          }
          for (Real& v : y.data()) {
            v = rng.normal();
          }
          // Exact zeros of both signs take the xᵀδ zero-skip path.
          for (Index r = 0; r < x.rows(); r += 2) {
            x(r, r % c.inputs) = (r % 4 == 0) ? 0.0 : -0.0;
          }
          const Real scale = rows % 2 == 0 ? 1.0 : 0.375;
          Mlp::GradientBuffers want = mlp.make_gradient_buffers();
          Mlp::GradientBuffers got = mlp.make_gradient_buffers();
          // Two accumulations into the same buffers cover the +=, the
          // second over a shifted row range.
          for (const Index begin : {Index{0}, kShift}) {
            reference_accumulate(mlp, slice_rows(x, begin, begin + rows),
                                 slice_rows(y, begin, begin + rows), loss,
                                 scale, want);
            mlp.accumulate_gradients(x, y, begin, begin + rows, loss, scale,
                                     got);
          }
          const std::string what = "act " + to_string(act) + " width " +
                                   std::to_string(width) + " loss " +
                                   to_string(loss) + " rows " +
                                   std::to_string(rows);
          for (Index l = 0; l < mlp.layer_count(); ++l) {
            const auto i = static_cast<std::size_t>(l);
            expect_same_bits(want.weight_grads[i], got.weight_grads[i],
                             what + " dW layer " + std::to_string(l));
            expect_same_bits(want.bias_grads[i], got.bias_grads[i],
                             what + " db layer " + std::to_string(l));
          }
          EXPECT_EQ(std::bit_cast<U64>(want.loss_sum),
                    std::bit_cast<U64>(got.loss_sum))
              << what;
        }
      }
    }
  }
}

TEST(Mlp, DeterministicInitForSeed) {
  Rng rng1(9);
  Rng rng2(9);
  const Mlp a(MlpConfig::paper_default(3, 1, 2, 4), rng1);
  const Mlp b(MlpConfig::paper_default(3, 1, 2, 4), rng2);
  for (Index l = 0; l < a.layer_count(); ++l) {
    const auto wa = a.layer(l).weights().data();
    const auto wb = b.layer(l).weights().data();
    for (std::size_t i = 0; i < wa.size(); ++i) {
      EXPECT_DOUBLE_EQ(wa[i], wb[i]);
    }
  }
}

TEST(Mlp, FullBackpropGradientCheck) {
  Rng rng(11);
  MlpConfig c;
  c.inputs = 2;
  c.outputs = 1;
  c.hidden = {3, 3};
  c.hidden_activation = Activation::kTanh;  // smooth for finite differences
  Mlp mlp(c, rng);

  Matrix x(5, 2);
  Matrix target(5, 1);
  Rng data_rng(12);
  for (Real& v : x.data()) {
    v = data_rng.normal();
  }
  for (Real& v : target.data()) {
    v = data_rng.normal();
  }

  const Matrix pred = mlp.forward(x, true);
  mlp.backward(loss_gradient(pred, target, Loss::kMse));

  const auto loss_of = [&](Mlp& m) {
    return loss_value(m.predict(x), target, Loss::kMse);
  };

  const Real h = 1e-6;
  for (Index l = 0; l < mlp.layer_count(); ++l) {
    const Matrix& grad = mlp.layer(l).weight_grad();
    for (Index i = 0; i < grad.rows(); ++i) {
      for (Index j = 0; j < grad.cols(); ++j) {
        Mlp plus = mlp;
        Mlp minus = mlp;
        plus.layer(l).weights()(i, j) += h;
        minus.layer(l).weights()(i, j) -= h;
        const Real numeric = (loss_of(plus) - loss_of(minus)) / (2 * h);
        EXPECT_NEAR(grad(i, j), numeric, 1e-4)
            << "layer " << l << " W(" << i << "," << j << ")";
      }
    }
  }
}

TEST(Mlp, InputSizeMismatchThrows) {
  Rng rng(13);
  Mlp mlp(MlpConfig::paper_default(3, 1, 1, 4), rng);
  const Matrix bad(2, 5);
  EXPECT_THROW(mlp.forward(bad), ContractViolation);
  EXPECT_THROW(mlp.predict(bad), ContractViolation);
}

TEST(Mlp, InvalidConfigThrows) {
  Rng rng(14);
  MlpConfig c;
  c.inputs = 0;
  EXPECT_THROW(Mlp(c, rng), ContractViolation);
  MlpConfig c2;
  c2.hidden = {0};
  EXPECT_THROW(Mlp(c2, rng), ContractViolation);
}

TEST(Mlp, ParameterSlotsCoverAllParameters) {
  Rng rng(15);
  Mlp mlp(MlpConfig::paper_default(3, 1, 2, 4), rng);
  const auto slots = mlp.parameter_slots();
  Index total = 0;
  for (const ParamSlot& slot : slots) {
    total += static_cast<Index>(slot.value.size());
    EXPECT_EQ(slot.value.size(), slot.grad.size());
  }
  EXPECT_EQ(total, mlp.parameter_count());
}

}  // namespace
}  // namespace ppdl::nn
