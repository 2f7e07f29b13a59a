#include "nn/loss.hpp"

#include <cmath>

#include "common/check.hpp"

namespace ppdl::nn {

std::string to_string(Loss loss) {
  switch (loss) {
    case Loss::kMse:
      return "mse";
    case Loss::kMae:
      return "mae";
    case Loss::kHuber:
      return "huber";
  }
  return "?";
}

Loss parse_loss(const std::string& name) {
  if (name == "mse") {
    return Loss::kMse;
  }
  if (name == "mae") {
    return Loss::kMae;
  }
  if (name == "huber") {
    return Loss::kHuber;
  }
  PPDL_REQUIRE(false, "unknown loss: " + name);
  return Loss::kMse;  // unreachable
}

Real loss_value(const Matrix& pred, const Matrix& target, Loss loss,
                Real huber_delta) {
  PPDL_REQUIRE(pred.rows() == target.rows() && pred.cols() == target.cols(),
               "loss: shape mismatch");
  return loss_value(pred.data(), target.data(), loss, huber_delta);
}

Matrix loss_gradient(const Matrix& pred, const Matrix& target, Loss loss,
                     Real huber_delta) {
  PPDL_REQUIRE(pred.rows() == target.rows() && pred.cols() == target.cols(),
               "loss gradient: shape mismatch");
  Matrix grad(pred.rows(), pred.cols());
  loss_gradient(pred.data(), target.data(), loss, grad.data(), huber_delta);
  return grad;
}

Real loss_value(std::span<const Real> p, std::span<const Real> t, Loss loss,
                Real huber_delta) {
  PPDL_REQUIRE(p.size() == t.size(), "loss: shape mismatch");
  PPDL_REQUIRE(!p.empty(), "loss of empty matrices");
  Real acc = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const Real d = p[i] - t[i];
    switch (loss) {
      case Loss::kMse:
        acc += d * d;
        break;
      case Loss::kMae:
        acc += std::abs(d);
        break;
      case Loss::kHuber: {
        const Real ad = std::abs(d);
        acc += (ad <= huber_delta) ? 0.5 * d * d
                                   : huber_delta * (ad - 0.5 * huber_delta);
        break;
      }
    }
  }
  return acc / static_cast<Real>(p.size());
}

void loss_gradient(std::span<const Real> p, std::span<const Real> t,
                   Loss loss, std::span<Real> g, Real huber_delta) {
  PPDL_REQUIRE(p.size() == t.size() && p.size() == g.size(),
               "loss gradient: shape mismatch");
  const Real inv_n = 1.0 / static_cast<Real>(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    const Real d = p[i] - t[i];
    switch (loss) {
      case Loss::kMse:
        g[i] = 2.0 * d * inv_n;
        break;
      case Loss::kMae:
        g[i] = (d > 0.0 ? 1.0 : (d < 0.0 ? -1.0 : 0.0)) * inv_n;
        break;
      case Loss::kHuber:
        g[i] = (std::abs(d) <= huber_delta
                    ? d
                    : huber_delta * (d > 0.0 ? 1.0 : -1.0)) *
               inv_n;
        break;
    }
  }
}

}  // namespace ppdl::nn
