// Regression loss functions: value and gradient w.r.t. predictions.
#pragma once

#include <span>
#include <string>

#include "nn/activation.hpp"

namespace ppdl::nn {

enum class Loss { kMse, kMae, kHuber };

std::string to_string(Loss loss);
Loss parse_loss(const std::string& name);

/// Loss value averaged over all elements of (pred, target).
Real loss_value(const Matrix& pred, const Matrix& target, Loss loss,
                Real huber_delta = 1.0);

/// dL/dpred, same shape as pred (already divided by element count so the
/// gradient magnitude is batch-size independent).
Matrix loss_gradient(const Matrix& pred, const Matrix& target, Loss loss,
                     Real huber_delta = 1.0);

/// The same two functions over flat element ranges (for row blocks of a
/// larger matrix); `grad` has pred's size.
Real loss_value(std::span<const Real> pred, std::span<const Real> target,
                Loss loss, Real huber_delta = 1.0);
void loss_gradient(std::span<const Real> pred, std::span<const Real> target,
                   Loss loss, std::span<Real> grad, Real huber_delta = 1.0);

}  // namespace ppdl::nn
