// Shared attack configuration and result types.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/nn/lisa_cnn.h"
#include "src/tensor/tensor.h"

namespace blurnet::attack {

/// Shared config-validation helpers behind Rp2Config::validate() /
/// PgdConfig::validate(): descriptive std::invalid_argument in the serving
/// engine's input-validation style, prefixed with the config struct's name.
namespace config_validation {
void require_positive(const char* config_name, int value, const char* field);
void require_positive(const char* config_name, double value, const char* field);
void require_non_negative(const char* config_name, double value, const char* field);
void require_scale_interval(const char* config_name, double min_scale, double max_scale);
}  // namespace config_validation

/// The two faces of an attack victim, split so each can be served by the
/// right machinery:
///
///   * the **gradient side** — the differentiable nn::LisaCnn the optimizer
///     backpropagates through while crafting the perturbation, and
///   * the **prediction side** — how the final clean/adversarial inputs are
///     classified. In the engine-backed evaluation harness this is a batched
///     serve::InferenceEngine::classify call on the victim's variant; when no
///     predict function is supplied it falls back to the gradient model's own
///     predict(), which is bitwise-identical for any replica count or batch
///     split.
///
/// A victim served behind an input-transform defense (the engine's
/// preprocess→forward pipeline) additionally exposes the transform itself,
/// so gradient-based attacks can craft with BPDA straight-through gradients:
/// the crafting forward applies transform_input() to the candidate
/// adversarial batch (matching what the serving path will do), while the
/// backward treats the transform as the identity
/// (autograd::straight_through). The prediction side needs no special
/// handling — the engine applies the transform server-side.
///
/// The gradient side is read-only on the victim: rp2_attack and pgd_attack
/// forward gradient_model().frozen(), so crafting differentiates w.r.t. the
/// input only and never writes a gradient into the model's parameters.
/// Several crafting lanes may therefore share one model (e.g. one engine
/// replica) concurrently.
///
/// The handle is non-owning: the gradient model (and anything the predict /
/// transform functions capture) must outlive it.
class VictimHandle {
 public:
  using PredictFn = std::function<std::vector<int>(const tensor::Tensor&)>;
  using TransformFn = std::function<tensor::Tensor(const tensor::Tensor&)>;

  /// Wrap a plain model: gradients and predictions both come from `model`.
  /*implicit*/ VictimHandle(const nn::LisaCnn& model) : gradient_model_(&model) {}
  /// Split roles: gradients from `model`, final classifications via `predict`.
  VictimHandle(const nn::LisaCnn& model, PredictFn predict)
      : gradient_model_(&model), predict_(std::move(predict)) {}
  /// Full pipeline: gradients from `model`, classifications via `predict`,
  /// and the victim's input transform exposed for BPDA crafting. A null
  /// `transform` means the victim serves the bare forward path.
  VictimHandle(const nn::LisaCnn& model, PredictFn predict, TransformFn transform)
      : gradient_model_(&model),
        predict_(std::move(predict)),
        transform_(std::move(transform)) {}

  const nn::LisaCnn& gradient_model() const { return *gradient_model_; }

  /// True when the victim serves an input transform the attacker must BPDA
  /// through.
  bool has_input_transform() const { return static_cast<bool>(transform_); }

  /// The victim's preprocess stage applied to a batch; identity (shared
  /// storage, no copy) when the victim has none.
  tensor::Tensor transform_input(const tensor::Tensor& images) const {
    return transform_ ? transform_(images) : images;
  }

  /// Classify a batch through the prediction side.
  std::vector<int> classify(const tensor::Tensor& images) const {
    return predict_ ? predict_(images) : gradient_model_->predict(images);
  }

 private:
  const nn::LisaCnn* gradient_model_;
  PredictFn predict_;
  TransformFn transform_;
};

/// Result of attacking a batch of images.
struct AttackResult {
  tensor::Tensor adversarial;       // [N,C,H,W], clamped to [0,1]
  tensor::Tensor perturbation;      // adversarial - natural (masked where applicable)
  tensor::Tensor shared_delta;      // [1,C,H,W] raw shared sticker (RP2 shared mode only)
  std::vector<int> clean_pred;      // victim predictions on natural inputs
  std::vector<int> adv_pred;        // victim predictions on adversarial inputs
  double final_loss = 0.0;

  /// Paper §II-A: fraction of predictions altered by the attack.
  double success_rate_altered() const;
  /// Fraction of adversarial predictions equal to `target`.
  double success_rate_targeted(int target) const;
  /// Mean relative L2 dissimilarity (paper §II-A) vs the naturals.
  double l2_dissimilarity(const tensor::Tensor& natural) const;
};

}  // namespace blurnet::attack
