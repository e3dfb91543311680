#include "src/attack/rp2.h"

#include <stdexcept>
#include <string>

#include "src/attack/eot.h"
#include "src/attack/masks.h"
#include "src/attack/nps.h"
#include "src/autograd/ops.h"
#include "src/nn/optim.h"
#include "src/signal/dct.h"
#include "src/tensor/ops.h"

namespace blurnet::attack {

using autograd::Variable;
using tensor::Tensor;

namespace {

Variable feature_reg_loss(const FeatureRegTerm& term, const Variable& features) {
  switch (term.kind) {
    case FeatureRegTerm::Kind::kNone:
      return Variable();
    case FeatureRegTerm::Kind::kTv:
      return autograd::mul_scalar(autograd::tv_loss(features),
                                  static_cast<float>(term.weight));
    case FeatureRegTerm::Kind::kTikRows:
      return autograd::mul_scalar(autograd::tikhonov_rows(features, term.row_operator),
                                  static_cast<float>(term.weight));
    case FeatureRegTerm::Kind::kTikElementwise:
      return autograd::mul_scalar(
          autograd::tikhonov_elementwise(features, term.elementwise_operator),
          static_cast<float>(term.weight));
  }
  return Variable();
}

}  // namespace

void Rp2Config::validate() const {
  using namespace config_validation;
  require_positive("Rp2Config", iterations, "iterations");
  require_positive("Rp2Config", learning_rate, "learning_rate");
  require_positive("Rp2Config", eot_poses, "eot_poses");
  require_non_negative("Rp2Config", lambda, "lambda");
  require_non_negative("Rp2Config", nps_weight, "nps_weight");
  require_non_negative("Rp2Config", max_rotation, "max_rotation");
  require_non_negative("Rp2Config", max_shift, "max_shift");
  require_non_negative("Rp2Config", feature_reg.weight, "feature_reg.weight");
  require_scale_interval("Rp2Config", min_scale, max_scale);
  if (dct_mask_dim < 0) {
    throw std::invalid_argument("Rp2Config: dct_mask_dim must be non-negative (got " +
                                std::to_string(dct_mask_dim) + ")");
  }
}

AttackResult rp2_attack(const VictimHandle& victim, const Tensor& images,
                        const Tensor& masks, const Rp2Config& config) {
  config.validate();
  // Craft through a frozen view of the victim: the backward differentiates
  // w.r.t. the input only, so no weight gradient is computed or written into
  // the victim's parameters.
  const nn::LisaCnn model = victim.gradient_model().frozen();
  if (images.rank() != 4) throw std::invalid_argument("rp2_attack: images must be NCHW");
  const std::int64_t n = images.dim(0), c = images.dim(1);
  const int h = static_cast<int>(images.dim(2));
  const int w = static_cast<int>(images.dim(3));
  if (masks.dim(0) != n) throw std::invalid_argument("rp2_attack: mask batch mismatch");

  const Tensor mask_c = expand_mask_channels(masks, c);
  const Tensor palette = printable_palette();

  // Pose-batched EOT: K poses per step, every (image, pose) pair forwarded in
  // one graph. The sampler's slot-0 stream is the historical single-pose draw
  // sequence, so K = 1 reproduces the old path bitwise.
  const int poses = config.use_eot ? config.eot_poses : 1;
  EotSampler sampler(config.seed, poses,
                     EotPoseRange{config.max_rotation, config.min_scale, config.max_scale,
                                  config.max_shift});

  // The natural images repeated once per pose (constant, so tiled up front).
  Tensor images_tiled;
  if (poses > 1) {
    images_tiled = Tensor(tensor::Shape::nchw(n * poses, c, h, w));
    const std::int64_t stride = images.numel();
    for (int j = 0; j < poses; ++j) {
      std::copy(images.data(), images.data() + stride, images_tiled.data() + j * stride);
    }
  }

  const tensor::Shape delta_shape = config.shared_perturbation
                                        ? tensor::Shape::nchw(1, c, h, w)
                                        : images.shape();
  Variable delta = Variable::leaf(Tensor::zeros(delta_shape), /*requires_grad=*/true);
  nn::Adam optimizer({delta}, config.learning_rate);

  const std::vector<int> targets(static_cast<std::size_t>(n * poses), config.target_class);
  double final_loss = 0.0;

  for (int iter = 0; iter < config.iterations; ++iter) {
    Variable delta_batch =
        config.shared_perturbation ? autograd::broadcast_batch(delta, n) : delta;
    Variable masked = autograd::mul_const(delta_batch, mask_c);
    if (config.dct_mask_dim > 0) {
      masked = autograd::dct_lowpass(masked, config.dct_mask_dim);
    }

    Variable applied = masked;
    if (config.use_eot) {
      const auto step_poses = sampler.sample_step(h, w);
      // Pose-major tiling: rows [j*n, (j+1)*n) are the whole batch under
      // pose j, so the per-row transform table is K blocks of n entries.
      const Variable tiled = poses > 1 ? autograd::repeat_batch(masked, poses) : masked;
      std::vector<autograd::Affine2D> row_transforms;
      row_transforms.reserve(static_cast<std::size_t>(n * poses));
      for (int j = 0; j < poses; ++j) {
        row_transforms.insert(row_transforms.end(), static_cast<std::size_t>(n),
                              step_poses[static_cast<std::size_t>(j)]);
      }
      applied = autograd::affine_warp(tiled, row_transforms);
    }
    Variable x_adv = autograd::add_const(applied, poses > 1 ? images_tiled : images);
    if (config.bpda && victim.has_input_transform()) {
      // BPDA straight-through: the forward sees exactly what the victim's
      // serving pipeline would (transform applied to the candidate batch),
      // the backward treats the transform as the identity.
      x_adv = autograd::straight_through(x_adv, victim.transform_input(x_adv.value()));
    }

    const auto fwd = model.forward(x_adv);
    // Mean cross-entropy over the [n*K] rows = the empirical expectation of
    // the targeted loss over the K sampled alignments.
    Variable loss = autograd::softmax_cross_entropy(fwd.logits, targets);

    Variable norm_term = config.norm == PerturbationNorm::kL2 ? autograd::l2_norm(masked)
                                                              : autograd::l1_norm(masked);
    loss = autograd::add(loss, autograd::mul_scalar(norm_term,
                                                    static_cast<float>(config.lambda)));
    if (config.nps_weight > 0.0 && c == 3) {
      loss = autograd::add(loss, autograd::mul_scalar(autograd::nps_loss(masked, palette),
                                                      static_cast<float>(config.nps_weight)));
    }
    const Variable reg = feature_reg_loss(config.feature_reg, fwd.features_l1);
    if (reg.defined()) loss = autograd::add(loss, reg);

    optimizer.zero_grad();
    autograd::backward(loss);
    optimizer.step();
    final_loss = loss.scalar_value();

    // Keep δ in a physically meaningful range: the perturbed pixel values
    // x + M·δ must stay realizable, so bound each δ entry to [-1, 1].
    delta.mutable_value() = tensor::clamp(delta.value(), -1.0f, 1.0f);
  }

  // Final adversarial examples: identity alignment, clamped to image range.
  Tensor delta_final = delta.value();
  AttackResult result;
  if (config.shared_perturbation) {
    result.shared_delta = config.dct_mask_dim > 0
                              ? signal::dct_lowpass_nchw(delta_final, config.dct_mask_dim)
                              : delta_final.clone();
  }
  if (config.shared_perturbation) {
    Tensor tiled(images.shape());
    const std::int64_t stride = delta_final.numel();
    for (std::int64_t i = 0; i < n; ++i) {
      std::copy(delta_final.data(), delta_final.data() + stride, tiled.data() + i * stride);
    }
    delta_final = tiled;
  }
  Tensor masked_final = tensor::mul(delta_final, mask_c);
  if (config.dct_mask_dim > 0) {
    masked_final = signal::dct_lowpass_nchw(masked_final, config.dct_mask_dim);
  }
  result.adversarial = tensor::clamp(tensor::add(images, masked_final), 0.0f, 1.0f);
  result.perturbation = tensor::sub(result.adversarial, images);
  result.clean_pred = victim.classify(images);
  result.adv_pred = victim.classify(result.adversarial);
  result.final_loss = final_loss;
  return result;
}

tensor::Tensor apply_shared_sticker(const Tensor& images, const Tensor& masks,
                                    const Tensor& shared_delta) {
  if (images.rank() != 4) throw std::invalid_argument("apply_shared_sticker: images NCHW");
  const std::int64_t n = images.dim(0), c = images.dim(1);
  if (shared_delta.rank() != 4 || shared_delta.dim(0) != 1 ||
      shared_delta.numel() * n != images.numel()) {
    throw std::invalid_argument("apply_shared_sticker: delta must be [1,C,H,W]");
  }
  const Tensor mask_c = expand_mask_channels(masks, c);
  Tensor tiled(images.shape());
  const std::int64_t stride = shared_delta.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    std::copy(shared_delta.data(), shared_delta.data() + stride, tiled.data() + i * stride);
  }
  return tensor::clamp(tensor::add(images, tensor::mul(tiled, mask_c)), 0.0f, 1.0f);
}

}  // namespace blurnet::attack
