#include "src/attack/pgd.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/attack/eot.h"
#include "src/autograd/ops.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"

namespace blurnet::attack {

using autograd::Variable;
using tensor::Tensor;

namespace {

// Salts the EOT pose streams away from the random-start noise stream, which
// consumes util::Rng(config.seed) directly.
constexpr std::uint64_t kPgdEotSeedSalt = 0x706f7365626f7353ULL;

Tensor project_linf(const Tensor& adv, const Tensor& natural, double epsilon) {
  Tensor out(adv.shape());
  const float eps = static_cast<float>(epsilon);
  const float* pa = adv.data();
  const float* pn = natural.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < adv.numel(); ++i) {
    const float lo = std::max(0.0f, pn[i] - eps);
    const float hi = std::min(1.0f, pn[i] + eps);
    po[i] = std::clamp(pa[i], lo, hi);
  }
  return out;
}

}  // namespace

void PgdConfig::validate() const {
  using namespace config_validation;
  require_positive("PgdConfig", steps, "steps");
  require_positive("PgdConfig", eot_poses, "eot_poses");
  require_positive("PgdConfig", epsilon, "epsilon");
  require_positive("PgdConfig", step_size, "step_size");
  require_non_negative("PgdConfig", max_rotation, "max_rotation");
  require_non_negative("PgdConfig", max_shift, "max_shift");
  require_scale_interval("PgdConfig", min_scale, max_scale);
}

AttackResult pgd_attack(const VictimHandle& victim, const Tensor& images,
                        const std::vector<int>& labels, const PgdConfig& config) {
  config.validate();
  // Craft through a frozen view of the victim: the backward differentiates
  // w.r.t. the input only, so no weight gradient is computed or written into
  // the victim's parameters.
  const nn::LisaCnn model = victim.gradient_model().frozen();
  if (images.rank() != 4) throw std::invalid_argument("pgd_attack: images must be NCHW");
  if (static_cast<std::int64_t>(labels.size()) != images.dim(0)) {
    throw std::invalid_argument("pgd_attack: label count mismatch");
  }

  util::Rng rng(config.seed);
  Tensor x_adv = images.clone();
  if (config.random_start) {
    float* p = x_adv.data();
    for (std::int64_t i = 0; i < x_adv.numel(); ++i) {
      p[i] = std::clamp(
          p[i] + static_cast<float>(rng.uniform(-config.epsilon, config.epsilon)), 0.0f,
          1.0f);
    }
  }

  const std::vector<int> attack_labels =
      config.targeted ? std::vector<int>(labels.size(), config.target_class) : labels;
  // Untargeted PGD ascends the true-label loss; targeted PGD descends the
  // target-label loss.
  const float direction = config.targeted ? -1.0f : 1.0f;

  // Pose-batched EOT (K > 1): every step forwards all (image, pose) pairs in
  // one [n*K] graph and averages the loss over poses. K = 1 keeps the
  // historical non-EOT path — no tiling, no warp node.
  const int poses = config.eot_poses;
  const std::int64_t n = images.dim(0);
  const int h = static_cast<int>(images.dim(2));
  const int w = static_cast<int>(images.dim(3));
  EotSampler sampler(config.seed ^ kPgdEotSeedSalt, poses,
                     EotPoseRange{config.max_rotation, config.min_scale, config.max_scale,
                                  config.max_shift});
  // Pose-major label tiling mirrors repeat_batch: block j is the whole batch.
  std::vector<int> tiled_labels;
  tiled_labels.reserve(attack_labels.size() * static_cast<std::size_t>(poses));
  for (int j = 0; j < poses; ++j) {
    tiled_labels.insert(tiled_labels.end(), attack_labels.begin(), attack_labels.end());
  }

  double final_loss = 0.0;
  for (int step = 0; step < config.steps; ++step) {
    Variable x = Variable::leaf(x_adv.clone(), /*requires_grad=*/true);
    Variable input = x;
    if (poses > 1) {
      const auto step_poses = sampler.sample_step(h, w);
      std::vector<autograd::Affine2D> row_transforms;
      row_transforms.reserve(static_cast<std::size_t>(n) * poses);
      for (int j = 0; j < poses; ++j) {
        row_transforms.insert(row_transforms.end(), static_cast<std::size_t>(n),
                              step_poses[static_cast<std::size_t>(j)]);
      }
      input = autograd::affine_warp(autograd::repeat_batch(x, poses), row_transforms);
    }
    if (config.bpda && victim.has_input_transform()) {
      // BPDA straight-through: the model input is transformed exactly as the
      // serving pipeline would transform it; gradients skip the transform.
      input = autograd::straight_through(input, victim.transform_input(input.value()));
    }
    Variable loss = autograd::softmax_cross_entropy(model.forward(input).logits,
                                                    poses > 1 ? tiled_labels : attack_labels);
    autograd::backward(loss);
    final_loss = loss.scalar_value();
    const Tensor step_dir = tensor::sign(x.grad());
    x_adv.add_scaled_(step_dir, direction * static_cast<float>(config.step_size));
    x_adv = project_linf(x_adv, images, config.epsilon);
  }

  AttackResult result;
  result.adversarial = x_adv;
  result.perturbation = tensor::sub(x_adv, images);
  result.clean_pred = victim.classify(images);
  result.adv_pred = victim.classify(x_adv);
  result.final_loss = final_loss;
  return result;
}

AttackResult fgsm_attack(const VictimHandle& victim, const Tensor& images,
                         const std::vector<int>& labels, double epsilon) {
  PgdConfig config;
  config.epsilon = epsilon;
  config.step_size = epsilon;
  config.steps = 1;
  config.random_start = false;
  return pgd_attack(victim, images, labels, config);
}

}  // namespace blurnet::attack
