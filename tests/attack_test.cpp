#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <thread>

#include "src/attack/adaptive.h"
#include "src/attack/eot.h"
#include "src/attack/masks.h"
#include "src/attack/nps.h"
#include "src/attack/pgd.h"
#include "src/attack/rp2.h"
#include "src/autograd/ops.h"
#include "src/nn/optim.h"
#include "src/tensor/ops.h"
#include "src/signal/dct.h"
#include "src/signal/spectrum.h"
#include "src/util/rng.h"
#include "tests/test_helpers.h"

namespace blurnet::attack {
namespace {

using blurnet::testing::tiny_trained_model;

TEST(Masks, StickerInsideSignRegion) {
  const auto stop_set = data::stop_sign_eval_set(3);
  const auto sticker = sticker_mask(stop_set.masks);
  EXPECT_EQ(sticker.shape(), stop_set.masks.shape());
  for (std::int64_t i = 0; i < sticker.numel(); ++i) {
    EXPECT_LE(sticker[i], stop_set.masks[i]);  // sticker ⊆ sign region
  }
  EXPECT_GT(mask_coverage(sticker), 0.005);
  EXPECT_LT(mask_coverage(sticker), 0.25);
}

TEST(Masks, TwoSeparateBars) {
  const auto stop_set = data::stop_sign_eval_set(1);
  const auto sticker = sticker_mask(stop_set.masks);
  // Count rows containing mask pixels; two bars => the set of active rows has
  // a gap.
  std::vector<int> active_rows;
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      if (sticker[y * 32 + x] > 0.5f) {
        active_rows.push_back(y);
        break;
      }
    }
  }
  ASSERT_GE(active_rows.size(), 2u);
  bool has_gap = false;
  for (std::size_t i = 1; i < active_rows.size(); ++i) {
    if (active_rows[i] - active_rows[i - 1] > 1) has_gap = true;
  }
  EXPECT_TRUE(has_gap);
}

TEST(Masks, ExpandChannelsReplicates) {
  const auto stop_set = data::stop_sign_eval_set(1);
  const auto expanded = expand_mask_channels(stop_set.masks, 3);
  EXPECT_EQ(expanded.shape(), tensor::Shape::nchw(1, 3, 32, 32));
  for (std::int64_t i = 0; i < 32 * 32; ++i) {
    EXPECT_FLOAT_EQ(expanded[i], expanded[32 * 32 + i]);
  }
}

TEST(Nps, PaletteShapeAndRange) {
  const auto palette = printable_palette();
  EXPECT_EQ(palette.rank(), 2);
  EXPECT_EQ(palette.dim(1), 3);
  EXPECT_GE(palette.min(), 0.0f);
  EXPECT_LE(palette.max(), 1.0f);
}

TEST(AttackResult, MetricArithmetic) {
  AttackResult result;
  result.clean_pred = {0, 0, 1, 2};
  result.adv_pred = {5, 0, 5, 2};
  EXPECT_DOUBLE_EQ(result.success_rate_altered(), 0.5);
  EXPECT_DOUBLE_EQ(result.success_rate_targeted(5), 0.5);
  EXPECT_DOUBLE_EQ(result.success_rate_targeted(7), 0.0);
}

// ---- frozen pre-pose-batching reference -------------------------------------
// A faithful copy of the single-pose rp2_attack loop as it existed before the
// pose-batched EOT refactor: one util::Rng(config.seed) stream drawing
// rotation, scale, shift-x, shift-y per iteration, one affine_warp of the
// whole batch per step. The refactored attack with eot_poses = 1 must
// reproduce it bitwise. (No DCT/NPS-free shortcuts — only the feature
// regularizer, unused by these configs, is omitted.)
AttackResult reference_rp2_single_pose(const nn::LisaCnn& model, const tensor::Tensor& images,
                                       const tensor::Tensor& masks, const Rp2Config& config) {
  using autograd::Variable;
  using tensor::Tensor;
  const std::int64_t n = images.dim(0), c = images.dim(1);
  const int h = static_cast<int>(images.dim(2));
  const int w = static_cast<int>(images.dim(3));
  const Tensor mask_c = expand_mask_channels(masks, c);
  const Tensor palette = printable_palette();
  util::Rng rng(config.seed);

  const tensor::Shape delta_shape = config.shared_perturbation
                                        ? tensor::Shape::nchw(1, c, h, w)
                                        : images.shape();
  Variable delta = Variable::leaf(Tensor::zeros(delta_shape), /*requires_grad=*/true);
  nn::Adam optimizer({delta}, config.learning_rate);

  const std::vector<int> targets(static_cast<std::size_t>(n), config.target_class);
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
      // The old loop drew these inside the argument list of
      // rotation_scale_about_center, which the repo's GCC toolchain
      // evaluates right to left; sequencing the draws in that order keeps
      // this reference equal to the shipped pre-refactor binaries while
      // staying well-defined on every compiler.
      const double dy = rng.uniform(-config.max_shift, config.max_shift);
      const double dx = rng.uniform(-config.max_shift, config.max_shift);
      const double scale = rng.uniform(config.min_scale, config.max_scale);
      const double rotation = rng.uniform(-config.max_rotation, config.max_rotation);
      const auto transform =
          autograd::Affine2D::rotation_scale_about_center(rotation, scale, dx, dy, h, w);
      applied = autograd::affine_warp(masked, transform);
    }
    Variable x_adv = autograd::add_const(applied, images);

    const auto fwd = model.forward(x_adv);
    Variable loss = autograd::softmax_cross_entropy(fwd.logits, targets);
    Variable norm_term = config.norm == PerturbationNorm::kL2 ? autograd::l2_norm(masked)
                                                              : autograd::l1_norm(masked);
    loss = autograd::add(loss, autograd::mul_scalar(norm_term,
                                                    static_cast<float>(config.lambda)));
    if (config.nps_weight > 0.0 && c == 3) {
      loss = autograd::add(loss, autograd::mul_scalar(autograd::nps_loss(masked, palette),
                                                      static_cast<float>(config.nps_weight)));
    }
    optimizer.zero_grad();
    autograd::backward(loss);
    optimizer.step();
    final_loss = loss.scalar_value();
    delta.mutable_value() = tensor::clamp(delta.value(), -1.0f, 1.0f);
  }

  Tensor delta_final = delta.value();
  AttackResult result;
  if (config.shared_perturbation) {
    result.shared_delta = config.dct_mask_dim > 0
                              ? signal::dct_lowpass_nchw(delta_final, config.dct_mask_dim)
                              : delta_final.clone();
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
  result.clean_pred = model.predict(images);
  result.adv_pred = model.predict(result.adversarial);
  result.final_loss = final_loss;
  return result;
}

void expect_results_bitwise_equal(const AttackResult& a, const AttackResult& b) {
  ASSERT_EQ(a.adversarial.numel(), b.adversarial.numel());
  for (std::int64_t i = 0; i < a.adversarial.numel(); ++i) {
    ASSERT_EQ(a.adversarial[i], b.adversarial[i]) << "adversarial diverged at " << i;
  }
  for (std::int64_t i = 0; i < a.perturbation.numel(); ++i) {
    ASSERT_EQ(a.perturbation[i], b.perturbation[i]) << "perturbation diverged at " << i;
  }
  ASSERT_EQ(a.shared_delta.numel(), b.shared_delta.numel());
  for (std::int64_t i = 0; i < a.shared_delta.numel(); ++i) {
    ASSERT_EQ(a.shared_delta[i], b.shared_delta[i]) << "shared_delta diverged at " << i;
  }
  EXPECT_EQ(a.clean_pred, b.clean_pred);
  EXPECT_EQ(a.adv_pred, b.adv_pred);
  EXPECT_EQ(a.final_loss, b.final_loss);
}

// The K = 1 regression the refactor is pinned to: pose-batched rp2_attack at
// eot_poses = 1 is bitwise identical to the pre-refactor single-pose path,
// in shared and per-image mode, with and without the DCT projection.
TEST(Rp2, EotSinglePoseBitwiseMatchesPreRefactorPath) {
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(2);
  const auto sticker = sticker_mask(stop_set.masks);

  Rp2Config shared;
  shared.iterations = 12;
  shared.target_class = 5;
  ASSERT_EQ(shared.eot_poses, 1);
  expect_results_bitwise_equal(
      rp2_attack(model, stop_set.images, sticker, shared),
      reference_rp2_single_pose(model, stop_set.images, sticker, shared));

  Rp2Config per_image = shared;
  per_image.shared_perturbation = false;
  per_image.seed = 77;
  expect_results_bitwise_equal(
      rp2_attack(model, stop_set.images, sticker, per_image),
      reference_rp2_single_pose(model, stop_set.images, sticker, per_image));

  Rp2Config low_freq = shared;
  low_freq.dct_mask_dim = 8;
  expect_results_bitwise_equal(
      rp2_attack(model, stop_set.images, sticker, low_freq),
      reference_rp2_single_pose(model, stop_set.images, sticker, low_freq));
}

// ---- EOT pose sampler determinism -------------------------------------------

void expect_poses_equal(const autograd::Affine2D& a, const autograd::Affine2D& b) {
  EXPECT_EQ(a.m00, b.m00);
  EXPECT_EQ(a.m01, b.m01);
  EXPECT_EQ(a.m10, b.m10);
  EXPECT_EQ(a.m11, b.m11);
  EXPECT_EQ(a.tx, b.tx);
  EXPECT_EQ(a.ty, b.ty);
}

TEST(EotSampler, SlotStreamsAreIndependentOfPoseCount) {
  // Slot k's pose sequence depends only on (seed, k): sampling with a larger
  // K must not perturb the poses any existing slot produces. In particular
  // slot 0 with any K replays the K = 1 (historical single-pose) sequence.
  const EotPoseRange range{};
  EotSampler k1(42, 1, range);
  EotSampler k3(42, 3, range);
  EotSampler k8(42, 8, range);
  for (int step = 0; step < 5; ++step) {
    const auto p1 = k1.sample_step(32, 32);
    const auto p3 = k3.sample_step(32, 32);
    const auto p8 = k8.sample_step(32, 32);
    ASSERT_EQ(p1.size(), 1u);
    ASSERT_EQ(p3.size(), 3u);
    ASSERT_EQ(p8.size(), 8u);
    expect_poses_equal(p1[0], p3[0]);
    expect_poses_equal(p1[0], p8[0]);
    expect_poses_equal(p3[1], p8[1]);
    expect_poses_equal(p3[2], p8[2]);
  }
}

TEST(EotSampler, SlotZeroReplaysHistoricalSinglePoseStream) {
  // The exact draw contract the K = 1 regression rests on: slot 0 consumes
  // util::Rng(seed) as (shift-y, shift-x, scale, rotation) per step — the
  // effective order of the pre-refactor loop (see eot.h).
  const EotPoseRange range{};
  EotSampler sampler(7, 1, range);
  util::Rng rng(7);
  for (int step = 0; step < 4; ++step) {
    const auto pose = sampler.sample_step(32, 32)[0];
    const double dy = rng.uniform(-range.max_shift, range.max_shift);
    const double dx = rng.uniform(-range.max_shift, range.max_shift);
    const double scale = rng.uniform(range.min_scale, range.max_scale);
    const double rotation = rng.uniform(-range.max_rotation, range.max_rotation);
    const auto expected =
        autograd::Affine2D::rotation_scale_about_center(rotation, scale, dx, dy, 32, 32);
    expect_poses_equal(pose, expected);
  }
}

TEST(EotSampler, RejectsInvalidConfiguration) {
  EXPECT_THROW(EotSampler(1, 0, EotPoseRange{}), std::invalid_argument);
  EotPoseRange inverted;
  inverted.min_scale = 1.2;
  inverted.max_scale = 0.8;
  EXPECT_THROW(EotSampler(1, 2, inverted), std::invalid_argument);
}

// ---- pose-batched attacks ---------------------------------------------------

TEST(Rp2, PoseBatchedAttackRespectsMaskAndRange) {
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(2);
  const auto sticker = sticker_mask(stop_set.masks);
  Rp2Config config;
  config.iterations = 10;
  config.target_class = 3;
  config.eot_poses = 4;
  const auto result = rp2_attack(model, stop_set.images, sticker, config);
  ASSERT_EQ(result.shared_delta.shape(), tensor::Shape::nchw(1, 3, 32, 32));
  EXPECT_GE(result.adversarial.min(), 0.0f);
  EXPECT_LE(result.adversarial.max(), 1.0f);
  EXPECT_TRUE(std::isfinite(result.final_loss));
  const auto mask3 = expand_mask_channels(sticker, 3);
  for (std::int64_t i = 0; i < result.perturbation.numel(); ++i) {
    if (mask3[i] < 0.5f) {
      ASSERT_FLOAT_EQ(result.perturbation[i], 0.0f) << "leak outside mask at " << i;
    }
  }
}

TEST(Rp2, ConfigValidationRejectsBadFields) {
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(1);
  const auto sticker = sticker_mask(stop_set.masks);
  auto expect_rejected = [&](const Rp2Config& config, const std::string& needle) {
    try {
      rp2_attack(model, stop_set.images, sticker, config);
      FAIL() << "expected std::invalid_argument mentioning " << needle;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  Rp2Config config;
  config.iterations = 0;
  expect_rejected(config, "iterations");
  config = {};
  config.learning_rate = -0.1;
  expect_rejected(config, "learning_rate");
  config = {};
  config.eot_poses = 0;
  expect_rejected(config, "eot_poses");
  config = {};
  config.min_scale = 1.5;
  config.max_scale = 0.5;
  expect_rejected(config, "min_scale");
  config = {};
  config.max_rotation = -0.1;
  expect_rejected(config, "max_rotation");
  config = {};
  config.max_shift = -1.0;
  expect_rejected(config, "max_shift");
  config = {};
  config.dct_mask_dim = -1;
  expect_rejected(config, "dct_mask_dim");
}

TEST(Adaptive, EotPosesAdapterSetsPoseCount) {
  Rp2Config base;
  EXPECT_EQ(eot_poses_config(base, 8).eot_poses, 8);
  const auto adapter = compose(low_frequency_adapter(8), eot_poses_adapter(4));
  const auto adapted = adapter(base);
  EXPECT_EQ(adapted.dct_mask_dim, 8);
  EXPECT_EQ(adapted.eot_poses, 4);
  // Null sides are identity.
  EXPECT_EQ(compose(nullptr, eot_poses_adapter(2))(base).eot_poses, 2);
  EXPECT_EQ(compose(eot_poses_adapter(3), nullptr)(base).eot_poses, 3);
}

TEST(Pgd, ConfigValidationRejectsBadFields) {
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(1);
  const std::vector<int> labels(1, 0);
  auto expect_rejected = [&](const PgdConfig& config, const std::string& needle) {
    try {
      pgd_attack(model, stop_set.images, labels, config);
      FAIL() << "expected std::invalid_argument mentioning " << needle;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  PgdConfig config;
  config.steps = 0;
  expect_rejected(config, "steps");
  config = {};
  config.step_size = 0.0;
  expect_rejected(config, "step_size");
  config = {};
  config.epsilon = -0.5;
  expect_rejected(config, "epsilon");
  config = {};
  config.eot_poses = -2;
  expect_rejected(config, "eot_poses");
  config = {};
  config.min_scale = 2.0;
  config.max_scale = 1.0;
  expect_rejected(config, "min_scale");
}

TEST(Pgd, PoseBatchedEotStaysInEpsilonBall) {
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(2);
  const std::vector<int> labels(2, 0);
  PgdConfig config;
  config.epsilon = 8.0 / 255.0;
  config.steps = 5;
  config.eot_poses = 3;
  const auto result = pgd_attack(model, stop_set.images, labels, config);
  EXPECT_LE(result.perturbation.abs_max(), static_cast<float>(config.epsilon) + 1e-5f);
  EXPECT_GE(result.adversarial.min(), 0.0f);
  EXPECT_LE(result.adversarial.max(), 1.0f);
  EXPECT_TRUE(std::isfinite(result.final_loss));
}

TEST(Rp2, PerturbationRespectsMask) {
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(2);
  const auto sticker = sticker_mask(stop_set.masks);
  Rp2Config config;
  config.iterations = 15;
  config.target_class = 5;
  const auto result = rp2_attack(model, stop_set.images, sticker, config);
  // Outside the sticker mask the perturbation must be exactly zero.
  const auto mask3 = expand_mask_channels(sticker, 3);
  for (std::int64_t i = 0; i < result.perturbation.numel(); ++i) {
    if (mask3[i] < 0.5f) {
      EXPECT_FLOAT_EQ(result.perturbation[i], 0.0f) << "leak outside mask at " << i;
    }
  }
}

TEST(Rp2, AdversarialStaysInImageRange) {
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(2);
  const auto sticker = sticker_mask(stop_set.masks);
  Rp2Config config;
  config.iterations = 15;
  config.target_class = 3;
  const auto result = rp2_attack(model, stop_set.images, sticker, config);
  EXPECT_GE(result.adversarial.min(), 0.0f);
  EXPECT_LE(result.adversarial.max(), 1.0f);
}

TEST(Rp2, ReducesTargetLossVsRandomSticker) {
  // The optimized sticker must raise the target-class probability above what
  // an unoptimized (zero) sticker achieves. Per-image mode without EOT
  // isolates the optimization property from cross-image generalization.
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(2);
  const auto sticker = sticker_mask(stop_set.masks);
  const int target = 9;
  Rp2Config config;
  config.iterations = 120;
  config.target_class = target;
  config.shared_perturbation = false;
  config.use_eot = false;
  config.seed = 11;
  const auto result = rp2_attack(model, stop_set.images, sticker, config);

  auto mean_target_prob = [&](const tensor::Tensor& images) {
    const auto probs = tensor::softmax_rows(model.logits(images));
    double acc = 0;
    for (std::int64_t i = 0; i < probs.dim(0); ++i) acc += probs.at2(i, target);
    return acc / static_cast<double>(probs.dim(0));
  };
  EXPECT_GT(mean_target_prob(result.adversarial), mean_target_prob(stop_set.images));
}

TEST(Rp2, SharedDeltaReproducesAdversarialExamples) {
  // In shared mode the result must expose the raw sticker, and re-applying it
  // through apply_shared_sticker must reproduce the adversarial batch.
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(3);
  const auto sticker = sticker_mask(stop_set.masks);
  Rp2Config config;
  config.iterations = 10;
  config.target_class = 2;
  config.shared_perturbation = true;
  const auto result = rp2_attack(model, stop_set.images, sticker, config);
  ASSERT_EQ(result.shared_delta.shape(), tensor::Shape::nchw(1, 3, 32, 32));
  const auto reapplied =
      apply_shared_sticker(stop_set.images, sticker, result.shared_delta);
  for (std::int64_t i = 0; i < reapplied.numel(); ++i) {
    ASSERT_NEAR(reapplied[i], result.adversarial[i], 1e-6);
  }
}

TEST(Rp2, SharedStickerTransfersToNewInstances) {
  // The physical-attack evaluation step: the crafted sticker applied to a
  // held-out set stays inside each instance's own mask and image range.
  const auto& model = tiny_trained_model();
  const auto craft = data::stop_sign_eval_set(2, 32, 101);
  const auto eval = data::stop_sign_eval_set(3, 32, 202);
  Rp2Config config;
  config.iterations = 10;
  config.target_class = 4;
  const auto crafted = rp2_attack(model, craft.images, sticker_mask(craft.masks), config);
  const auto eval_sticker = sticker_mask(eval.masks);
  const auto adversarial = apply_shared_sticker(eval.images, eval_sticker, crafted.shared_delta);
  EXPECT_GE(adversarial.min(), 0.0f);
  EXPECT_LE(adversarial.max(), 1.0f);
  const auto mask3 = expand_mask_channels(eval_sticker, 3);
  for (std::int64_t i = 0; i < adversarial.numel(); ++i) {
    if (mask3[i] < 0.5f) {
      ASSERT_FLOAT_EQ(adversarial[i], eval.images[i]) << "sticker leaked outside mask";
    }
  }
}

TEST(Rp2, PerImageModeGivesIndependentPerturbations) {
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(2);
  const auto sticker = sticker_mask(stop_set.masks);
  Rp2Config config;
  config.iterations = 20;
  config.target_class = 2;
  config.shared_perturbation = false;
  const auto result = rp2_attack(model, stop_set.images, sticker, config);
  EXPECT_EQ(result.adversarial.dim(0), 2);
  EXPECT_GE(result.adversarial.min(), 0.0f);
  EXPECT_LE(result.adversarial.max(), 1.0f);
}

TEST(Rp2, LowFrequencyPerturbationIsLowFrequency) {
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(1);
  const auto sticker = sticker_mask(stop_set.masks);
  Rp2Config config;
  config.iterations = 25;
  config.target_class = 7;
  const auto adaptive = low_frequency_config(config, 8);
  EXPECT_EQ(adaptive.dct_mask_dim, 8);
  const auto result = rp2_attack(model, stop_set.images, sticker, adaptive);
  // Energy of the perturbation must be concentrated in the low 8x8 DCT block.
  const auto plane = signal::extract_plane(result.perturbation, 0, 0);
  double energy = 0;
  for (const double v : plane) energy += v * v;
  if (energy > 1e-9) {
    EXPECT_GT(signal::dct_lowfreq_energy_fraction(plane, 32, 32, 8), 0.85);
  }
}

TEST(Adaptive, ConfigConstructorsSetFields) {
  Rp2Config base;
  const auto tv = tv_aware_config(base, 2.0);
  EXPECT_EQ(tv.feature_reg.kind, FeatureRegTerm::Kind::kTv);
  EXPECT_DOUBLE_EQ(tv.feature_reg.weight, 2.0);

  const tensor::Tensor l_hf = tensor::Tensor::ones(tensor::Shape::mat(4, 4));
  const auto hf = tik_hf_aware_config(base, l_hf);
  EXPECT_EQ(hf.feature_reg.kind, FeatureRegTerm::Kind::kTikRows);
  EXPECT_EQ(hf.feature_reg.row_operator.numel(), 16);

  const auto pseudo = tik_pseudo_aware_config(base, l_hf);
  EXPECT_EQ(pseudo.feature_reg.kind, FeatureRegTerm::Kind::kTikElementwise);
}

TEST(Rp2, RegularizerAwareAttackRuns) {
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(1);
  const auto sticker = sticker_mask(stop_set.masks);
  Rp2Config base;
  base.iterations = 10;
  base.target_class = 4;
  const auto result = rp2_attack(model, stop_set.images, sticker, tv_aware_config(base));
  EXPECT_EQ(result.adv_pred.size(), 1u);
}

TEST(Pgd, RespectsEpsilonBall) {
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(3);
  const std::vector<int> labels(3, 0);
  PgdConfig config;
  config.epsilon = 8.0 / 255.0;
  config.steps = 5;
  const auto result = pgd_attack(model, stop_set.images, labels, config);
  EXPECT_LE(result.perturbation.abs_max(), static_cast<float>(config.epsilon) + 1e-5f);
  EXPECT_GE(result.adversarial.min(), 0.0f);
  EXPECT_LE(result.adversarial.max(), 1.0f);
}

TEST(Pgd, IncreasesTrueLabelLoss) {
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(4);
  const std::vector<int> labels(4, 0);
  PgdConfig config;
  config.steps = 8;
  config.random_start = false;
  const auto result = pgd_attack(model, stop_set.images, labels, config);

  auto mean_true_prob = [&](const tensor::Tensor& images) {
    const auto probs = tensor::softmax_rows(model.logits(images));
    double acc = 0;
    for (std::int64_t i = 0; i < probs.dim(0); ++i) acc += probs.at2(i, 0);
    return acc / static_cast<double>(probs.dim(0));
  };
  EXPECT_LT(mean_true_prob(result.adversarial), mean_true_prob(stop_set.images) + 1e-6);
}

TEST(Pgd, UnrestrictedAdversaryBreaksTinyModel) {
  // Table IV's premise at unit-test scale: PGD with a generous budget flips
  // most predictions of an undefended model.
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(6);
  const std::vector<int> labels(6, 0);
  PgdConfig config;
  config.epsilon = 16.0 / 255.0;
  config.steps = 20;
  config.step_size = 0.02;
  const auto result = pgd_attack(model, stop_set.images, labels, config);
  EXPECT_GE(result.success_rate_altered(), 0.5);
}

TEST(Fgsm, SingleStepMatchesEpsilonBudget) {
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(2);
  const std::vector<int> labels(2, 0);
  const auto result = fgsm_attack(model, stop_set.images, labels, 0.05);
  EXPECT_LE(result.perturbation.abs_max(), 0.05f + 1e-5f);
}

TEST(Pgd, TargetedModeDrivesTowardTarget) {
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(3);
  const std::vector<int> labels(3, 0);
  PgdConfig config;
  config.targeted = true;
  config.target_class = 6;
  config.epsilon = 16.0 / 255.0;
  config.steps = 15;
  config.step_size = 0.02;
  const auto result = pgd_attack(model, stop_set.images, labels, config);
  auto target_prob = [&](const tensor::Tensor& images) {
    const auto probs = tensor::softmax_rows(model.logits(images));
    double acc = 0;
    for (std::int64_t i = 0; i < probs.dim(0); ++i) acc += probs.at2(i, 6);
    return acc;
  };
  EXPECT_GT(target_prob(result.adversarial), target_prob(stop_set.images));
}

// ---- crafting is read-only on the victim -------------------------------------

// The paper's defended architecture at test size: a 5x5 box blur after L1.
nn::LisaCnnConfig defended_tiny_config() {
  nn::LisaCnnConfig config = blurnet::testing::tiny_model_config();
  config.fixed_filter = {nn::FilterPlacement::kAfterLayer1, 5, signal::KernelKind::kBox};
  return config;
}

void expect_no_parameter_gradients(const nn::LisaCnn& model, const char* attack) {
  for (const auto& [name, param] : model.named_parameters()) {
    EXPECT_FALSE(param.has_grad()) << attack << " wrote a gradient into " << name;
  }
}

TEST(Rp2, CraftingLeavesNoGradientOnVictimParameters) {
  const auto stop_set = data::stop_sign_eval_set(2);
  const auto sticker = sticker_mask(stop_set.masks);
  for (const int poses : {1, 4}) {
    const nn::LisaCnn model(defended_tiny_config());
    // BPDA through a served input transform, straight-through in the backward.
    const VictimHandle victim(model, nullptr, [](const tensor::Tensor& images) {
      return tensor::clamp(images, 0.05f, 0.95f);
    });
    Rp2Config config;
    config.iterations = 3;
    config.target_class = 4;
    config.eot_poses = poses;
    const auto result = rp2_attack(victim, stop_set.images, sticker, config);
    EXPECT_TRUE(std::isfinite(result.final_loss));
    expect_no_parameter_gradients(model, poses == 1 ? "rp2 K=1" : "rp2 K=4");
  }
}

TEST(Pgd, CraftingLeavesNoGradientOnVictimParameters) {
  const auto stop_set = data::stop_sign_eval_set(2);
  const std::vector<int> labels(2, 0);
  for (const int poses : {1, 4}) {
    nn::LisaCnnConfig config = defended_tiny_config();
    config.learnable_depthwise_kernel = 3;
    const nn::LisaCnn model(config);
    const VictimHandle victim(model, nullptr, [](const tensor::Tensor& images) {
      return tensor::clamp(images, 0.05f, 0.95f);
    });
    PgdConfig pgd;
    pgd.steps = 3;
    pgd.eot_poses = poses;
    const auto result = pgd_attack(victim, stop_set.images, labels, pgd);
    EXPECT_TRUE(std::isfinite(result.final_loss));
    expect_no_parameter_gradients(model, poses == 1 ? "pgd K=1" : "pgd K=4");
  }
}

// Two crafting lanes sharing one replica: each forwards its own frozen view,
// so neither writes into the shared model and both reproduce a serial run.
TEST(Rp2, ConcurrentCraftingOnOneSharedModelMatchesSerial) {
  const nn::LisaCnn model(defended_tiny_config());
  const auto stop_set = data::stop_sign_eval_set(2);
  const auto sticker = sticker_mask(stop_set.masks);
  Rp2Config config;
  config.iterations = 4;
  config.target_class = 3;
  config.eot_poses = 2;
  const AttackResult serial = rp2_attack(model, stop_set.images, sticker, config);
  AttackResult first, second;
  std::thread lane_a([&] { first = rp2_attack(model, stop_set.images, sticker, config); });
  std::thread lane_b([&] { second = rp2_attack(model, stop_set.images, sticker, config); });
  lane_a.join();
  lane_b.join();
  expect_results_bitwise_equal(first, serial);
  expect_results_bitwise_equal(second, serial);
  expect_no_parameter_gradients(model, "concurrent rp2");
}

}  // namespace
}  // namespace blurnet::attack
