// Per-layer replays for the traced run. Each replays one layer of the served
// program through the same public calls the program makes, so a per-layer
// number describes the code that served the workload's requests:
//
//   nn.*       the variant's forward, stage by stage, through autograd ops with
//              the replica's own weights; held bitwise equal to
//              InferenceEngine::classify_logits for every variant in the mix.
//   linalg.*   linalg::sgemm on the model's conv GEMM shapes and a square peak.
//   defense.*  the median3 variant's InputTransform::apply.
//   net.*      the wire codecs on single-image frames.
//   attack.*   the RP2 steps of the workload's first rp2_attack call, held
//              bitwise equal to rp2_attack's sticker.
#include <cstring>
#include <functional>
#include <map>

#include "perfbench/src/bench.h"
#include "src/attack/eot.h"
#include "src/attack/masks.h"
#include "src/attack/nps.h"
#include "src/autograd/ops.h"
#include "src/linalg/gemm.h"
#include "src/net/wire.h"
#include "src/nn/optim.h"
#include "src/signal/kernels.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"

namespace perfbench {

namespace ag = blurnet::autograd;
namespace attack = blurnet::attack;
namespace nn = blurnet::nn;
namespace serve = blurnet::serve;
namespace tensor = blurnet::tensor;
using ag::Variable;

namespace {

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Median duration (microseconds) of `fn` over at least `min_reps` calls and
/// at least `budget_s` seconds.
double median_us(const std::function<void()>& fn, int min_reps, double budget_s) {
  fn();  // warm scratch and caches
  std::vector<double> samples;
  const Clock::time_point begin = Clock::now();
  while (static_cast<int>(samples.size()) < min_reps || seconds_since(begin) < budget_s) {
    const Clock::time_point t0 = Clock::now();
    fn();
    samples.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  return quantile(samples, 0.5);
}

/// One stage of a variant's forward, as the model runs it.
struct Stage {
  const char* name;
  double macs_per_image;
  std::function<Variable(const Variable&)> run;
};

std::vector<Stage> forward_stages(const nn::LisaCnn& model) {
  const nn::LisaCnnConfig& cfg = model.config();
  if (cfg.learnable_depthwise_kernel != 0 ||
      (cfg.fixed_filter.placement != nn::FilterPlacement::kNone &&
       cfg.fixed_filter.placement != nn::FilterPlacement::kAfterLayer1)) {
    throw std::invalid_argument("layer replay covers plain and after-layer-1 variants only");
  }
  std::map<std::string, Variable> p;
  for (const auto& [name, value] : model.named_parameters()) p[name] = value;
  auto side_after = [](std::int64_t in, int kernel, int stride) {
    return (in + 2 * (kernel / 2) - kernel) / stride + 1;
  };
  const std::int64_t s1 = side_after(cfg.image_size, cfg.conv1_kernel, cfg.conv1_stride);
  const std::int64_t s2 = side_after(s1, cfg.conv2_kernel, cfg.conv2_stride);
  const std::int64_t s3 = side_after(s2, cfg.conv3_kernel, cfg.conv3_stride);
  auto conv = [](Variable w, Variable b, int stride, int kernel) {
    return [=](const Variable& h) { return ag::relu(ag::conv2d(h, w, b, stride, kernel / 2)); };
  };

  std::vector<Stage> stages;
  stages.push_back({"conv1", static_cast<double>(p["conv1.w"].value().numel() * s1 * s1),
                    conv(p["conv1.w"], p["conv1.b"], cfg.conv1_stride, cfg.conv1_kernel)});
  if (cfg.fixed_filter.placement == nn::FilterPlacement::kAfterLayer1) {
    const int k = cfg.fixed_filter.kernel;
    const Tensor kernel = blurnet::signal::make_blur_kernel(k, cfg.fixed_filter.kind);
    Tensor stack(tensor::Shape{cfg.conv1_filters, k, k});
    for (int c = 0; c < cfg.conv1_filters; ++c) {
      std::copy(kernel.data(), kernel.data() + k * k, stack.data() + c * k * k);
    }
    const Variable weights = Variable::constant(stack);
    stages.push_back({"blur", static_cast<double>(stack.numel() * s1 * s1),
                      [weights](const Variable& h) {
                        return ag::depthwise_conv2d_same(h, weights, Variable());
                      }});
  }
  stages.push_back({"conv2", static_cast<double>(p["conv2.w"].value().numel() * s2 * s2),
                    conv(p["conv2.w"], p["conv2.b"], cfg.conv2_stride, cfg.conv2_kernel)});
  stages.push_back({"conv3", static_cast<double>(p["conv3.w"].value().numel() * s3 * s3),
                    conv(p["conv3.w"], p["conv3.b"], cfg.conv3_stride, cfg.conv3_kernel)});
  const Variable fc_w = p["fc.w"], fc_b = p["fc.b"];
  stages.push_back({"dense", static_cast<double>(fc_w.value().numel()),
                    [fc_w, fc_b](const Variable& h) {
                      return ag::dense(ag::flatten2d(h), fc_w, fc_b);
                    }});
  return stages;
}

Tensor replay_logits(const std::vector<Stage>& stages, const Tensor& input) {
  ag::NoGradGuard no_grad;
  Variable h = Variable::constant(input);
  for (const Stage& stage : stages) h = stage.run(h);
  return h.value();
}

Tensor as_batch(const Tensor& chw) {
  return chw.reshape(tensor::Shape::nchw(1, chw.dim(0), chw.dim(1), chw.dim(2)));
}

/// Per-stage median time per image over replays of the whole forward.
void time_forward(const std::vector<Stage>& stages, const std::vector<Tensor>& inputs,
                  int min_reps, double budget_s, const char* suffix, Tracer* tracer,
                  std::vector<Metric>& out) {
  ag::NoGradGuard no_grad;
  const double batch = static_cast<double>(inputs.front().dim(0));
  std::vector<std::vector<double>> samples(stages.size());
  const Clock::time_point begin = Clock::now();
  for (int rep = 0; rep < min_reps || seconds_since(begin) < budget_s; ++rep) {
    Variable h = Variable::constant(inputs[static_cast<std::size_t>(rep) % inputs.size()]);
    ScopedSpan forward(tracer, "nn.forward", 0, rep);
    for (std::size_t s = 0; s < stages.size(); ++s) {
      ScopedSpan span(tracer, stages[s].name, forward.id(), rep);
      const Clock::time_point t0 = Clock::now();
      h = stages[s].run(h);
      // The first rep only warms scratch buffers.
      if (rep > 0) {
        samples[s].push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
      }
    }
  }
  double us_per_image = 0.0, macs = 0.0;
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const double us = quantile(samples[s], 0.5) / batch;
    us_per_image += us;
    macs += stages[s].macs_per_image;
    out.push_back({std::string("nn.") + stages[s].name + "_us_per_img." + suffix, us, "us"});
  }
  out.push_back({std::string("nn.forward_gmac_s.") + suffix, macs / us_per_image / 1e3, "GMAC/s"});
}

double gemm_gmac_s(std::int64_t m, std::int64_t n, std::int64_t k) {
  blurnet::util::Rng rng(static_cast<std::uint64_t>(m * 131 + n * 7 + k));
  const Tensor a = Tensor::rand_uniform(tensor::Shape::mat(m, k), rng, -1.0f, 1.0f);
  const Tensor b = Tensor::rand_uniform(tensor::Shape::mat(k, n), rng, -1.0f, 1.0f);
  Tensor c(tensor::Shape::mat(m, n));
  const double us = median_us(
      [&] { blurnet::linalg::sgemm_nn(m, n, k, a.data(), b.data(), c.data(), false); }, 20, 0.15);
  return static_cast<double>(m * n * k) / us / 1e3;
}

}  // namespace

bool measure_layers(const serve::InferenceEngine& engine, const ImagePool& pool,
                    const AttackInputs& attack_inputs, std::uint64_t seed, Tracer* tracer,
                    std::vector<Metric>& out) {
  ScopedSpan root(tracer, "layers");

  // Bitwise replay check, every variant in the mix, batch 1 and 64.
  bool replay_ok = true;
  for (const char* variant : kVariantNames) {
    const std::vector<Stage> stages = forward_stages(engine.replica_model(variant, 0));
    const blurnet::defense::TransformPtr transform = engine.variant_transform(variant);
    serve::Options options;
    options.variant = variant;
    for (const Tensor& x : {as_batch(pool.images.front()), pool.batches.front()}) {
      const Tensor served = engine.classify_logits(x, options);
      const Tensor replayed = replay_logits(stages, transform ? transform->apply(x) : x);
      replay_ok = replay_ok && bitwise_equal(served, replayed);
    }
  }

  // nn: the defended variant's forward, layer by layer.
  const nn::LisaCnn& defended = engine.replica_model(kVariantNames[0], 0);
  const std::vector<Stage> stages = forward_stages(defended);
  std::vector<Tensor> singles;
  for (std::size_t i = 0; i < 64; ++i) singles.push_back(as_batch(pool.images[i]));
  time_forward(stages, singles, 50, 0.3, "b1", tracer, out);
  time_forward(stages, pool.batches, 6, 0.6, "b64", tracer, out);

  // linalg: the conv GEMMs of one image (out[F, HW] = W[F, C*k*k] x cols).
  const nn::LisaCnnConfig& cfg = defended.config();
  {
    ScopedSpan span(tracer, "linalg.sgemm", root.id());
    const std::int64_t s1 = (cfg.image_size - 1) / cfg.conv1_stride + 1,
                       s2 = (s1 - 1) / cfg.conv2_stride + 1,
                       s3 = (s2 - 1) / cfg.conv3_stride + 1;
    out.push_back({"linalg.gemm_gmac_s.square256", gemm_gmac_s(256, 256, 256), "GMAC/s"});
    out.push_back({"linalg.gemm_gmac_s.conv1",
                   gemm_gmac_s(cfg.conv1_filters, s1 * s1,
                               cfg.in_channels * cfg.conv1_kernel * cfg.conv1_kernel),
                   "GMAC/s"});
    out.push_back({"linalg.gemm_gmac_s.conv2",
                   gemm_gmac_s(cfg.conv2_filters, s2 * s2,
                               cfg.conv1_filters * cfg.conv2_kernel * cfg.conv2_kernel),
                   "GMAC/s"});
    out.push_back({"linalg.gemm_gmac_s.conv3",
                   gemm_gmac_s(cfg.conv3_filters, s3 * s3,
                               cfg.conv2_filters * cfg.conv3_kernel * cfg.conv3_kernel),
                   "GMAC/s"});
  }

  // defense: the median3 variant's preprocess stage.
  {
    ScopedSpan span(tracer, "defense.InputTransform.apply", root.id());
    const blurnet::defense::TransformPtr median = engine.variant_transform(kVariantNames[2]);
    std::size_t i = 0;
    out.push_back({"defense.median3_us_per_img.b1",
                   median_us([&] { median->apply(singles[i++ % singles.size()]); }, 50, 0.1),
                   "us"});
    out.push_back({"defense.median3_us_per_img.b64",
                   median_us([&] { median->apply(pool.batches[i++ % pool.batches.size()]); }, 5,
                             0.2) /
                       kOfflineBatch,
                   "us"});
  }

  // net: the wire codecs on the network workloads' single-image frames.
  {
    ScopedSpan span(tracer, "net.wire", root.id());
    namespace net = blurnet::net;
    net::ClassifyRequest request;
    request.variant = kVariantNames[0];
    request.images = pool.images.front();
    const std::vector<std::uint8_t> request_bytes = net::encode_classify_request(request, false);
    serve::Options options;
    options.variant = kVariantNames[0];
    const std::vector<serve::Prediction> reply = engine.classify(request.images, options);
    const std::vector<std::uint8_t> reply_bytes = net::encode_predictions(reply, false);
    out.push_back({"net.encode_request_us",
                   median_us([&] { net::encode_classify_request(request, false); }, 200, 0.05),
                   "us"});
    out.push_back({"net.decode_request_us", median_us([&] {
                     net::decode_classify_request(request_bytes.data(), request_bytes.size(),
                                                  false);
                   }, 200, 0.05),
                   "us"});
    out.push_back({"net.encode_reply_us",
                   median_us([&] { net::encode_predictions(reply, false); }, 200, 0.05), "us"});
    out.push_back({"net.decode_reply_us", median_us([&] {
                     net::decode_predictions(reply_bytes.data(), reply_bytes.size(), false);
                   }, 200, 0.05),
                   "us"});
  }

  // attack: the steps of the workload's first rp2_attack call, replayed with
  // its configuration on its [n*K] shapes and split in phases. The replayed
  // sticker must equal rp2_attack's bitwise.
  {
    ScopedSpan span(tracer, "attack.step", root.id());
    const Tensor& images = attack_inputs.images;
    const attack::Rp2Config config = attack_config(seed, 0, cfg.num_classes);
    if (!config.use_eot || !config.shared_perturbation || config.dct_mask_dim != 0 ||
        config.feature_reg.kind != attack::FeatureRegTerm::Kind::kNone) {
      throw std::invalid_argument("the RP2 replay covers shared-sticker EOT attacks only");
    }
    const Tensor expected =
        attack::rp2_attack(defended, images, attack_inputs.masks, config).shared_delta;
    const std::int64_t n = images.dim(0), c = images.dim(1);
    const int h = static_cast<int>(images.dim(2)), w = static_cast<int>(images.dim(3));
    const int poses = config.eot_poses;
    const Tensor mask_c = attack::expand_mask_channels(attack_inputs.masks, c);
    const Tensor palette = attack::printable_palette();
    Tensor tiled_images(tensor::Shape::nchw(n * poses, c, h, w));
    for (int j = 0; j < poses; ++j) {
      std::copy(images.data(), images.data() + images.numel(),
                tiled_images.data() + j * images.numel());
    }
    const std::vector<int> targets(static_cast<std::size_t>(n * poses), config.target_class);
    std::vector<double> warp, forward, backward, step;
    const Clock::time_point begin = Clock::now();
    for (int run = 0; run < 3 || seconds_since(begin) < 0.5; ++run) {
      attack::EotSampler sampler(config.seed, poses,
                                 attack::EotPoseRange{config.max_rotation, config.min_scale,
                                                      config.max_scale, config.max_shift});
      Variable delta = Variable::leaf(Tensor::zeros(tensor::Shape::nchw(1, c, h, w)));
      nn::Adam optimizer({delta}, config.learning_rate);
      for (int iter = 0; iter < config.iterations; ++iter) {
        const Clock::time_point t0 = Clock::now();
        const Variable masked = ag::mul_const(ag::broadcast_batch(delta, n), mask_c);
        const std::vector<ag::Affine2D> step_poses = sampler.sample_step(h, w);
        const Variable tiled = ag::repeat_batch(masked, poses);
        std::vector<ag::Affine2D> rows;
        for (const ag::Affine2D& pose : step_poses) {
          rows.insert(rows.end(), static_cast<std::size_t>(n), pose);
        }
        const Clock::time_point tw = Clock::now();
        const Variable applied = ag::affine_warp(tiled, rows);
        const Clock::time_point tf = Clock::now();
        const Variable x_adv = ag::add_const(applied, tiled_images);
        Variable loss =
            ag::softmax_cross_entropy(defended.forward(x_adv).logits, targets);
        const Variable norm = config.norm == attack::PerturbationNorm::kL2
                                  ? ag::l2_norm(masked)
                                  : ag::l1_norm(masked);
        loss = ag::add(loss, ag::mul_scalar(norm, static_cast<float>(config.lambda)));
        if (config.nps_weight > 0.0 && c == 3) {
          loss = ag::add(loss, ag::mul_scalar(ag::nps_loss(masked, palette),
                                              static_cast<float>(config.nps_weight)));
        }
        const Clock::time_point tb = Clock::now();
        optimizer.zero_grad();
        ag::backward(loss);
        const Clock::time_point te = Clock::now();
        optimizer.step();
        delta.mutable_value() = tensor::clamp(delta.value(), -1.0f, 1.0f);
        if (run == 0) continue;  // warm-up
        warp.push_back(ms_between(tw, tf));
        forward.push_back(ms_between(tf, tb));
        backward.push_back(ms_between(tb, te));
        step.push_back(ms_between(t0, Clock::now()));
      }
      replay_ok = replay_ok && bitwise_equal(delta.value(), expected);
    }
    out.push_back({"attack.warp_ms", quantile(warp, 0.5), "ms"});
    out.push_back({"attack.forward_grad_ms", quantile(forward, 0.5), "ms"});
    out.push_back({"attack.backward_ms", quantile(backward, 0.5), "ms"});
    out.push_back({"attack.step_ms", quantile(step, 0.5), "ms"});
  }
  return replay_ok;
}

}  // namespace perfbench
