#include <time.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "perfbench/src/bench.h"
#include "src/defense/input_transform.h"
#include "src/net/client.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"

namespace perfbench {

namespace serve = blurnet::serve;
namespace tensor = blurnet::tensor;

const char* const kVariantNames[kVariantCount] = {serve::kDefendedVariant, serve::kBaseVariant,
                                                  "median3"};
const double kVariantWeights[kVariantCount] = {2.0, 1.0, 1.0};

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return values[std::min(rank, values.size()) - 1];
}

double tail_q(std::size_t count) {
  if (count == 0) return 0.99;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(count));
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

Summary summarize(const RunResult& r) {
  Summary out;
  std::vector<double> all;
  for (const Op& op : r.ops) {
    if (op.served) all.push_back(op.latency_ms);
    out.good += op.good;
  }
  out.served = all.size();
  out.goodput_per_s = r.window_s > 0.0 ? static_cast<double>(out.good) / r.window_s : 0.0;
  out.p50_ms = quantile(all, 0.5);
  out.tail_q = tail_q(all.size());
  out.tail_ms = quantile(all, out.tail_q);
  return out;
}

// ---- tracing ---------------------------------------------------------------

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

void Tracer::record(const char* name, Clock::time_point start, Clock::time_point end,
                    std::int64_t id, std::int64_t parent, std::int64_t request) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start, end, id, parent, request});
}

std::string Tracer::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  std::ostringstream out;
  out << std::fixed;
  out.precision(3);
  out << "{\"fields\": [\"id\", \"name\", \"start_us\", \"end_us\", \"parent\", \"request\"],\n"
      << " \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n  " : "\n  ") << "[" << s.id << ", \"" << s.name << "\", " << us(s.start)
        << ", " << us(s.end) << ", " << s.parent << ", " << s.request << "]";
  }
  out << "\n]}\n";
  return out.str();
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, std::int64_t parent,
                       std::int64_t request)
    : tracer_(tracer), name_(name), parent_(parent), request_(request) {
  if (tracer_) {
    id_ = tracer_->next_id();
    start_ = Clock::now();
  }
}

ScopedSpan::~ScopedSpan() {
  if (tracer_) tracer_->record(name_, start_, Clock::now(), id_, parent_, request_);
}

// ---- inputs ----------------------------------------------------------------

ImagePool make_pool(std::uint64_t seed, int count) {
  if (count % kOfflineBatch != 0) throw std::invalid_argument("pool size must fill batches");
  blurnet::util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x1F);
  ImagePool pool;
  const auto chw = tensor::Shape{3, kImageSize, kImageSize};
  const std::int64_t stride = chw.numel();
  for (int i = 0; i < count; ++i) {
    pool.images.push_back(Tensor::rand_uniform(chw, rng));
  }
  for (int b = 0; b < count / kOfflineBatch; ++b) {
    Tensor batch(tensor::Shape::nchw(kOfflineBatch, 3, kImageSize, kImageSize));
    for (int i = 0; i < kOfflineBatch; ++i) {
      const Tensor& image = pool.images[static_cast<std::size_t>(b * kOfflineBatch + i)];
      std::copy(image.data(), image.data() + stride, batch.data() + i * stride);
    }
    pool.batches.push_back(batch);
  }
  return pool;
}

std::vector<Request> make_schedule(std::uint64_t seed, double rate, double seconds, int pool) {
  blurnet::util::Rng rng(seed * 0xD1B54A32D192ED03ULL + 0x5C);
  double total_weight = 0.0;
  for (double w : kVariantWeights) total_weight += w;
  std::vector<Request> schedule;
  schedule.reserve(static_cast<std::size_t>(rate * seconds * 1.2) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    Request r;
    r.due_s = t;
    double pick = rng.uniform() * total_weight;
    r.variant = kVariantCount - 1;
    for (int v = 0; v < kVariantCount; ++v) {
      if (pick < kVariantWeights[v]) {
        r.variant = v;
        break;
      }
      pick -= kVariantWeights[v];
    }
    r.image = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(pool)));
    r.connection = static_cast<int>(schedule.size() % kConnections);
    schedule.push_back(r);
  }
  return schedule;
}

// ---- serving ---------------------------------------------------------------

Serving start_serving(bool with_server, const Tensor& warm_batch) {
  serve::EngineConfig config;  // paper-size LisaCnn, seeded untrained weights
  config.defense = {blurnet::nn::FilterPlacement::kAfterLayer1, 5,
                    blurnet::signal::KernelKind::kBox};
  config.max_batch = kOfflineBatch;
  config.replicas = kReplicas;
  config.queue_capacity = kQueueCapacity;
  config.overload_policy = serve::OverloadPolicy::kReject;
  Serving serving;
  serving.engine = std::make_unique<serve::InferenceEngine>(config);
  serving.engine->register_transform_variant(kVariantNames[2],
                                             blurnet::defense::TransformSpec::median(3));
  for (const char* variant : kVariantNames) {
    serve::Options options;
    options.variant = variant;
    serving.engine->classify(warm_batch, options);
  }
  if (with_server) {
    serving.server =
        std::make_unique<blurnet::net::Server>(*serving.engine, blurnet::net::ServerConfig{});
    // Spawn the submit workers and the connection threads once per variant.
    blurnet::net::Client client("127.0.0.1", serving.server->port());
    Tensor first(tensor::Shape{3, kImageSize, kImageSize});
    std::copy(warm_batch.data(), warm_batch.data() + first.numel(), first.data());
    for (const char* variant : kVariantNames) {
      for (int i = 0; i < 4; ++i) client.classify(first, variant);
    }
    client.close();
  }
  return serving;
}

// ---- reference -------------------------------------------------------------

Reference make_reference(const serve::InferenceEngine& engine, const ImagePool& pool) {
  Reference reference;
  reference.pool = static_cast<int>(pool.images.size());
  for (int v = 0; v < kVariantCount; ++v) {
    const blurnet::nn::LisaCnn& model = engine.replica_model(kVariantNames[v], 0);
    const blurnet::defense::TransformPtr transform = engine.variant_transform(kVariantNames[v]);
    reference.classes = model.config().num_classes;
    for (const Tensor& batch : pool.batches) {
      const Tensor logits = model.logits(transform ? transform->apply(batch) : batch);
      const std::vector<int> labels = tensor::argmax_rows(logits);
      reference.logits.insert(reference.logits.end(), logits.data(),
                              logits.data() + logits.numel());
      reference.labels.insert(reference.labels.end(), labels.begin(), labels.end());
    }
  }
  return reference;
}

bool matches(const Reference& reference, int variant, int image,
             const serve::Prediction& prediction) {
  const int k = reference.classes;
  if (static_cast<int>(prediction.logits.size()) != k) return false;
  if (prediction.label < 0 || prediction.label >= k) return false;
  const float* ref = reference.row(variant, image);
  auto close = [](float a, float b, float scale) {
    return std::fabs(a - b) <= kLogitTol * (1.0f + std::fabs(scale));  // NaN fails
  };
  for (int j = 0; j < k; ++j) {
    if (!close(prediction.logits[static_cast<std::size_t>(j)], ref[j], ref[j])) return false;
  }
  const int ref_label = reference.label(variant, image);
  return prediction.label == ref_label ||
         close(ref[prediction.label], ref[ref_label], 2.0f * ref[ref_label]);
}

}  // namespace perfbench
