#include "src/serve/engine.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "src/tensor/ops.h"
#include "src/util/arena.h"

namespace blurnet::serve {

using tensor::Shape;
using tensor::Tensor;

namespace {

/// Normalize a CHW image or NCHW batch to NCHW, rejecting anything that
/// would otherwise fail deep inside conv2d with a cryptic error.
Tensor as_batch(const Tensor& images, const nn::LisaCnnConfig& config,
                const std::string& op) {
  if (images.rank() != 3 && images.rank() != 4) {
    throw std::invalid_argument(op + ": expected a CHW image (rank 3) or NCHW batch (rank 4), got rank " +
                                std::to_string(images.rank()) + " with shape " +
                                images.shape().to_string());
  }
  Tensor batch = images;
  if (images.rank() == 3) {
    batch = images.reshape(Shape::nchw(1, images.dim(0), images.dim(1), images.dim(2)));
  }
  if (batch.dim(0) < 1) {
    throw std::invalid_argument(op + ": batch holds no images (shape " +
                                images.shape().to_string() + ")");
  }
  if (batch.dim(1) != config.in_channels) {
    throw std::invalid_argument(op + ": expected " + std::to_string(config.in_channels) +
                                " input channels, got " + std::to_string(batch.dim(1)) +
                                " (shape " + images.shape().to_string() + ")");
  }
  if (batch.dim(2) != config.image_size || batch.dim(3) != config.image_size) {
    throw std::invalid_argument(op + ": expected " + std::to_string(config.image_size) + "x" +
                                std::to_string(config.image_size) + " spatial dims, got " +
                                std::to_string(batch.dim(2)) + "x" + std::to_string(batch.dim(3)) +
                                " (shape " + images.shape().to_string() + ")");
  }
  return batch;
}

int effective_max_batch(const Options& options, int engine_default, const std::string& op) {
  if (options.max_batch < 0) {
    throw std::invalid_argument(op + ": Options::max_batch must be >= 0 (0 = engine default), got " +
                                std::to_string(options.max_batch));
  }
  return options.max_batch > 0 ? options.max_batch : engine_default;
}

}  // namespace

void EngineConfig::validate() const {
  if (max_batch < 1) {
    throw std::invalid_argument("EngineConfig: max_batch must be >= 1 (got " +
                                std::to_string(max_batch) + ")");
  }
  if (replicas < 1) {
    throw std::invalid_argument("EngineConfig: replicas must be >= 1 (got " +
                                std::to_string(replicas) + ")");
  }
  if (queue_capacity < 1) {
    throw std::invalid_argument("EngineConfig: queue_capacity must be >= 1 (got " +
                                std::to_string(queue_capacity) + ")");
  }
}

InferenceEngine::InferenceEngine(EngineConfig config)
    // Validate before the model is built: a bad batch/replica/queue knob must
    // not cost a full weight allocation.
    : InferenceEngine([&config] { config.validate(); return nn::LisaCnn(config.model); }(),
                      config.defense, config.max_batch, config.replicas,
                      config.queue_capacity) {}

InferenceEngine::InferenceEngine(nn::LisaCnn model, nn::FixedFilterSpec defense,
                                 int max_batch, int replicas, int queue_capacity)
    : model_(std::move(model)), max_batch_(max_batch), default_replicas_(replicas),
      queue_capacity_(queue_capacity) {
  // One set of checks and messages for both constructors.
  EngineConfig{model_.config(), defense, max_batch, replicas, queue_capacity}.validate();
  register_variant_locked(kBaseVariant, model_.config(), default_replicas_);
  defense_enabled_ = defense.placement != nn::FilterPlacement::kNone && defense.kernel > 0;
  if (defense_enabled_) {
    nn::LisaCnnConfig defended = model_.config();
    defended.fixed_filter = defense;
    register_variant_locked(kDefendedVariant, defended, default_replicas_);
  } else {
    // No filter to wrap: serve "defended" from the base shard instead of
    // cloning a second, identical set of replicas.
    aliases_.emplace_back(kDefendedVariant, shards_.front().get());
  }
}

InferenceEngine::~InferenceEngine() {
  {
    std::lock_guard<util::DebugMutex> lock(queue_mutex_);
    stop_ = true;
  }
  {
    std::lock_guard<util::DebugMutex> lock(shards_mutex_);
    for (auto& shard : shards_) shard->cv.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void InferenceEngine::register_shard_locked(const std::string& name,
                                            const nn::LisaCnn& source,
                                            const nn::LisaCnnConfig& config, int replicas,
                                            bool from_base,
                                            defense::TransformPtr transform) {
  if (name.empty()) throw std::invalid_argument("register_variant: name must be non-empty");
  if (find_shard_locked(name) != nullptr) {
    throw std::invalid_argument("register_variant: variant \"" + name +
                                "\" is already registered");
  }
  if (config.in_channels != model_.config().in_channels ||
      config.image_size != model_.config().image_size) {
    throw std::invalid_argument("register_variant: variant \"" + name +
                                "\" input shape does not match the base model");
  }
  if (replicas == 0) replicas = default_replicas_;
  if (replicas < 1) {
    throw std::invalid_argument("register_variant: replicas must be >= 1 (got " +
                                std::to_string(replicas) + ")");
  }
  auto shard = std::make_unique<VariantShard>();
  shard->name = name;
  shard->config = config;
  shard->from_base = from_base;
  shard->transform = transform;
  shard->replicas.reserve(static_cast<std::size_t>(replicas));
  for (int i = 0; i < replicas; ++i) {
    shard->replicas.push_back(std::make_unique<Replica>(source, config, transform));
  }
  shards_.push_back(std::move(shard));
}

void InferenceEngine::register_variant_locked(const std::string& name,
                                              const nn::LisaCnnConfig& config,
                                              int replicas) {
  register_shard_locked(name, model_, config, replicas, /*from_base=*/true);
}

void InferenceEngine::register_variant(const std::string& name,
                                       const nn::LisaCnnConfig& config, int replicas) {
  std::lock_guard<util::DebugMutex> lock(shards_mutex_);
  register_variant_locked(name, config, replicas);
}

void InferenceEngine::register_model(const std::string& name, const nn::LisaCnn& source,
                                     int replicas) {
  std::lock_guard<util::DebugMutex> lock(shards_mutex_);
  register_shard_locked(name, source, source.config(), replicas, /*from_base=*/false);
}

void InferenceEngine::register_transform_variant(const std::string& name,
                                                 const defense::TransformSpec& spec,
                                                 int replicas) {
  // make_transform validates the spec and maps kNone to nullptr, so a kNone
  // registration is exactly a plain weight-transfer variant of the base
  // config — the transform-off path stays bitwise the bare forward path.
  defense::TransformPtr transform = defense::make_transform(spec);
  std::lock_guard<util::DebugMutex> lock(shards_mutex_);
  register_shard_locked(name, model_, model_.config(), replicas, /*from_base=*/true,
                        std::move(transform));
}

void InferenceEngine::register_pipeline_variant(const std::string& name,
                                                defense::TransformPtr transform,
                                                int replicas) {
  // The stage is taken as-built (any InputTransform subclass); weights still
  // transfer from the base model, so refresh_variant() works as usual.
  std::lock_guard<util::DebugMutex> lock(shards_mutex_);
  register_shard_locked(name, model_, model_.config(), replicas, /*from_base=*/true,
                        std::move(transform));
}

void InferenceEngine::register_transform_model(const std::string& name,
                                               const nn::LisaCnn& source,
                                               const defense::TransformSpec& spec,
                                               int replicas) {
  defense::TransformPtr transform = defense::make_transform(spec);
  std::lock_guard<util::DebugMutex> lock(shards_mutex_);
  register_shard_locked(name, source, source.config(), replicas, /*from_base=*/false,
                        std::move(transform));
}

void InferenceEngine::alias_variant(const std::string& name, const std::string& existing) {
  std::lock_guard<util::DebugMutex> lock(shards_mutex_);
  if (name.empty()) throw std::invalid_argument("alias_variant: name must be non-empty");
  if (find_shard_locked(name) != nullptr) {
    throw std::invalid_argument("alias_variant: variant \"" + name +
                                "\" is already registered");
  }
  aliases_.emplace_back(name, &require_shard_locked(existing));
}

std::string InferenceEngine::shard_kind(const VariantShard& shard) {
  std::string kind = shard.from_base ? "weight-transfer" : "foreign-model";
  if (shard.transform) {
    kind = "transform-wrapped " + kind + " (" + shard.transform->name() + ")";
  }
  return kind;
}

void InferenceEngine::refresh_variant(const std::string& name) {
  VariantShard& shard = require_shard(name);
  if (!shard.from_base) {
    throw std::logic_error("refresh_variant: variant \"" + name + "\" is a " +
                           shard_kind(shard) +
                           " shard: it serves an independently trained model whose "
                           "weights do not come from the base model; re-register it "
                           "(register_model / register_transform_model) instead");
  }
  // Weight-transfer shards — transform-wrapped or not — re-copy the base
  // weights; the preprocess stage is immutable and kept as registered.
  for (auto& replica : shard.replicas) replica->refresh_from(model_);
}

InferenceEngine::VariantShard* InferenceEngine::find_shard_locked(
    const std::string& name) const {
  for (const auto& shard : shards_) {
    if (shard->name == name) return shard.get();
  }
  for (const auto& alias : aliases_) {
    if (alias.first == name) return alias.second;
  }
  return nullptr;
}

InferenceEngine::VariantShard& InferenceEngine::require_shard_locked(
    const std::string& name) const {
  if (VariantShard* shard = find_shard_locked(name)) return *shard;
  std::string known;
  for (const auto& registered : variant_names_locked()) {
    if (!known.empty()) known += ", ";
    known += "\"" + registered + "\"";
  }
  throw std::invalid_argument("InferenceEngine: unknown variant \"" + name +
                              "\" (registered: " + known + ")");
}

InferenceEngine::VariantShard& InferenceEngine::require_shard(const std::string& name) const {
  std::lock_guard<util::DebugMutex> lock(shards_mutex_);
  return require_shard_locked(name);
}

std::vector<std::string> InferenceEngine::variant_names_locked() const {
  std::vector<std::string> names;
  names.reserve(shards_.size() + aliases_.size());
  for (const auto& shard : shards_) names.push_back(shard->name);
  for (const auto& alias : aliases_) names.push_back(alias.first);
  return names;
}

std::vector<std::string> InferenceEngine::variant_names() const {
  std::lock_guard<util::DebugMutex> lock(shards_mutex_);
  return variant_names_locked();
}

bool InferenceEngine::has_variant(const std::string& name) const {
  std::lock_guard<util::DebugMutex> lock(shards_mutex_);
  return find_shard_locked(name) != nullptr;
}

const nn::LisaCnn& InferenceEngine::variant(const std::string& name) const {
  return require_shard(name).replicas.front()->model();
}

const nn::LisaCnn& InferenceEngine::replica_model(const std::string& name, int index) const {
  const VariantShard& shard = require_shard(name);
  if (index < 0 || static_cast<std::size_t>(index) >= shard.replicas.size()) {
    throw std::invalid_argument("replica_model: variant \"" + name + "\" has " +
                                std::to_string(shard.replicas.size()) +
                                " replicas, index " + std::to_string(index) +
                                " is out of range");
  }
  return shard.replicas[static_cast<std::size_t>(index)]->model();
}

int InferenceEngine::replica_count(const std::string& name) const {
  return static_cast<int>(require_shard(name).replicas.size());
}

defense::TransformPtr InferenceEngine::variant_transform(const std::string& name) const {
  return require_shard(name).transform;
}

std::string InferenceEngine::variant_kind(const std::string& name) const {
  return shard_kind(require_shard(name));
}

Replica& InferenceEngine::route_locked(VariantShard& shard) const {
  // Least-loaded with a round-robin cursor as the tiebreak: concurrent
  // callers spread across idle replicas, and repeated single-caller traffic
  // still rotates instead of hammering replica 0. The replica's in-flight
  // count is claimed under the lock so two callers can't both pick the same
  // "idle" replica.
  const std::size_t n = shard.replicas.size();
  std::size_t best = shard.next_replica % n;
  int best_load = shard.replicas[best]->in_flight();
  for (std::size_t step = 1; step < n && best_load > 0; ++step) {
    const std::size_t candidate = (shard.next_replica + step) % n;
    const int load = shard.replicas[candidate]->in_flight();
    if (load < best_load) {
      best = candidate;
      best_load = load;
    }
  }
  shard.next_replica = (best + 1) % n;
  Replica& replica = *shard.replicas[best];
  replica.begin_call();
  return replica;
}

std::vector<Prediction> InferenceEngine::classify(const Tensor& images,
                                                  const Options& options) const {
  const int cap = effective_max_batch(options, max_batch_, "InferenceEngine::classify");
  const Tensor batch = as_batch(images, model_.config(), "InferenceEngine::classify");
  Replica* replica;
  {
    // One acquisition covers both the name lookup and the routing pick.
    std::lock_guard<util::DebugMutex> lock(shards_mutex_);
    replica = &route_locked(require_shard_locked(options.variant));
  }
  struct CallGuard {
    Replica& replica;
    ~CallGuard() { replica.end_call(); }
  } guard{*replica};
  return replica->run(batch, cap);
}

Tensor InferenceEngine::classify_logits(const Tensor& images, const Options& options) const {
  const std::vector<Prediction> predictions = classify(images, options);
  const std::int64_t n = static_cast<std::int64_t>(predictions.size());
  const std::int64_t k = static_cast<std::int64_t>(predictions.front().logits.size());
  Tensor out(Shape::mat(n, k));
  for (std::int64_t i = 0; i < n; ++i) {
    const auto& logits = predictions[static_cast<std::size_t>(i)].logits;
    std::copy(logits.begin(), logits.end(), out.data() + i * k);
  }
  return out;
}

std::future<Prediction> InferenceEngine::submit(Tensor image, Options options) {
  auto promise = std::make_shared<std::promise<Prediction>>();
  std::future<Prediction> future = promise->get_future();
  submit(std::move(image), std::move(options),
         [promise](std::exception_ptr error, Prediction prediction) {
           if (error) {
             promise->set_exception(std::move(error));
           } else {
             promise->set_value(std::move(prediction));
           }
         });
  return future;
}

void InferenceEngine::submit(Tensor image, Options options, Completion complete) {
  VariantShard& shard = require_shard(options.variant);
  const int cap = effective_max_batch(options, max_batch_, "InferenceEngine::submit");
  Tensor batch = as_batch(image, model_.config(), "InferenceEngine::submit");
  if (batch.dim(0) != 1) {
    throw std::invalid_argument("InferenceEngine::submit: expected a single image, got a batch of " +
                                std::to_string(batch.dim(0)));
  }
  // Deep-copy the image: the caller may reuse its buffer before a worker
  // runs. Aggregate init so the Tensor member is built directly from the
  // clone (a default-constructed member would cost a dead scalar allocation
  // per submit).
  Request request{batch.reshape(Shape{batch.dim(1), batch.dim(2), batch.dim(3)}).clone(),
                  cap, {}, std::move(complete)};
  const auto capacity = static_cast<std::size_t>(queue_capacity_);
  {
    std::lock_guard<util::DebugMutex> lock(queue_mutex_);
    if (stop_) throw std::runtime_error("InferenceEngine::submit: engine is shutting down");
    // Workers are spawned lazily, per variant, on its first queued request:
    // classify()-only engines and never-submitted variants pay for nothing.
    if (!shard.workers_spawned) {
      for (auto& replica : shard.replicas) {
        workers_.emplace_back([this, s = &shard, r = replica.get()] { worker_loop(s, r); });
      }
      shard.workers_spawned = true;
    }
    // Bounded queue: admission control happens here, before the request is
    // visible to any worker, so a shed request costs the engine nothing.
    if (shard.pending.size() >= capacity) {
      ++shard.rejected;
      throw OverloadError("InferenceEngine::submit: variant \"" + options.variant +
                          "\" queue is full (" + std::to_string(capacity) + " pending)");
    }
    request.enqueued = std::chrono::steady_clock::now();
    shard.pending.push_back(std::move(request));
    shard.queue_peak = std::max(shard.queue_peak,
                                static_cast<std::int64_t>(shard.pending.size()));
  }
  shard.cv.notify_one();
}

void InferenceEngine::worker_loop(VariantShard* shard, Replica* replica) {
  for (;;) {
    std::vector<Request> coalesced;
    int cap = max_batch_;
    {
      std::unique_lock<util::DebugMutex> lock(queue_mutex_);
      shard->cv.wait(lock, [&] { return stop_ || !shard->pending.empty(); });
      // Empty is only reachable with stop_ set and this variant's queue
      // drained (a sibling replica may have taken the last batch).
      if (shard->pending.empty()) return;
      // Coalesce the head-of-line request with the pending requests behind
      // it, up to the batch cap the head asked for.
      cap = shard->pending.front().max_batch;
      do {
        coalesced.push_back(std::move(shard->pending.front()));
        shard->pending.pop_front();
      } while (!shard->pending.empty() &&
               coalesced.size() < static_cast<std::size_t>(cap));
    }

    const std::int64_t count = static_cast<std::int64_t>(coalesced.size());
    std::vector<Prediction> predictions;
    std::exception_ptr error;
    replica->begin_call();  // queued batches count toward the router's load
    {
      // The assembled batch tensor is transient: frame it in this worker's
      // request arena (run() opens its own nested frame) so steady-state
      // submit traffic allocates nothing from the heap. The completions run
      // after the frame closes, so nothing they allocate can land in it.
      util::ArenaScope frame(Replica::serving_arena());
      try {
        const Tensor& first = coalesced.front().image;
        Tensor batch(Shape::nchw(count, first.dim(0), first.dim(1), first.dim(2)));
        const std::int64_t stride = first.numel();
        for (std::int64_t i = 0; i < count; ++i) {
          const Tensor& image = coalesced[static_cast<std::size_t>(i)].image;
          std::copy(image.data(), image.data() + stride, batch.data() + i * stride);
        }
        // Stats are counted inside run(), before the requests complete: a
        // caller observing its result must see its batch reflected in stats().
        predictions = replica->run(batch, cap, /*queued=*/true);
      } catch (...) {
        error = std::current_exception();
      }
    }
    replica->end_call();
    if (!error) {
      // Latency (enqueue→resolve) is recorded before the requests complete
      // for the same reason: a caller that has observed its result must find
      // its request in the latency snapshot.
      const auto now = std::chrono::steady_clock::now();
      for (const auto& request : coalesced) {
        shard->latency.record(
            std::chrono::duration<double, std::micro>(now - request.enqueued).count());
      }
    }
    for (std::int64_t i = 0; i < count; ++i) {
      const auto k = static_cast<std::size_t>(i);
      coalesced[k].complete(error, error ? Prediction{} : std::move(predictions[k]));
    }
  }
}

VariantStats InferenceEngine::shard_stats(const VariantShard& shard) const {
  VariantStats stats;
  stats.variant = shard.name;  // aliases report the shard they resolve to
  stats.replicas.reserve(shard.replicas.size());
  for (const auto& replica : shard.replicas) stats.replicas.push_back(replica->stats());
  {
    // Brief queue-lock acquisition; safe after shards_mutex_ because no path
    // waits for shards_mutex_ while holding queue_mutex_.
    std::lock_guard<util::DebugMutex> lock(queue_mutex_);
    stats.queue_depth = static_cast<std::int64_t>(shard.pending.size());
    stats.queue_peak = shard.queue_peak;
    stats.rejected = shard.rejected;
  }
  stats.latency = shard.latency.snapshot();
  return stats;
}

EngineStats InferenceEngine::stats() const {
  std::lock_guard<util::DebugMutex> lock(shards_mutex_);
  EngineStats stats;
  stats.variants.reserve(shards_.size());
  for (const auto& shard : shards_) {
    VariantStats per_variant = shard_stats(*shard);
    for (const auto& rs : per_variant.replicas) {
      stats.requests += rs.requests;
      stats.batches += rs.batches;
      stats.images += rs.images;
      stats.largest_batch = std::max(stats.largest_batch, rs.largest_batch);
    }
    stats.rejected += per_variant.rejected;
    stats.queue_peak = std::max(stats.queue_peak, per_variant.queue_peak);
    stats.variants.push_back(std::move(per_variant));
  }
  return stats;
}

VariantStats InferenceEngine::variant_stats(const std::string& name) const {
  return shard_stats(require_shard(name));
}

std::int64_t InferenceEngine::images_served(const std::string& name) const {
  std::int64_t images = 0;
  for (const auto& rs : variant_stats(name).replicas) images += rs.images;
  return images;
}

double accuracy(const std::vector<Prediction>& predictions, const std::vector<int>& labels) {
  if (predictions.size() != labels.size()) {
    throw std::invalid_argument("serve::accuracy: size mismatch");
  }
  if (predictions.empty()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    if (predictions[i].label == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(predictions.size());
}

}  // namespace blurnet::serve
