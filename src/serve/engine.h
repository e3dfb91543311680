// Replica-sharded inference engine: the serving layer above the classifier.
//
// An InferenceEngine owns a *base* model plus N serving replicas for every
// **named variant** of it. A variant is an architecture the base weights are
// transferred into (the Table I protocol of the paper): by default the engine
// registers
//
//   * "base"     — the adopted weights served as-is, and
//   * "defended" — the same weights wrapped in the deployed FixedFilterSpec
//                  (identical to "base" when the defense is disabled),
//
// and arbitrary further variants — any LisaCnnConfig, e.g. other filter
// placements/kernels or a learnable-depthwise architecture, mirroring the
// ModelZoo variant names — can be added with register_variant(). A disabled
// defense makes "defended" an alias of the base shard (same replicas, no
// extra weight clones), so stats() then reports a single "base" entry.
//
// Every variant executes as an explicit two-stage pipeline:
//
//   preprocess — an optional defense::InputTransform (bit-depth squeeze,
//                median filter, DCT quantization, ...) applied to each
//                forward slice before the model, and
//   forward    — the replica's model forward.
//
// register_transform_variant() / register_transform_model() attach the
// preprocess stage; plain variants skip it. Both stages run inside the
// replica, so transformed variants inherit batching, replica sharding, the
// coalescing submit() workers and the bitwise determinism contract below
// unchanged.
//
// Two ways in, both routed by Options::variant:
//
//   * classify(images, options): synchronous batched classification of a CHW
//     image or an NCHW batch. One forward pass per max_batch slice. The
//     router picks the least-loaded replica of the variant, so independent
//     callers spread across replicas instead of queueing on one model.
//   * submit(image, options[, completion]): queue a single image and get a
//     future, or have a callback run when it is served. Each replica runs a
//     worker that coalesces compatible queued requests (same variant) into
//     one forward pass of up to max_batch images; with R replicas, R
//     coalesced batches of a variant can be in flight at once.
//     Queues are bounded (EngineConfig::queue_capacity): a full queue
//     rejects the submit with OverloadError, so overload degrades into
//     explicit sheds instead of unbounded memory growth and runaway tail
//     latency. Per-variant queue depth high-water
//     marks and enqueue→resolve latency quantiles are readable mid-run
//     through stats().
//
// Every replica is a deep clone of the base weights (LisaCnn::clone), so
// per-image results are bitwise identical for any replica count, batch
// split, or routing order — sharding and batching are purely throughput
// decisions. refresh_variant() re-transfers the base weights after
// retraining; like retraining itself, it must not race in-flight requests.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/nn/lisa_cnn.h"
#include "src/serve/qos.h"
#include "src/serve/replica.h"
#include "src/util/lockdep.h"

namespace blurnet::serve {

/// Default variant names registered by every engine.
inline constexpr const char* kBaseVariant = "base";
inline constexpr const char* kDefendedVariant = "defended";

/// Kept only because perfbench/src/common.cpp still assigns
/// `config.overload_policy = OverloadPolicy::kReject`. Nothing reads it: a
/// full queue always throws OverloadError.
enum class OverloadPolicy { kReject };

/// Thrown by submit() when the target variant's queue is full. Distinct from
/// logic errors so load generators can count sheds without swallowing real
/// failures.
struct OverloadError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct EngineConfig {
  nn::LisaCnnConfig model;
  /// Architecture of the "defended" variant; kNone/kernel 0 disables it, in
  /// which case "defended" serves the plain architecture.
  nn::FixedFilterSpec defense;
  /// Largest forward pass a classify() slice or coalesced queue batch holds.
  int max_batch = 64;
  /// Serving replicas per variant (>= 1).
  int replicas = 1;
  /// Most requests a variant's submit() queue holds before submit() sheds
  /// with OverloadError (>= 1). Bounds worst-case queueing delay: a full
  /// queue is capacity/throughput seconds of latency already committed.
  int queue_capacity = 1024;
  /// Unread; kept only for perfbench's assignment (see OverloadPolicy).
  OverloadPolicy overload_policy = OverloadPolicy::kReject;

  /// Reject malformed configs with a descriptive std::invalid_argument
  /// (non-positive max_batch / replicas / queue_capacity). Called by both
  /// engine constructors.
  void validate() const;
};

/// Per-request routing knobs.
struct Options {
  std::string variant = kBaseVariant;
  /// Override of EngineConfig::max_batch for this request; 0 = engine default.
  /// For submit() it caps the coalesced batch this request leads.
  int max_batch = 0;
};

struct VariantStats {
  std::string variant;
  std::vector<ReplicaStats> replicas;  // one entry per replica, index order
  std::int64_t queue_depth = 0;  // requests pending right now
  std::int64_t queue_peak = 0;   // high-water mark of the pending queue
  std::int64_t rejected = 0;     // submits shed because the queue was full
  /// Enqueue→resolve latency over the ring window; readable mid-run.
  LatencySnapshot latency;
};

struct EngineStats {
  std::int64_t requests = 0;       // images served through the submit() queue
  std::int64_t batches = 0;        // coalesced queue batches run
  std::int64_t images = 0;         // images through classify*/submit in total
  std::int64_t largest_batch = 0;  // biggest coalesced queue batch so far
  std::int64_t rejected = 0;       // submits shed because a queue was full
  std::int64_t queue_peak = 0;     // deepest any variant's queue has been
  std::vector<VariantStats> variants;  // exact per-replica breakdown
};

class InferenceEngine {
 public:
  /// Fresh (untrained) model from the config. Useful for tests and benches.
  explicit InferenceEngine(EngineConfig config);
  /// Adopt an already-trained classifier. The engine shares the base model's
  /// parameters (Variable handles) with the caller, but every serving replica
  /// deep-clones the weights at registration — call refresh_variant() if the
  /// base model is retrained afterwards.
  InferenceEngine(nn::LisaCnn model, nn::FixedFilterSpec defense, int max_batch = 64,
                  int replicas = 1, int queue_capacity = 1024);
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// The adopted base weights (shared handles; retrain through this, then
  /// refresh_variant()).
  nn::LisaCnn& model() { return model_; }
  const nn::LisaCnn& model() const { return model_; }

  /// Register a named variant: `config`'s architecture serving the base
  /// weights (matching-name transfer). `replicas` 0 means the engine default.
  /// Throws std::invalid_argument if the name is empty or already taken.
  void register_variant(const std::string& name, const nn::LisaCnnConfig& config,
                        int replicas = 0);
  /// Register an *independently trained* model as a variant: every replica
  /// deep-clones `source`'s weights and architecture. Unlike
  /// register_variant, nothing is transferred from the engine's base model,
  /// so one engine can serve a whole zoo of differently-trained victims.
  /// refresh_variant() on such a shard throws — re-register after retraining.
  void register_model(const std::string& name, const nn::LisaCnn& source, int replicas = 0);
  /// Register an input-transform variant: the base weights served behind the
  /// preprocess stage `spec` describes (the two-stage pipeline above).
  /// Weights transfer from the base model, so refresh_variant() works; the
  /// transform itself is immutable. A kNone spec serves the bare forward
  /// path — bitwise identical to register_variant of the base config.
  void register_transform_variant(const std::string& name, const defense::TransformSpec& spec,
                                  int replicas = 0);
  /// Same, but wrapping an *independently trained* model (register_model
  /// semantics: deep clones of `source`, refresh_variant() throws).
  void register_transform_model(const std::string& name, const nn::LisaCnn& source,
                                const defense::TransformSpec& spec, int replicas = 0);
  /// Register the base weights behind an arbitrary already-built preprocess
  /// stage — any InputTransform subclass, not just the stock spec zoo. This
  /// is the injection point for custom pipeline stages (the load tests gate a
  /// variant's preprocess to fill its queue deterministically). nullptr
  /// serves the bare forward path. The stage must honor the InputTransform
  /// contract: deterministic, per-image, thread-safe, shape-preserving.
  void register_pipeline_variant(const std::string& name, defense::TransformPtr transform,
                                 int replicas = 0);
  /// Register `name` as an alias of an existing variant: same shard, same
  /// replicas, no extra weight clones (e.g. serving a zoo model's name next
  /// to "base" when they are the same weights, or a "canary" alias).
  void alias_variant(const std::string& name, const std::string& existing);
  /// Re-copy the (possibly retrained) base weights into every replica of the
  /// named variant. Must not race in-flight requests for that variant.
  /// Throws std::logic_error — naming the variant and its kind — for
  /// register_model() / register_transform_model() shards, whose weights do
  /// not come from the base model. Transform-wrapped base variants refresh
  /// their weights; the transform stage is immutable and kept.
  void refresh_variant(const std::string& name);

  std::vector<std::string> variant_names() const;
  bool has_variant(const std::string& name) const;
  /// The model served by the named variant (replica 0; all replicas are
  /// bitwise-identical clones).
  const nn::LisaCnn& variant(const std::string& name) const;
  /// The model served by replica `index` of the named variant. All replicas
  /// are bitwise-identical and each owns its parameters; gradient-side
  /// attack drivers fan out across them. Crafting only reads a replica's
  /// weights (the attacks forward LisaCnn::frozen()), so concurrent drivers
  /// may also share one. Throws on a bad index.
  const nn::LisaCnn& replica_model(const std::string& name, int index) const;
  int replica_count(const std::string& name) const;
  /// The named variant's preprocess stage; nullptr for plain variants (and
  /// kNone transform registrations). Shared by all the variant's replicas,
  /// immutable and thread-safe — attack drivers wrap it into BPDA handles.
  defense::TransformPtr variant_transform(const std::string& name) const;
  /// The kind of shard the name resolves to: "weight-transfer",
  /// "foreign-model", or the transform-wrapped forms of either. Mirrors the
  /// wording of refresh_variant()'s error messages.
  std::string variant_kind(const std::string& name) const;
  /// True when the "defended" variant actually wraps a filter.
  bool defense_enabled() const { return defense_enabled_; }

  /// Classify a CHW image or an NCHW batch through the named variant.
  /// Returns one Prediction per image, in input order. Thread-safe.
  std::vector<Prediction> classify(const tensor::Tensor& images,
                                   const Options& options = {}) const;

  /// Raw logits for a CHW image or NCHW batch through the named variant, as
  /// an [N, num_classes] tensor in input order. Same routing/batching as
  /// classify(); for callers (evaluation harnesses, calibration) that want
  /// the score matrix instead of per-image predictions. Thread-safe.
  tensor::Tensor classify_logits(const tensor::Tensor& images,
                                 const Options& options = {}) const;

  /// Called once per admitted submit() with the request's outcome: `error` is
  /// null on success, in which case `prediction` holds the result.
  using Completion = std::function<void(std::exception_ptr error, Prediction prediction)>;

  /// Queue one CHW (or [1,C,H,W]) image for coalesced classification through
  /// the named variant. Replica workers are spawned lazily on the first call,
  /// so classify()-only engines never pay for them. The variant's queue is
  /// bounded by EngineConfig::queue_capacity: when full, submit() throws
  /// OverloadError immediately and never waits, so it is safe to call from an
  /// event loop.
  ///
  /// The replica worker that serves the request runs `complete` exactly once,
  /// after recording its latency and outside every engine lock, so the
  /// callback may call back into the engine (e.g. stats()). It runs on the
  /// worker thread, so it should be short, and it must not throw. When
  /// submit() itself throws (overload, unknown variant, bad shape, shutdown)
  /// the request was never admitted and `complete` is never run. Destroying
  /// the engine drains its queues: every admitted request completes first.
  void submit(tensor::Tensor image, Options options, Completion complete);
  /// Future-returning form of the above, for callers that want to block.
  std::future<Prediction> submit(tensor::Tensor image, Options options = {});

  EngineStats stats() const;
  /// Per-replica counter snapshot for one variant (aliases resolve to the
  /// shard they point at). Lets benches report exactly how many images a
  /// victim variant served during an evaluation protocol.
  VariantStats variant_stats(const std::string& name) const;
  /// Total images served through the named variant so far.
  std::int64_t images_served(const std::string& name) const;

 private:
  struct Request {
    tensor::Tensor image;  // CHW
    int max_batch = 0;  // cap for the coalesced batch this request leads
    std::chrono::steady_clock::time_point enqueued;  // for the latency ring
    Completion complete;
  };

  /// Samples each variant's latency ring holds. Large enough that a p999 over
  /// the window is meaningful, small enough that snapshot()'s sort is cheap.
  static constexpr std::size_t kLatencyWindow = 4096;

  struct VariantShard {
    std::string name;
    nn::LisaCnnConfig config;
    bool from_base = true;  // weights transferred from model_ (refreshable)
    defense::TransformPtr transform;  // preprocess stage; nullptr = bare forward
    std::vector<std::unique_ptr<Replica>> replicas;
    std::size_t next_replica = 0;  // round-robin tiebreak; guarded by shards_mutex_
    // Queued path, all guarded by the engine-wide queue_mutex_ (except
    // `latency`, which has its own lock). Each shard has its own queue and
    // condition variable so a submit() wakes only this variant's workers and
    // the head lookup is O(1).
    std::deque<Request> pending;
    util::DebugConditionVariable cv;  // workers wait here for requests
    bool workers_spawned = false;
    std::int64_t queue_peak = 0;  // high-water mark of pending.size()
    std::int64_t rejected = 0;    // submits shed because the queue was full
    LatencyRing latency{kLatencyWindow};  // enqueue→resolve, microseconds
  };

  /// _locked variants assume shards_mutex_ is held by the caller.
  std::vector<std::string> variant_names_locked() const;
  VariantShard* find_shard_locked(const std::string& name) const;
  VariantShard& require_shard_locked(const std::string& name) const;
  VariantShard& require_shard(const std::string& name) const;
  Replica& route_locked(VariantShard& shard) const;
  void register_variant_locked(const std::string& name, const nn::LisaCnnConfig& config,
                               int replicas);
  void register_shard_locked(const std::string& name, const nn::LisaCnn& source,
                             const nn::LisaCnnConfig& config, int replicas, bool from_base,
                             defense::TransformPtr transform = nullptr);
  static std::string shard_kind(const VariantShard& shard);
  /// Full per-variant snapshot (replica counters + queue counters + latency).
  VariantStats shard_stats(const VariantShard& shard) const;
  void worker_loop(VariantShard* shard, Replica* replica);

  nn::LisaCnn model_;
  int max_batch_ = 64;
  int default_replicas_ = 1;
  int queue_capacity_ = 1024;
  bool defense_enabled_ = false;

  // Lock hierarchy (outermost first): shards_mutex_ -> queue_mutex_ ->
  // LatencyRing/Replica stats leaves. stats() is the deepest path: it walks
  // shards under shards_mutex_ and snapshots each shard's queue counters and
  // latency ring. No path acquires shards_mutex_ while holding queue_mutex_
  // (submit() routes under shards_mutex_, releases, then queues). Enforced in
  // Debug builds by util::DebugMutex (src/util/lockdep.h).

  /// Guards shards_/aliases_ layout and the router's round-robin cursors.
  /// Shards are held by pointer so registration never invalidates replicas a
  /// worker or an in-flight classify() is using.
  mutable util::DebugMutex shards_mutex_ BLURNET_LOCK_CLASS("serve::Engine::shards");
  std::vector<std::unique_ptr<VariantShard>> shards_;
  /// Extra names resolving to an existing shard (e.g. "defended" -> base
  /// when the defense is disabled).
  std::vector<std::pair<std::string, VariantShard*>> aliases_;

  mutable util::DebugMutex queue_mutex_ BLURNET_LOCK_CLASS("serve::Engine::queue");
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Fraction of predictions whose label matches the ground truth. Throws when
/// the sizes disagree.
double accuracy(const std::vector<Prediction>& predictions, const std::vector<int>& labels);

}  // namespace blurnet::serve
