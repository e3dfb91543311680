// Shared declarations of the repository benchmark (see perfbench/README.md).
//
// Every workload drives the library through its public API only; the offered
// rates, latency limits and model/serving shapes below are constants so two
// runs of the same code measure the same thing on any day.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/attack/rp2.h"
#include "src/net/server.h"
#include "src/serve/engine.h"
#include "src/tensor/tensor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using blurnet::tensor::Tensor;

// ---- fixed workload constants ----------------------------------------------

/// Distinct seeded 3x32x32 images served by offline/online/overload: 12.6 MB
/// of float input, larger than a core's L2, so inputs stream from memory.
inline constexpr int kPoolImages = 1024;
inline constexpr int kImageSize = 32;
inline constexpr int kOfflineBatch = 64;
inline constexpr int kReplicas = 1;
inline constexpr int kQueueCapacity = 64;
inline constexpr int kConnections = 2;
/// Offered rates (requests/s, Poisson) and latency limits (ms, due time to
/// reply). Never recalibrated. On the 4-core AVX2 host this benchmark was
/// defined on, this engine saturates near 2500 req/s, and lower when
/// neighbours load the host. Online runs at about a quarter of that (at half,
/// 1100 req/s, every host slowdown tipped the engine into a lasting backlog);
/// overload runs near 2x.
inline constexpr double kOnlineRate = 600.0;
inline constexpr double kOverloadRate = 5000.0;
inline constexpr double kOnlineLimitMs = 50.0;
inline constexpr double kOverloadLimitMs = 500.0;
/// RP2 crafting: shared sticker over kAttackImages stop signs, EOT with
/// kAttackPoses poses per step, kAttackIterations steps per rp2_attack call.
inline constexpr int kAttackImages = 8;
inline constexpr int kAttackPoses = 4;
inline constexpr int kAttackIterations = 2;
/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 15;
/// A reply's logit matches its reference within kLogitTol * (1 + |ref|).
inline constexpr float kLogitTol = 1e-4f;

/// Served variants, in mix order defended:base:median3 = 2:1:1.
inline constexpr int kVariantCount = 3;
extern const char* const kVariantNames[kVariantCount];
extern const double kVariantWeights[kVariantCount];

// ---- statistics ------------------------------------------------------------

/// Nearest-rank quantile of `values` (copied and sorted); 0 when empty.
double quantile(std::vector<double> values, double q);
/// The percentile reported as "p99": 0.99, or lower when the sample has
/// fewer than 10 values beyond the 99th percentile (highest q with at least
/// 10 samples above it).
double tail_q(std::size_t count);
double ms_between(Clock::time_point a, Clock::time_point b);
/// CPU time consumed so far by all threads of this process, in milliseconds.
double process_cpu_ms();

// ---- tracing ---------------------------------------------------------------

/// In-memory span recorder for the traced run: one span per public call the
/// benchmark makes, written out when the run ends. A null Tracer* is "off".
class Tracer {
 public:
  struct Span {
    const char* name;
    Clock::time_point start, end;
    std::int64_t id, parent, request;
  };

  Tracer();
  std::int64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              std::int64_t id, std::int64_t parent, std::int64_t request);
  /// JSON document of every span as a row of `fields`, times in microseconds
  /// since the tracer began.
  std::string to_json() const;

 private:
  Clock::time_point origin_;
  std::atomic<std::int64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span around one call; a no-op when `tracer` is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::int64_t parent = 0,
             std::int64_t request = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  std::int64_t id_ = 0, parent_, request_;
  Clock::time_point start_;
};

// ---- inputs, serving and the reference -------------------------------------

/// The seeded image pool: kPoolImages CHW images plus the same images packed
/// into kPoolImages / kOfflineBatch NCHW batches.
struct ImagePool {
  std::vector<Tensor> images;
  std::vector<Tensor> batches;
};
ImagePool make_pool(std::uint64_t seed, int count);

/// One open-loop request: when it is due (seconds from the run's start),
/// which variant and pool image it carries, and which connection sends it.
struct Request {
  double due_s = 0.0;
  int variant = 0;
  int image = 0;
  int connection = 0;
};
std::vector<Request> make_schedule(std::uint64_t seed, double rate, double seconds, int pool);

/// The served system: engine (variants base, defended, median3) and, for the
/// network workloads, blurnetd on a loopback ephemeral port.
struct Serving {
  std::unique_ptr<blurnet::serve::InferenceEngine> engine;
  std::unique_ptr<blurnet::net::Server> server;  // destroyed before the engine
};
/// Build, register and warm up the served system (what setup_s times).
Serving start_serving(bool with_server, const Tensor& warm_batch);

/// Single-model reference logits for every (variant, pool image):
/// LisaCnn::logits on the variant's replica model after its transform.
struct Reference {
  int pool = 0;
  int classes = 0;
  std::vector<float> logits;  // [variant][image][class]
  std::vector<int> labels;    // [variant][image]
  const float* row(int variant, int image) const {
    return logits.data() + (static_cast<std::size_t>(variant) * pool + image) * classes;
  }
  int label(int variant, int image) const {
    return labels[static_cast<std::size_t>(variant) * pool + image];
  }
};
Reference make_reference(const blurnet::serve::InferenceEngine& engine, const ImagePool& pool);
/// True when `prediction` matches the reference row within kLogitTol; a label
/// differing from the reference passes only on a reference near-tie.
bool matches(const Reference& reference, int variant, int image,
             const blurnet::serve::Prediction& prediction);

// ---- workloads -------------------------------------------------------------

/// One timed operation: a 64-image classify call (offline), one request
/// (online, overload) or one rp2_attack call (attack).
struct Op {
  double latency_ms = 0.0;  // start (due) to completion; valid when `served`
  std::int64_t good = 0;    // correct units completed: images, 1 request, iterations
  bool served = false;      // completed with a reply (not shed, not an error)
};

/// What one measured pass of a workload produced.
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;  // wrong outputs + unexpected errors
  std::int64_t shed = 0;    // requests refused by admission control
  std::int64_t errors = 0;
  std::int64_t wrong = 0;
  double window_s = 0.0;
  std::vector<Op> ops;
  // Network workloads only.
  std::vector<double> send_lag_ms;
  /// Send start to reply of the defended replies the engine's latency ring
  /// holds at the end: the last engine_window of them, by arrival.
  std::vector<double> rtt_defended_ms;
  std::int64_t bytes = 0, protocol_errors = 0;
  // Engine stats: deltas over the window, except the high-water marks
  // largest_batch and queue_peak, which are the engine's lifetime values.
  std::int64_t engine_requests = 0, engine_batches = 0, largest_batch = 0, queue_peak = 0,
               rejected = 0;
  double replica_imbalance = 0.0;
  /// The defended variant's latency ring: its last engine_window samples.
  double engine_p50_ms = 0.0, engine_p99_ms = 0.0;
  std::int64_t engine_window = 0;
  std::int64_t scratch_heap_allocs = 0;
  std::int64_t predict_images = 0;  // attack: images the victim classified
  /// Process CPU time over the window per served unit (image, replied request
  /// or RP2 iteration); all threads, so the client side is included.
  double cpu_ms_per_unit = 0.0;
};

/// Wall-clock figures over the whole window: correct units per second, the
/// median latency, and the highest percentile with at least 10 samples beyond
/// it, capped at p99.
struct Summary {
  double goodput_per_s = 0.0, p50_ms = 0.0, tail_ms = 0.0, tail_q = 0.99;
  std::size_t served = 0;
  std::int64_t good = 0;
};
Summary summarize(const RunResult& r);

RunResult run_offline(Serving& serving, const ImagePool& pool, const Reference& reference,
                      std::uint64_t seed, double seconds, Tracer* tracer);
RunResult run_network(Serving& serving, const ImagePool& pool, const Reference& reference,
                      const std::vector<Request>& schedule, double seconds, double limit_ms,
                      Tracer* tracer);

struct AttackInputs {
  Tensor images;  // [kAttackImages, 3, 32, 32] rendered stop signs
  Tensor masks;   // [kAttackImages, 1, 32, 32] sticker masks
};
AttackInputs make_attack_inputs(std::uint64_t seed);
/// The configuration of the workload's `call`-th rp2_attack call.
blurnet::attack::Rp2Config attack_config(std::uint64_t seed, std::uint64_t call, int classes);
RunResult run_attack(Serving& serving, const AttackInputs& inputs, std::uint64_t seed,
                     double seconds, Tracer* tracer);

// ---- per-layer replays (traced run) ------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
/// Replays of the served path layer by layer, kernels, codecs and the RP2
/// steps. Appends metrics; returns false when a replay's logits differ bitwise
/// from InferenceEngine::classify_logits for the same images, or the replayed
/// RP2 steps' sticker differs bitwise from rp2_attack's.
bool measure_layers(const blurnet::serve::InferenceEngine& engine, const ImagePool& pool,
                    const AttackInputs& attack, std::uint64_t seed, Tracer* tracer,
                    std::vector<Metric>& out);

}  // namespace perfbench
