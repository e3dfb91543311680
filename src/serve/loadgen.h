// Deterministic open-loop load generator for the serving engine.
//
// Closed-loop drivers (send, wait, send) hide overload: when the server slows
// down, the driver slows down with it, and the measured latency stays flat no
// matter how far behind the server falls ("coordinated omission"). This
// generator is open-loop: the *entire* arrival schedule — when each request
// fires and which variant it targets — is precomputed from a seeded
// util::Rng before the first send, and the sender fires each request at its
// scheduled absolute time whether or not earlier ones have finished. Latency
// is measured against the scheduled arrival, so queueing delay a real client
// would suffer is charged to the server.
//
// Determinism contract: two LoadGenerators built from the same LoadConfig
// produce bitwise-identical schedules — same arrival offsets, same
// per-request variant routing (exposed via arrival_offsets() /
// variant_schedule() so tests can assert it). Wall-clock measurements of a
// run naturally vary; the traffic itself never does.
//
// Three arrival processes:
//   * kPoisson — exponential inter-arrivals at offered_rps; the classic
//     memoryless open-loop workload.
//   * kOnOff   — bursty traffic: Poisson arrivals at offered_rps/on_fraction
//     during the "on" window of each burst_cycle_s cycle, silence otherwise.
//     Mean rate stays offered_rps; bursts stress queue capacity and tails.
//   * kUniform — fixed pacing at exactly 1/offered_rps; the no-variance
//     baseline that isolates service-time jitter from arrival jitter.
//
// Rejected submits (OverloadError from a full engine queue) are counted per
// variant, never retried — an open-loop shed is load the server refused,
// which is the datum. Each request is timed
// by its own engine completion callback, so a request that overtakes a slower
// earlier one (another replica's batch) is charged only its own latency.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/serve/engine.h"
#include "src/serve/qos.h"
#include "src/tensor/tensor.h"

namespace blurnet::serve {

enum class ArrivalProcess { kPoisson, kOnOff, kUniform };

const char* to_string(ArrivalProcess arrival);

/// One entry of the traffic mix: a variant name and its relative weight.
struct VariantMix {
  std::string variant;
  double weight = 1.0;
};

struct LoadConfig {
  /// Mean offered arrival rate, requests/second, over the whole run.
  double offered_rps = 100.0;
  ArrivalProcess arrival = ArrivalProcess::kPoisson;
  /// kOnOff: fraction of each cycle spent sending, in (0, 1].
  double on_fraction = 0.5;
  /// kOnOff: on+off cycle length in seconds.
  double burst_cycle_s = 0.2;
  /// Total requests in the schedule.
  int requests = 1000;
  /// Seed for the schedule (arrivals and variant routing).
  std::uint64_t seed = 42;
  /// Traffic mix; empty means 100% "base". Weights are relative.
  std::vector<VariantMix> mix;
  /// Options::max_batch passed through to submit(); 0 = engine default.
  int max_batch = 0;
  /// Per-variant latency reservoir capacity (ring of the latest samples).
  int reservoir = 65536;

  /// Reject malformed configs with a descriptive std::invalid_argument
  /// (engine validation style).
  void validate() const;
};

/// Per-variant outcome counters and latency over the reservoir window.
struct VariantLoadStats {
  std::string variant;
  std::int64_t offered = 0;   // requests the schedule routed here
  std::int64_t served = 0;    // requests that completed with a Prediction
  std::int64_t rejected = 0;  // sheds: OverloadError at submit()
  std::int64_t failed = 0;    // requests that completed with an error
  LatencySnapshot latency;    // completion − scheduled arrival, microseconds
};

struct LoadReport {
  double offered_rps = 0.0;   // from the config
  double achieved_rps = 0.0;  // served / duration
  double duration_s = 0.0;    // first scheduled send → last completion
  std::int64_t offered = 0;
  std::int64_t served = 0;
  std::int64_t rejected = 0;
  std::int64_t failed = 0;
  LatencySnapshot latency;    // all variants merged
  std::vector<VariantLoadStats> variants;  // mix order
};

class LoadGenerator {
 public:
  /// Builds the full deterministic schedule up front; the engine is not
  /// touched until run(). Throws std::invalid_argument on a bad config.
  LoadGenerator(InferenceEngine& engine, LoadConfig config);

  /// Scheduled send time of each request, seconds after the run starts.
  /// Strictly derived from (seed, arrival process, offered_rps); sorted
  /// non-decreasing.
  const std::vector<double>& arrival_offsets() const { return offsets_; }
  /// Mix index each request targets (into mix()); same length as
  /// arrival_offsets().
  const std::vector<std::size_t>& variant_schedule() const { return variants_; }
  /// The normalized mix actually used ("base" when the config's was empty).
  const std::vector<VariantMix>& mix() const { return mix_; }
  const LoadConfig& config() const { return config_; }

  /// Replay the schedule against the engine, submitting `image` (CHW; submit()
  /// copies it on admission). Blocks until every non-rejected request
  /// resolves. May be called repeatedly; each run replays the identical
  /// schedule.
  LoadReport run(const tensor::Tensor& image);

 private:
  void build_schedule();

  InferenceEngine& engine_;
  LoadConfig config_;
  std::vector<VariantMix> mix_;
  std::vector<double> offsets_;
  std::vector<std::size_t> variants_;
};

}  // namespace blurnet::serve
