// Engine-backed evaluation harness: every attack protocol the bench binaries
// run (Tables I–V, the figures, the ablation) is expressed against a
// serve::InferenceEngine instead of raw models.
//
//   * eval::Harness owns (or borrows) an InferenceEngine and a registry of
//     **victims** — named engine variants plus per-victim prediction policy
//     (e.g. randomized smoothing). Victims can be independently trained
//     models (add_victim -> serve::InferenceEngine::register_model) or
//     weight-transfer variants of the engine's base model
//     (add_variant_victim / adopt_variant).
//   * Protocol objects (WhiteboxSweep, TransferMatrix, AdaptiveSweep) submit
//     every clean/adversarial classification batch through
//     classify(images, Options{variant}) and run their crafting through the
//     cross-victim SweepScheduler: every victim's per-target RP2 jobs are
//     striped over that victim's replica slots (replica k's model handles the
//     gradient side of its lane's targets; crafting only reads it, through a
//     frozen view), and *different victims' lanes run concurrently*
//     — a multi-victim evaluation saturates every registered replica shard
//     instead of sweeping victims one after another.
//
// Hard invariant, inherited from the serving layer and preserved by the
// scheduler: per-image predictions and every aggregated table number are
// bitwise identical for any replica count, scheduler interleaving, batch
// split, or routing order — replicas are deep weight clones, per-target
// crafting is seeded independently of scheduling, and all aggregation
// happens in submission/target-index order. Sharding the evaluation is
// purely a throughput decision.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/attack/threat_model.h"
#include "src/data/dataset.h"
#include "src/defense/randomized_smoothing.h"
#include "src/eval/experiments.h"
#include "src/serve/engine.h"

namespace blurnet::eval {

/// Per-victim registration knobs.
struct VictimSpec {
  /// Serving replicas for the victim's engine variant (0 = engine default).
  /// Ignored by adopt_variant(), which reuses the existing shard.
  int replicas = 0;
  /// Monte-Carlo randomized smoothing applied at prediction time (the
  /// paper's "Rand. sm" rows). The noisy sample batches are classified
  /// through the engine variant like any other evaluation traffic. Crafting
  /// still differentiates through the base model, matching the paper's
  /// protocol.
  std::optional<defense::SmoothingConfig> smoothing;
};

class Harness {
 public:
  /// Borrow an engine the caller owns — evaluation traffic rides the same
  /// replicas as any other traffic on it. The engine must outlive the
  /// harness (and any VictimHandle obtained from it).
  explicit Harness(serve::InferenceEngine& engine);
  /// Own a dedicated engine built around `base` (served as variant "base")
  /// with `replicas` serving replicas per variant.
  explicit Harness(const nn::LisaCnn& base, int replicas = 1, int max_batch = 64);

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  serve::InferenceEngine& engine() { return *engine_; }
  const serve::InferenceEngine& engine() const { return *engine_; }

  /// Register an independently trained model as engine variant `name` (deep
  /// weight clones on every replica) and as a victim.
  void add_victim(const std::string& name, const nn::LisaCnn& model,
                  const VictimSpec& spec = {});
  /// Register a weight-transfer variant of the engine's base model (Table I
  /// protocol: `config`'s architecture serving the base weights) as a victim.
  void add_variant_victim(const std::string& name, const nn::LisaCnnConfig& config,
                          const VictimSpec& spec = {});
  /// Register an input-transform defense over the engine's base weights
  /// (serve::InferenceEngine::register_transform_variant — the
  /// preprocess→forward pipeline) as a victim. victim_handle() exposes the
  /// transform, so RP2/PGD craft against it with BPDA straight-through
  /// gradients by default.
  void add_transform_victim(const std::string& name, const defense::TransformSpec& transform,
                            const VictimSpec& spec = {});
  /// Mark an already-registered engine variant (e.g. "base" or "defended")
  /// as a victim.
  void adopt_variant(const std::string& name, const VictimSpec& spec = {});

  bool has_victim(const std::string& name) const;
  std::vector<std::string> victim_names() const;
  int replica_count(const std::string& victim) const;
  /// Images the victim's variant has served so far (exact per-replica sums).
  std::int64_t images_served(const std::string& victim) const;

  /// Labels for a CHW image or NCHW batch through the victim's serving path,
  /// with the victim's prediction policy (smoothing) applied.
  std::vector<int> predict(const std::string& victim, const tensor::Tensor& images) const;
  /// Clean accuracy on a labeled dataset through the serving path.
  double dataset_accuracy(const std::string& victim, const data::Dataset& data) const;
  /// Fraction of `images` classified as the stop sign (Table I "Accuracy").
  double stop_sign_accuracy(const std::string& victim, const tensor::Tensor& images) const;

  /// Attack handle for fan-out slot `slot`: gradients through replica
  /// (slot % replica_count)'s model — every replica is a bitwise-identical
  /// deep clone, but each owns its autograd state, so distinct slots can
  /// craft concurrently — and predictions through the engine's batched
  /// classify on the victim's variant (no smoothing: the handle's
  /// predictions mirror the raw serving path; prediction policy is applied
  /// by predict()). A transform-wrapped victim's handle also carries the
  /// variant's input transform for BPDA crafting.
  attack::VictimHandle victim_handle(const std::string& victim, int slot = 0) const;

 private:
  struct Victim {
    std::string name;
    std::optional<defense::SmoothingConfig> smoothing;
  };

  const Victim& require_victim(const std::string& name) const;
  void add_entry(const std::string& name, const VictimSpec& spec);
  std::vector<int> classify_labels(const std::string& variant,
                                   const tensor::Tensor& images) const;

  std::unique_ptr<serve::InferenceEngine> owned_;  // only when constructed from a model
  serve::InferenceEngine* engine_;
  std::vector<Victim> victims_;
};

/// White-box target sweep (Table II protocol): attack the victim on the stop
/// sign set at every target class; aggregates altered-ASR / L2. run() is a
/// single-job SweepScheduler — enqueue several victims' sweeps on one
/// scheduler to run them concurrently across their replica shards.
struct WhiteboxSweep {
  ExperimentScale scale;

  SweepResult run(const Harness& harness, const std::string& victim, double legit_accuracy,
                  const data::StopSignSet& eval_set) const;
};

/// Adaptive white-box sweep (Table III/V protocol): the same target sweep
/// with the protocol's base RP2 config tailored to the victim through
/// `adapt` (attack::low_frequency_adapter, attack::tv_aware_adapter, ...).
/// `adapt` is invoked once per target on the thread that prepares the
/// schedule, before the crafting fan-out, so it needs no synchronization of
/// its own.
struct AdaptiveSweep {
  ExperimentScale scale;
  ConfigAdapter adapt;

  SweepResult run(const Harness& harness, const std::string& victim, double legit_accuracy,
                  const data::StopSignSet& eval_set) const;
};

/// Black-box transfer matrix (Table I protocol): each per-target sticker is
/// crafted ONCE on `source` (fanned across its replicas), then the same
/// physical sticker is evaluated on every victim variant through the engine.
/// Result i corresponds to victims[i].
struct TransferMatrix {
  ExperimentScale scale;

  std::vector<TransferResult> run(const Harness& harness, const std::string& source,
                                  const std::vector<std::string>& victims,
                                  const data::StopSignSet& eval_set) const;
};

/// serve::EngineStats-style snapshot of one crafting victim's progress
/// through a SweepScheduler run: exact counters, readable mid-flight.
struct VictimProgress {
  std::string victim;              // crafting victim (a sweep's victim / a transfer's source)
  int targets_total = 0;           // crafting tasks enqueued against this victim
  int targets_done = 0;            // crafting tasks finished so far
  int lanes = 0;                   // concurrent crafting lanes (<= victim's replicas; 0 before run())
  std::int64_t images_served = 0;  // engine counter for the victim's variant
};

/// Cross-victim sweep scheduler: enqueue whole protocols (white-box /
/// adaptive sweeps, transfer matrices) for *different* victims and run every
/// crafting job concurrently across each victim's replica shards instead of
/// finishing one victim before starting the next. Within a victim, lane l
/// owns that victim's tasks l, l+L, ... (one lane per replica, so no two
/// concurrent crafting runs share a replica's autograd state); across
/// victims, all lanes run in parallel on the process pool.
///
/// Results are bitwise identical to running each protocol's run() by itself,
/// for any replica count and any lane interleaving: per-target crafting
/// seeds depend only on the target, results land in per-task storage, and
/// aggregation happens sequentially in submission order after the barrier.
///
/// Usage: add(...) every job, then run() exactly once, then read
/// sweep_result(job) / transfer_result(job). progress() may be called from
/// another thread while run() is in flight (e.g. a reporting loop); it must
/// not race add().
class SweepScheduler {
 public:
  explicit SweepScheduler(const Harness& harness);
  ~SweepScheduler();

  SweepScheduler(const SweepScheduler&) = delete;
  SweepScheduler& operator=(const SweepScheduler&) = delete;

  /// Enqueue a protocol. The returned job id indexes the matching
  /// *_result() accessor. `eval_set` is borrowed and must outlive run().
  std::size_t add(const WhiteboxSweep& protocol, const std::string& victim,
                  double legit_accuracy, const data::StopSignSet& eval_set);
  std::size_t add(const AdaptiveSweep& protocol, const std::string& victim,
                  double legit_accuracy, const data::StopSignSet& eval_set);
  std::size_t add(const TransferMatrix& protocol, const std::string& source,
                  std::vector<std::string> victims, const data::StopSignSet& eval_set);

  /// Execute every queued job: per-job preparation (adapters, clean
  /// predictions) in submission order, one cross-victim crafting fan-out,
  /// then per-job aggregation in submission order. Callable once.
  void run();

  std::size_t job_count() const;
  /// Result accessors; throw std::logic_error before run() completes and
  /// std::invalid_argument for a job id of the wrong protocol kind.
  const SweepResult& sweep_result(std::size_t job) const;
  const std::vector<TransferResult>& transfer_result(std::size_t job) const;

  /// One entry per crafting victim, in first-enqueued order.
  std::vector<VictimProgress> progress() const;

 private:
  struct Job;
  struct VictimLanes;

  VictimLanes& lanes_for(const std::string& victim);
  static void run_task(const Harness& harness, Job& job, std::size_t target_index, int slot);

  const Harness* harness_;
  std::vector<std::unique_ptr<Job>> jobs_;
  std::vector<std::unique_ptr<VictimLanes>> victims_;
  /// Guards jobs_/victims_ layout for progress() readers (counters are
  /// atomics; entries are held by pointer so they never move).
  mutable std::mutex mutex_;
  bool ran_ = false;        // run() entered (rejects further add()/run())
  bool completed_ = false;  // run() finished (gates the result accessors)
};

}  // namespace blurnet::eval
