#include "src/eval/harness.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "src/attack/masks.h"
#include "src/attack/rp2.h"
#include "src/tensor/ops.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"

namespace blurnet::eval {

using tensor::Tensor;

namespace {

/// Labels for a batch through the engine's serving path on one variant; the
/// single prediction route shared by Harness::predict and VictimHandle.
std::vector<int> engine_labels(const serve::InferenceEngine& engine,
                               const std::string& variant, const Tensor& images) {
  const auto predictions = engine.classify(images, serve::Options{variant});
  std::vector<int> labels;
  labels.reserve(predictions.size());
  for (const auto& prediction : predictions) labels.push_back(prediction.label);
  return labels;
}

}  // namespace

Harness::Harness(serve::InferenceEngine& engine) : engine_(&engine) {}

Harness::Harness(const nn::LisaCnn& base, int replicas, int max_batch)
    : owned_(std::make_unique<serve::InferenceEngine>(base, nn::FixedFilterSpec{}, max_batch,
                                                      replicas)),
      engine_(owned_.get()) {}

void Harness::add_entry(const std::string& name, const VictimSpec& spec) {
  for (const auto& victim : victims_) {
    if (victim.name == name) {
      throw std::invalid_argument("Harness: victim \"" + name + "\" is already registered");
    }
  }
  victims_.push_back(Victim{name, spec.smoothing});
}

void Harness::add_victim(const std::string& name, const nn::LisaCnn& model,
                         const VictimSpec& spec) {
  engine_->register_model(name, model, spec.replicas);
  add_entry(name, spec);
}

void Harness::add_variant_victim(const std::string& name, const nn::LisaCnnConfig& config,
                                 const VictimSpec& spec) {
  engine_->register_variant(name, config, spec.replicas);
  add_entry(name, spec);
}

void Harness::add_transform_victim(const std::string& name,
                                   const defense::TransformSpec& transform,
                                   const VictimSpec& spec) {
  engine_->register_transform_variant(name, transform, spec.replicas);
  add_entry(name, spec);
}

void Harness::adopt_variant(const std::string& name, const VictimSpec& spec) {
  if (!engine_->has_variant(name)) {
    throw std::invalid_argument("Harness::adopt_variant: engine has no variant \"" + name +
                                "\"");
  }
  add_entry(name, spec);
}

const Harness::Victim& Harness::require_victim(const std::string& name) const {
  for (const auto& victim : victims_) {
    if (victim.name == name) return victim;
  }
  std::string known;
  for (const auto& victim : victims_) {
    if (!known.empty()) known += ", ";
    known += victim.name;
  }
  throw std::invalid_argument("Harness: unknown victim \"" + name +
                              "\" (registered: " + known + ")");
}

bool Harness::has_victim(const std::string& name) const {
  for (const auto& victim : victims_) {
    if (victim.name == name) return true;
  }
  return false;
}

std::vector<std::string> Harness::victim_names() const {
  std::vector<std::string> names;
  names.reserve(victims_.size());
  for (const auto& victim : victims_) names.push_back(victim.name);
  return names;
}

int Harness::replica_count(const std::string& victim) const {
  return engine_->replica_count(require_victim(victim).name);
}

std::int64_t Harness::images_served(const std::string& victim) const {
  return engine_->images_served(require_victim(victim).name);
}

std::vector<int> Harness::classify_labels(const std::string& variant,
                                          const Tensor& images) const {
  return engine_labels(*engine_, variant, images);
}

std::vector<int> Harness::predict(const std::string& victim, const Tensor& images) const {
  const Victim& entry = require_victim(victim);
  // Accept a CHW image wherever a batch is accepted (the engine normalizes
  // the plain path; the smoothing path needs NCHW up front).
  const Tensor batch =
      images.rank() == 3
          ? images.reshape(tensor::Shape::nchw(1, images.dim(0), images.dim(1), images.dim(2)))
          : images;
  if (entry.smoothing) {
    return defense::smoothed_predict(
        [this, &entry](const Tensor& samples) { return classify_labels(entry.name, samples); },
        engine_->variant(entry.name).config().num_classes, batch, *entry.smoothing);
  }
  return classify_labels(entry.name, batch);
}

double Harness::dataset_accuracy(const std::string& victim, const data::Dataset& data) const {
  if (data.size() == 0) return 0.0;
  const auto predictions = predict(victim, data.images);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    if (predictions[i] == data.labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(predictions.size());
}

double Harness::stop_sign_accuracy(const std::string& victim, const Tensor& images) const {
  const auto predictions = predict(victim, images);
  if (predictions.empty()) return 0.0;
  int correct = 0;
  for (const int label : predictions) {
    if (label == data::SignRenderer::stop_class_id()) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(predictions.size());
}

attack::VictimHandle Harness::victim_handle(const std::string& victim, int slot) const {
  const Victim& entry = require_victim(victim);
  if (slot < 0) throw std::invalid_argument("Harness::victim_handle: slot must be >= 0");
  const int replicas = engine_->replica_count(entry.name);
  const nn::LisaCnn& gradient_model = engine_->replica_model(entry.name, slot % replicas);
  // The closures capture the engine pointer and the variant name by value so
  // the handle stays valid as long as the engine does. A transform-wrapped
  // victim's handle also carries the variant's (shared, immutable) input
  // transform, so the attack side can craft with BPDA straight-through
  // gradients against exactly the preprocess stage the serving path runs.
  const serve::InferenceEngine* engine = engine_;
  attack::VictimHandle::TransformFn transform_fn;
  if (defense::TransformPtr transform = engine_->variant_transform(entry.name)) {
    transform_fn = [transform = std::move(transform)](const Tensor& images) {
      return transform->apply(images);
    };
  }
  return attack::VictimHandle(gradient_model,
                              [engine, name = entry.name](const Tensor& images) {
                                return engine_labels(*engine, name, images);
                              },
                              std::move(transform_fn));
}

// ---- cross-victim sweep scheduler -------------------------------------------

/// One enqueued protocol. Configuration is captured at add(); the crafting
/// state (configs, stickers, per-task storage) is populated by prepare() at
/// the head of run(), and the aggregate outputs by aggregate() at its tail.
struct SweepScheduler::Job {
  enum class Kind { kSweep, kTransfer };

  Kind kind = Kind::kSweep;
  std::string victim;  // crafting victim (sweep) or source (transfer)
  double legit_accuracy = 0.0;
  const data::StopSignSet* eval_set = nullptr;  // borrowed; outlives run()
  ExperimentScale scale;
  ConfigAdapter adapt;                        // sweeps only (may be null)
  std::vector<std::string> transfer_victims;  // transfer only

  // prepare() outputs.
  data::StopSignSet craft_set;
  Tensor craft_sticker;
  Tensor eval_sticker;
  std::vector<int> targets;
  std::vector<attack::Rp2Config> configs;  // one per target
  std::vector<int> clean_pred;             // sweep only: one engine pass up front

  // Per-task crafting outputs (index = target index, so results are
  // independent of which lane ran the task).
  std::vector<PerTargetResult> per;    // sweep
  std::vector<Tensor> adversarial;     // transfer

  // aggregate() outputs.
  SweepResult sweep_out;
  std::vector<TransferResult> transfer_out;
};

/// All crafting tasks enqueued against one victim, across jobs. Lane l runs
/// tasks l, l+L, ... in enqueue order; `done` is the progress counter the
/// mid-flight snapshots read.
struct SweepScheduler::VictimLanes {
  std::string victim;
  std::vector<std::pair<std::size_t, std::size_t>> tasks;  // (job index, target index)
  std::atomic<int> done{0};
  int lanes = 0;  // assigned by run(); <= the victim's replica count
};

SweepScheduler::SweepScheduler(const Harness& harness) : harness_(&harness) {}
SweepScheduler::~SweepScheduler() = default;

SweepScheduler::VictimLanes& SweepScheduler::lanes_for(const std::string& victim) {
  for (auto& group : victims_) {
    if (group->victim == victim) return *group;
  }
  victims_.push_back(std::make_unique<VictimLanes>());
  victims_.back()->victim = victim;
  return *victims_.back();
}

std::size_t SweepScheduler::add(const WhiteboxSweep& protocol, const std::string& victim,
                                double legit_accuracy, const data::StopSignSet& eval_set) {
  AdaptiveSweep plain{protocol.scale, nullptr};
  return add(plain, victim, legit_accuracy, eval_set);
}

std::size_t SweepScheduler::add(const AdaptiveSweep& protocol, const std::string& victim,
                                double legit_accuracy, const data::StopSignSet& eval_set) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ran_) throw std::logic_error("SweepScheduler::add: scheduler already ran");
  harness_->replica_count(victim);  // validates the victim is registered
  auto job = std::make_unique<Job>();
  job->kind = Job::Kind::kSweep;
  job->victim = victim;
  job->legit_accuracy = legit_accuracy;
  job->eval_set = &eval_set;
  job->scale = protocol.scale;
  job->adapt = protocol.adapt;
  job->targets = protocol.scale.target_classes();
  jobs_.push_back(std::move(job));
  const std::size_t id = jobs_.size() - 1;
  auto& group = lanes_for(victim);
  for (std::size_t t = 0; t < jobs_[id]->targets.size(); ++t) group.tasks.emplace_back(id, t);
  return id;
}

std::size_t SweepScheduler::add(const TransferMatrix& protocol, const std::string& source,
                                std::vector<std::string> victims,
                                const data::StopSignSet& eval_set) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ran_) throw std::logic_error("SweepScheduler::add: scheduler already ran");
  harness_->replica_count(source);
  for (const auto& victim : victims) harness_->replica_count(victim);
  auto job = std::make_unique<Job>();
  job->kind = Job::Kind::kTransfer;
  job->victim = source;
  job->eval_set = &eval_set;
  job->scale = protocol.scale;
  job->transfer_victims = std::move(victims);
  job->targets = protocol.scale.target_classes();
  jobs_.push_back(std::move(job));
  const std::size_t id = jobs_.size() - 1;
  auto& group = lanes_for(source);
  for (std::size_t t = 0; t < jobs_[id]->targets.size(); ++t) group.tasks.emplace_back(id, t);
  return id;
}

/// Craft one target's sticker against the job's victim through lane `slot`'s
/// replica and fill the task's slot in the job's per-target storage.
void SweepScheduler::run_task(const Harness& harness, Job& job, std::size_t t, int slot) {
  const auto crafted =
      attack::rp2_attack(harness.victim_handle(job.victim, slot), job.craft_set.images,
                         job.craft_sticker, job.configs[t]);
  const auto adversarial = attack::apply_shared_sticker(job.eval_set->images,
                                                        job.eval_sticker, crafted.shared_delta);
  if (job.kind == Job::Kind::kTransfer) {
    job.adversarial[t] = adversarial;
    return;
  }
  // Sweep: evaluate the sticker on the held-out set right away.
  const auto adv_pred = harness.predict(job.victim, adversarial);
  PerTargetResult& out = job.per[t];
  out.target = job.targets[t];
  int altered = 0, hits = 0;
  for (std::size_t i = 0; i < job.clean_pred.size(); ++i) {
    if (job.clean_pred[i] != adv_pred[i]) ++altered;
    if (adv_pred[i] == out.target) ++hits;
  }
  const double count = static_cast<double>(job.clean_pred.size());
  out.success_rate = count > 0 ? altered / count : 0.0;
  out.targeted_rate = count > 0 ? hits / count : 0.0;
  out.l2_dissimilarity = tensor::l2_dissimilarity(adversarial, job.eval_set->images);
  util::log_debug() << "sweep victim=" << job.victim << " target=" << out.target
                    << " asr=" << out.success_rate << " l2=" << out.l2_dissimilarity;
}

void SweepScheduler::run() {
  struct Lane {
    VictimLanes* group;
    int lane;
  };
  std::vector<Lane> lanes;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (ran_) throw std::logic_error("SweepScheduler::run: scheduler already ran");
    ran_ = true;
    for (auto& group : victims_) {
      group->lanes = static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(std::max(harness_->replica_count(group->victim), 1)),
          group->tasks.size()));
      for (int l = 0; l < group->lanes; ++l) lanes.push_back({group.get(), l});
    }
  }

  // Per-job preparation, sequentially in submission order: the craft set,
  // per-target configs (the adapter is caller-supplied code with no
  // thread-safety contract) and the target-independent clean predictions.
  for (auto& job_ptr : jobs_) {
    Job& job = *job_ptr;
    job.craft_set = attacker_craft_set(job.scale);
    job.craft_sticker = attack::sticker_mask(job.craft_set.masks);
    job.eval_sticker = attack::sticker_mask(job.eval_set->masks);
    const std::uint64_t seed_base = job.kind == Job::Kind::kSweep ? 1000 : 2000;
    job.configs.reserve(job.targets.size());
    for (const int target : job.targets) {
      attack::Rp2Config config = paper_rp2_config(job.scale);
      config.target_class = target;
      config.seed = seed_base + static_cast<std::uint64_t>(target);
      if (job.adapt) config = job.adapt(config);
      job.configs.push_back(std::move(config));
    }
    if (job.kind == Job::Kind::kSweep) {
      job.clean_pred = harness_->predict(job.victim, job.eval_set->images);
      job.per.resize(job.targets.size());
    } else {
      job.adversarial.resize(job.targets.size());
    }
  }

  // The cross-victim fan-out: every victim's lanes run concurrently, each
  // lane striding its victim's task list. A lane is whole crafting runs, far
  // above the work floor, so each lane is its own pool chunk; nested
  // parallel_for calls inside the crafting runs fall back inline, so the
  // pool is never deadlocked.
  util::parallel_for(
      static_cast<std::int64_t>(lanes.size()),
      [&](std::int64_t l0, std::int64_t l1) {
        for (std::int64_t l = l0; l < l1; ++l) {
          VictimLanes& group = *lanes[static_cast<std::size_t>(l)].group;
          const int lane = lanes[static_cast<std::size_t>(l)].lane;
          for (std::size_t i = static_cast<std::size_t>(lane); i < group.tasks.size();
               i += static_cast<std::size_t>(group.lanes)) {
            const auto [job_index, target_index] = group.tasks[i];
            run_task(*harness_, *jobs_[job_index], target_index, lane);
            group.done.fetch_add(1, std::memory_order_relaxed);
          }
        }
      },
      /*min_chunk=*/1, /*cost=*/util::kWorkFloor);

  // Per-job aggregation, sequentially in submission order — independent of
  // the crafting schedule.
  for (auto& job_ptr : jobs_) {
    Job& job = *job_ptr;
    if (job.kind == Job::Kind::kSweep) {
      SweepResult& result = job.sweep_out;
      result.legit_accuracy = job.legit_accuracy;
      double sum_asr = 0.0, sum_l2 = 0.0;
      for (const auto& entry : job.per) {
        result.per_target.push_back(entry);
        sum_asr += entry.success_rate;
        sum_l2 += entry.l2_dissimilarity;
        result.worst_success = std::max(result.worst_success, entry.success_rate);
      }
      if (!job.targets.empty()) {
        result.average_success = sum_asr / static_cast<double>(job.targets.size());
        result.mean_l2 = sum_l2 / static_cast<double>(job.targets.size());
      }
      continue;
    }
    // Transfer: every victim judges the same crafted stickers.
    job.transfer_out.reserve(job.transfer_victims.size());
    for (const auto& victim : job.transfer_victims) {
      TransferResult row;
      // Clean accuracy: fraction of natural stop signs the victim classifies
      // as stop (class 0), mirroring Table I's "Accuracy" column.
      const auto clean_pred = harness_->predict(victim, job.eval_set->images);
      int stop_correct = 0;
      for (const int label : clean_pred) {
        if (label == data::SignRenderer::stop_class_id()) ++stop_correct;
      }
      row.clean_accuracy = clean_pred.empty()
                               ? 0.0
                               : static_cast<double>(stop_correct) /
                                     static_cast<double>(clean_pred.size());
      double sum_asr = 0.0;
      for (std::size_t t = 0; t < job.targets.size(); ++t) {
        const auto adv_pred = harness_->predict(victim, job.adversarial[t]);
        int altered = 0;
        for (std::size_t i = 0; i < adv_pred.size(); ++i) {
          if (adv_pred[i] != clean_pred[i]) ++altered;
        }
        sum_asr += adv_pred.empty() ? 0.0
                                    : static_cast<double>(altered) /
                                          static_cast<double>(adv_pred.size());
      }
      if (!job.targets.empty()) {
        row.attack_success = sum_asr / static_cast<double>(job.targets.size());
      }
      util::log_debug() << "transfer source=" << job.victim << " victim=" << victim
                        << " asr=" << row.attack_success;
      job.transfer_out.push_back(row);
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  completed_ = true;
}

std::size_t SweepScheduler::job_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return jobs_.size();
}

const SweepResult& SweepScheduler::sweep_result(std::size_t job) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!completed_) throw std::logic_error("SweepScheduler::sweep_result: run() has not completed");
  if (job >= jobs_.size() || jobs_[job]->kind != Job::Kind::kSweep) {
    throw std::invalid_argument("SweepScheduler::sweep_result: job " + std::to_string(job) +
                                " is not a sweep");
  }
  return jobs_[job]->sweep_out;
}

const std::vector<TransferResult>& SweepScheduler::transfer_result(std::size_t job) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!completed_) throw std::logic_error("SweepScheduler::transfer_result: run() has not completed");
  if (job >= jobs_.size() || jobs_[job]->kind != Job::Kind::kTransfer) {
    throw std::invalid_argument("SweepScheduler::transfer_result: job " + std::to_string(job) +
                                " is not a transfer matrix");
  }
  return jobs_[job]->transfer_out;
}

std::vector<VictimProgress> SweepScheduler::progress() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<VictimProgress> snapshot;
  snapshot.reserve(victims_.size());
  for (const auto& group : victims_) {
    VictimProgress entry;
    entry.victim = group->victim;
    entry.targets_total = static_cast<int>(group->tasks.size());
    entry.targets_done = group->done.load(std::memory_order_relaxed);
    entry.lanes = group->lanes;
    entry.images_served = harness_->images_served(group->victim);
    snapshot.push_back(std::move(entry));
  }
  return snapshot;
}

// ---- protocol objects: single-job schedulers --------------------------------

SweepResult WhiteboxSweep::run(const Harness& harness, const std::string& victim,
                               double legit_accuracy,
                               const data::StopSignSet& eval_set) const {
  SweepScheduler scheduler(harness);
  const std::size_t job = scheduler.add(*this, victim, legit_accuracy, eval_set);
  scheduler.run();
  return scheduler.sweep_result(job);
}

SweepResult AdaptiveSweep::run(const Harness& harness, const std::string& victim,
                               double legit_accuracy,
                               const data::StopSignSet& eval_set) const {
  SweepScheduler scheduler(harness);
  const std::size_t job = scheduler.add(*this, victim, legit_accuracy, eval_set);
  scheduler.run();
  return scheduler.sweep_result(job);
}

std::vector<TransferResult> TransferMatrix::run(const Harness& harness,
                                                const std::string& source,
                                                const std::vector<std::string>& victims,
                                                const data::StopSignSet& eval_set) const {
  SweepScheduler scheduler(harness);
  const std::size_t job = scheduler.add(*this, source, victims, eval_set);
  scheduler.run();
  return scheduler.transfer_result(job);
}

}  // namespace blurnet::eval
