#include "src/serve/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/util/lockdep.h"
#include "src/util/rng.h"

namespace blurnet::serve {

using Clock = std::chrono::steady_clock;

const char* to_string(ArrivalProcess arrival) {
  switch (arrival) {
    case ArrivalProcess::kPoisson: return "poisson";
    case ArrivalProcess::kOnOff: return "onoff";
    case ArrivalProcess::kUniform: return "uniform";
  }
  return "?";
}

void LoadConfig::validate() const {
  if (!(offered_rps > 0.0)) {
    throw std::invalid_argument("LoadConfig: offered_rps must be > 0 (got " +
                                std::to_string(offered_rps) + ")");
  }
  if (requests < 1) {
    throw std::invalid_argument("LoadConfig: requests must be >= 1 (got " +
                                std::to_string(requests) + ")");
  }
  if (reservoir < 1) {
    throw std::invalid_argument("LoadConfig: reservoir must be >= 1 (got " +
                                std::to_string(reservoir) + ")");
  }
  if (max_batch < 0) {
    throw std::invalid_argument("LoadConfig: max_batch must be >= 0 (0 = engine default, got " +
                                std::to_string(max_batch) + ")");
  }
  if (arrival == ArrivalProcess::kOnOff) {
    if (!(on_fraction > 0.0) || on_fraction > 1.0) {
      throw std::invalid_argument("LoadConfig: on_fraction must be in (0, 1] (got " +
                                  std::to_string(on_fraction) + ")");
    }
    if (!(burst_cycle_s > 0.0)) {
      throw std::invalid_argument("LoadConfig: burst_cycle_s must be > 0 (got " +
                                  std::to_string(burst_cycle_s) + ")");
    }
  }
  for (const auto& entry : mix) {
    if (entry.variant.empty()) {
      throw std::invalid_argument("LoadConfig: mix entries must name a variant");
    }
    if (!(entry.weight > 0.0)) {
      throw std::invalid_argument("LoadConfig: mix weight for variant \"" + entry.variant +
                                  "\" must be > 0 (got " + std::to_string(entry.weight) + ")");
    }
  }
  for (std::size_t i = 0; i < mix.size(); ++i) {
    for (std::size_t j = i + 1; j < mix.size(); ++j) {
      if (mix[i].variant == mix[j].variant) {
        throw std::invalid_argument("LoadConfig: variant \"" + mix[i].variant +
                                    "\" appears twice in the mix; merge the weights");
      }
    }
  }
}

LoadGenerator::LoadGenerator(InferenceEngine& engine, LoadConfig config)
    : engine_(engine), config_(std::move(config)) {
  config_.validate();
  mix_ = config_.mix;
  if (mix_.empty()) mix_.push_back({kBaseVariant, 1.0});
  build_schedule();
}

void LoadGenerator::build_schedule() {
  // One generator, fixed draw order (inter-arrival, then variant, per
  // request): the schedule is a pure function of the config.
  util::Rng rng(config_.seed);
  const auto n = static_cast<std::size_t>(config_.requests);
  offsets_.reserve(n);
  variants_.reserve(n);

  double total_weight = 0.0;
  for (const auto& entry : mix_) total_weight += entry.weight;

  // kOnOff generates Poisson arrivals in *active* time at the boosted on-rate
  // and maps active time onto wall time by skipping every cycle's off window,
  // so the long-run mean stays offered_rps while bursts run hotter.
  const double on_len = config_.on_fraction * config_.burst_cycle_s;
  const double rate = config_.arrival == ArrivalProcess::kOnOff
                          ? config_.offered_rps / config_.on_fraction
                          : config_.offered_rps;
  double active = 0.0;  // kPoisson/kOnOff clock; kUniform paces directly
  for (std::size_t i = 0; i < n; ++i) {
    double offset;
    switch (config_.arrival) {
      case ArrivalProcess::kUniform:
        offset = static_cast<double>(i) / config_.offered_rps;
        break;
      case ArrivalProcess::kPoisson:
        active += -std::log(1.0 - rng.uniform()) / rate;
        offset = active;
        break;
      case ArrivalProcess::kOnOff: {
        active += -std::log(1.0 - rng.uniform()) / rate;
        const double cycles = std::floor(active / on_len);
        offset = cycles * config_.burst_cycle_s + (active - cycles * on_len);
        break;
      }
    }
    offsets_.push_back(offset);

    double pick = rng.uniform() * total_weight;
    std::size_t chosen = mix_.size() - 1;
    for (std::size_t m = 0; m < mix_.size(); ++m) {
      pick -= mix_[m].weight;
      if (pick < 0.0) {
        chosen = m;
        break;
      }
    }
    variants_.push_back(chosen);
  }
}

namespace {

/// Completion-side tally for one mix variant: completion − scheduled-arrival
/// samples in a fixed ring, plus outcome counters.
struct Tally {
  std::vector<double> window;  // latency ring, microseconds
  std::int64_t count = 0;
  std::int64_t served = 0;
  std::int64_t failed = 0;
  Clock::time_point last_completion{};
};

void fill_snapshot(LatencySnapshot& snapshot, const std::vector<double>& window,
                   std::int64_t count) {
  snapshot.count = count;
  snapshot.window = static_cast<std::int64_t>(window.size());
  if (window.empty()) return;
  double sum = 0.0, mx = window.front();
  for (const double v : window) {
    sum += v;
    mx = std::max(mx, v);
  }
  snapshot.mean_us = sum / static_cast<double>(window.size());
  snapshot.max_us = mx;
  snapshot.p50_us = latency_quantile(window, 0.50);
  snapshot.p99_us = latency_quantile(window, 0.99);
  snapshot.p999_us = latency_quantile(window, 0.999);
}

/// Shared by run() and the engine completions of its requests, which record
/// into it from the replica workers.
struct RunState {
  util::DebugMutex mutex BLURNET_LOCK_CLASS("serve::LoadGenerator::run");
  util::DebugConditionVariable cv;  // signalled when `outstanding` hits zero
  std::vector<Tally> tallies;       // one per mix variant
  std::size_t outstanding = 0;      // admitted requests not yet completed
};

}  // namespace

LoadReport LoadGenerator::run(const tensor::Tensor& image) {
  // Fail before any traffic if the mix names an unknown variant.
  for (const auto& entry : mix_) {
    if (!engine_.has_variant(entry.variant)) {
      throw std::invalid_argument("LoadGenerator: mix variant \"" + entry.variant +
                                  "\" is not registered with the engine");
    }
  }

  const auto reservoir = static_cast<std::size_t>(config_.reservoir);
  // Owned jointly with the completions, so an exception out of the sender
  // cannot leave a completion recording into a dead frame.
  auto state = std::make_shared<RunState>();
  state->tallies.resize(mix_.size());
  std::vector<std::int64_t> rejected(mix_.size(), 0);

  // Open-loop sender: fire each request at its scheduled absolute time,
  // regardless of how far behind the engine is. A shed (OverloadError) is
  // counted and never retried. Each request is timed by its own completion.
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < offsets_.size(); ++i) {
    const std::size_t m = variants_[i];
    const Clock::time_point scheduled =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(offsets_[i]));
    std::this_thread::sleep_until(scheduled);
    Options options;
    options.variant = mix_[m].variant;
    options.max_batch = config_.max_batch;
    {
      std::lock_guard<util::DebugMutex> lock(state->mutex);
      ++state->outstanding;
    }
    try {
      engine_.submit(image, std::move(options),
                     [state, m, scheduled, reservoir](std::exception_ptr error, Prediction) {
                       const Clock::time_point now = Clock::now();
                       std::lock_guard<util::DebugMutex> lock(state->mutex);
                       Tally& t = state->tallies[m];
                       if (error) {
                         ++t.failed;
                       } else {
                         const double latency_us =
                             std::chrono::duration<double, std::micro>(now - scheduled).count();
                         if (t.window.size() < reservoir) {
                           t.window.push_back(latency_us);
                         } else {
                           t.window[static_cast<std::size_t>(t.count) % reservoir] = latency_us;
                         }
                         ++t.count;
                         ++t.served;
                       }
                       t.last_completion = now;
                       if (--state->outstanding == 0) state->cv.notify_all();
                     });
    } catch (const OverloadError&) {
      ++rejected[m];
      std::lock_guard<util::DebugMutex> lock(state->mutex);
      --state->outstanding;  // never admitted: no completion will run
    }
  }
  {
    std::unique_lock<util::DebugMutex> lock(state->mutex);
    state->cv.wait(lock, [&] { return state->outstanding == 0; });
  }

  LoadReport report;
  report.offered_rps = config_.offered_rps;
  report.offered = static_cast<std::int64_t>(offsets_.size());
  Clock::time_point end = Clock::now();
  std::vector<double> merged;
  for (std::size_t m = 0; m < mix_.size(); ++m) {
    const Tally& t = state->tallies[m];
    VariantLoadStats vs;
    vs.variant = mix_[m].variant;
    for (const std::size_t idx : variants_) {
      if (idx == m) ++vs.offered;
    }
    vs.served = t.served;
    vs.rejected = rejected[m];
    vs.failed = t.failed;
    fill_snapshot(vs.latency, t.window, t.count);
    merged.insert(merged.end(), t.window.begin(), t.window.end());
    report.served += vs.served;
    report.rejected += vs.rejected;
    report.failed += vs.failed;
    if (t.count > 0) end = std::max(end, t.last_completion);
    report.variants.push_back(std::move(vs));
  }
  report.duration_s = std::chrono::duration<double>(end - t0).count();
  fill_snapshot(report.latency, merged, report.served);
  if (report.duration_s > 0.0) {
    report.achieved_rps = static_cast<double>(report.served) / report.duration_s;
  }
  return report;
}

}  // namespace blurnet::serve
