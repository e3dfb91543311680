#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <numeric>
#include <thread>

#include "perfbench/src/bench.h"
#include "src/attack/masks.h"
#include "src/attack/rp2.h"
#include "src/data/dataset.h"
#include "src/net/client.h"
#include "src/tensor/ops.h"
#include "src/util/arena.h"
#include "src/util/rng.h"

namespace perfbench {

namespace serve = blurnet::serve;
namespace net = blurnet::net;
namespace attack = blurnet::attack;

namespace {

serve::Options variant_options(int variant) {
  serve::Options options;
  options.variant = kVariantNames[variant];
  return options;
}

const serve::VariantStats* find_variant(const serve::EngineStats& stats, const char* name) {
  for (const auto& v : stats.variants) {
    if (v.variant == name) return &v;
  }
  return nullptr;
}

/// Engine counter deltas between two stats() snapshots bracketing a window.
void engine_deltas(const serve::InferenceEngine& engine, const serve::EngineStats& before,
                   const serve::EngineStats& after, RunResult& r) {
  r.engine_requests = after.requests - before.requests;
  r.engine_batches = after.batches - before.batches;
  r.largest_batch = after.largest_batch;
  r.queue_peak = after.queue_peak;
  r.rejected = after.rejected - before.rejected;
  // Busiest replica over the mean replica, per variant that saw traffic.
  for (const auto& v : after.variants) {
    const serve::VariantStats* old = find_variant(before, v.variant.c_str());
    std::vector<double> served;
    for (std::size_t i = 0; i < v.replicas.size(); ++i) {
      const std::int64_t prior = old && i < old->replicas.size() ? old->replicas[i].images : 0;
      served.push_back(static_cast<double>(v.replicas[i].images - prior));
    }
    const double total = std::accumulate(served.begin(), served.end(), 0.0);
    if (total <= 0.0) continue;
    const double mean = total / static_cast<double>(served.size());
    r.replica_imbalance =
        std::max(r.replica_imbalance, *std::max_element(served.begin(), served.end()) / mean);
  }
  const serve::LatencySnapshot latency = engine.variant_stats(kVariantNames[0]).latency;
  r.engine_p50_ms = latency.p50_us / 1e3;
  r.engine_p99_ms = latency.p99_us / 1e3;
  r.engine_window = latency.window;
}

}  // namespace

// ---- offline: closed loop, one caller, 64-image classify ---------------------

RunResult run_offline(Serving& serving, const ImagePool& pool, const Reference& reference,
                      std::uint64_t seed, double seconds, Tracer* tracer) {
  serve::InferenceEngine& engine = *serving.engine;
  std::vector<int> order(pool.batches.size());
  std::iota(order.begin(), order.end(), 0);
  blurnet::util::Rng rng(seed + 17);
  rng.shuffle(order);
  const serve::Options options = variant_options(0);

  struct Call {
    int batch;
    std::vector<serve::Prediction> predictions;
  };
  std::vector<Call> calls;
  calls.reserve(1 << 14);
  RunResult r;
  const serve::EngineStats before = engine.stats();
  const std::int64_t allocs_before = blurnet::util::scratch_heap_allocations();
  const double cpu_before = process_cpu_ms();
  {
    ScopedSpan root(tracer, "workload.offline");
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    Clock::time_point now = start;
    while (now < end) {
      const int batch = order[calls.size() % order.size()];
      const Clock::time_point t0 = Clock::now();
      std::vector<serve::Prediction> predictions;
      {
        ScopedSpan span(tracer, "serve.InferenceEngine.classify", root.id(),
                        static_cast<std::int64_t>(calls.size()));
        predictions = engine.classify(pool.batches[static_cast<std::size_t>(batch)], options);
      }
      now = Clock::now();
      Op op;
      op.latency_ms = ms_between(t0, now);
      op.served = true;
      r.ops.push_back(op);
      calls.push_back(Call{batch, std::move(predictions)});
    }
    r.window_s = ms_between(start, now) / 1e3;
  }
  const double cpu_ms = process_cpu_ms() - cpu_before;
  r.scratch_heap_allocs = blurnet::util::scratch_heap_allocations() - allocs_before;
  engine_deltas(engine, before, engine.stats(), r);

  for (std::size_t j = 0; j < calls.size(); ++j) {
    const Call& call = calls[j];
    for (int i = 0; i < kOfflineBatch; ++i) {
      ++r.attempted;
      const bool ok = i < static_cast<int>(call.predictions.size()) &&
                      matches(reference, 0, call.batch * kOfflineBatch + i,
                              call.predictions[static_cast<std::size_t>(i)]);
      ok ? ++r.ops[j].good : ++r.wrong;
    }
  }
  r.failed = r.wrong;
  r.cpu_ms_per_unit = cpu_ms / static_cast<double>(r.attempted);
  return r;
}

// ---- online / overload: open loop over loopback blurnetd ---------------------

RunResult run_network(Serving& serving, const ImagePool& pool, const Reference& reference,
                      const std::vector<Request>& schedule, double seconds, double limit_ms,
                      Tracer* tracer) {
  enum Status { kPending, kServed, kShed, kError };
  struct Outcome {
    Clock::time_point due, send_start, arrival;
    std::uint32_t id = 0;
    Status status = kPending;
    serve::Prediction prediction;
    std::int64_t span = 0;
  };
  struct Lane {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::size_t> sent;  // schedule indices, in send order
    std::size_t expected = 0;
  };

  const std::size_t n = schedule.size();
  std::vector<Outcome> outcomes(n);
  std::vector<Lane> lanes(kConnections);
  for (const Request& request : schedule) {
    ++lanes[static_cast<std::size_t>(request.connection)].expected;
  }
  std::vector<std::unique_ptr<net::Client>> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(std::make_unique<net::Client>("127.0.0.1", serving.server->port()));
  }

  RunResult r;
  serve::InferenceEngine& engine = *serving.engine;
  const serve::EngineStats before = engine.stats();
  const net::ServerStats server_before = serving.server->stats();
  const std::int64_t allocs_before = blurnet::util::scratch_heap_allocations();
  const double cpu_before = process_cpu_ms();
  ScopedSpan root(tracer, "workload.network");
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < n; ++i) {
    outcomes[i].due = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(schedule[i].due_s));
  }

  // One receiver per connection: replies come back in send order per
  // connection, and each is stamped the moment receive_classify returns it.
  std::vector<std::thread> receivers;
  for (int c = 0; c < kConnections; ++c) {
    receivers.emplace_back([&, c] {
      Lane& lane = lanes[static_cast<std::size_t>(c)];
      for (std::size_t k = 0; k < lane.expected; ++k) {
        std::size_t i = 0;
        {
          std::unique_lock<std::mutex> lock(lane.mutex);
          lane.cv.wait(lock, [&] { return !lane.sent.empty(); });
          i = lane.sent.front();
          lane.sent.pop_front();
        }
        Outcome& o = outcomes[i];
        if (o.status == kError) continue;  // never reached the wire
        try {
          ScopedSpan span(tracer, "net.Client.receive_classify", o.span,
                          static_cast<std::int64_t>(i));
          o.prediction = clients[static_cast<std::size_t>(c)]->receive_classify(o.id);
          o.status = kServed;
        } catch (const serve::OverloadError&) {
          o.status = kShed;
        } catch (const std::exception&) {
          o.status = kError;
        }
        o.arrival = Clock::now();
        if (tracer) {
          tracer->record("request", o.due, o.arrival, o.span, root.id(),
                         static_cast<std::int64_t>(i));
        }
      }
    });
  }

  // The sender: fires each request at its precomputed due time, never
  // waiting on replies.
  for (std::size_t i = 0; i < n; ++i) {
    const Request& request = schedule[i];
    Outcome& o = outcomes[i];
    std::this_thread::sleep_until(o.due);
    if (tracer) o.span = tracer->next_id();
    o.send_start = Clock::now();
    try {
      ScopedSpan span(tracer, "net.Client.send_classify", o.span, static_cast<std::int64_t>(i));
      o.id = clients[static_cast<std::size_t>(request.connection)]->send_classify(
          pool.images[static_cast<std::size_t>(request.image)], kVariantNames[request.variant]);
    } catch (const std::exception&) {
      o.status = kError;
    }
    Lane& lane = lanes[static_cast<std::size_t>(request.connection)];
    {
      std::lock_guard<std::mutex> lock(lane.mutex);
      lane.sent.push_back(i);
    }
    lane.cv.notify_one();
  }
  for (std::thread& t : receivers) t.join();

  const double cpu_ms = process_cpu_ms() - cpu_before;
  r.scratch_heap_allocs = blurnet::util::scratch_heap_allocations() - allocs_before;
  engine_deltas(engine, before, engine.stats(), r);
  const net::ServerStats server_after = serving.server->stats();
  r.bytes = (server_after.bytes_in + server_after.bytes_out) -
            (server_before.bytes_in + server_before.bytes_out);
  r.protocol_errors = server_after.protocol_errors - server_before.protocol_errors;
  r.window_s = seconds;

  std::vector<std::pair<Clock::time_point, double>> defended_rtt;  // (arrival, ms)
  for (std::size_t i = 0; i < n; ++i) {
    const Request& request = schedule[i];
    const Outcome& o = outcomes[i];
    ++r.attempted;
    if (o.status != kError) r.send_lag_ms.push_back(ms_between(o.due, o.send_start));
    Op op;
    if (o.status == kShed) {
      ++r.shed;
    } else if (o.status != kServed) {
      ++r.errors;
    } else {
      op.served = true;
      op.latency_ms = ms_between(o.due, o.arrival);
      if (request.variant == 0) {
        defended_rtt.emplace_back(o.arrival, ms_between(o.send_start, o.arrival));
      }
      if (!matches(reference, request.variant, request.image, o.prediction)) {
        ++r.wrong;
      } else if (op.latency_ms <= limit_ms) {
        op.good = 1;
      }
    }
    r.ops.push_back(op);
  }
  r.failed = r.wrong + r.errors;
  const std::int64_t served = r.attempted - r.shed - r.errors;
  r.cpu_ms_per_unit = cpu_ms / static_cast<double>(std::max<std::int64_t>(1, served));
  // The round trips of the defended replies the engine's latency ring holds:
  // the last engine_window of them, by arrival.
  std::sort(defended_rtt.begin(), defended_rtt.end());
  const std::size_t keep =
      std::min(defended_rtt.size(), static_cast<std::size_t>(r.engine_window));
  for (std::size_t k = defended_rtt.size() - keep; k < defended_rtt.size(); ++k) {
    r.rtt_defended_ms.push_back(defended_rtt[k].second);
  }
  return r;
}

// ---- attack: shared-sticker RP2 against the defended replica ------------------

AttackInputs make_attack_inputs(std::uint64_t seed) {
  const blurnet::data::StopSignSet set =
      blurnet::data::stop_sign_eval_set(kAttackImages, kImageSize, seed * 7919 + 977);
  return AttackInputs{set.images, attack::sticker_mask(set.masks)};
}

attack::Rp2Config attack_config(std::uint64_t seed, std::uint64_t call, int classes) {
  attack::Rp2Config config;
  config.iterations = kAttackIterations;
  config.eot_poses = kAttackPoses;
  config.target_class = static_cast<int>((seed + call) % static_cast<std::uint64_t>(classes));
  config.seed = seed * 131 + call;
  return config;
}

RunResult run_attack(Serving& serving, const AttackInputs& inputs, std::uint64_t seed,
                     double seconds, Tracer* tracer) {
  serve::InferenceEngine& engine = *serving.engine;
  const blurnet::nn::LisaCnn& model = engine.replica_model(kVariantNames[0], 0);
  const serve::Options options = variant_options(0);
  std::int64_t predicted = 0;
  std::int64_t call_span = 0;
  const attack::VictimHandle victim(model, [&](const Tensor& images) {
    predicted += images.dim(0);
    ScopedSpan span(tracer, "serve.InferenceEngine.classify", call_span);
    std::vector<int> labels;
    for (const serve::Prediction& p : engine.classify(images, options)) labels.push_back(p.label);
    return labels;
  });

  std::vector<attack::AttackResult> calls;
  RunResult r;
  const serve::EngineStats before = engine.stats();
  const std::int64_t allocs_before = blurnet::util::scratch_heap_allocations();
  const double cpu_before = process_cpu_ms();
  {
    ScopedSpan root(tracer, "workload.attack");
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    Clock::time_point now = start;
    while (now < end) {
      const auto j = static_cast<std::uint64_t>(calls.size());
      const attack::Rp2Config config = attack_config(seed, j, model.config().num_classes);
      const Clock::time_point t0 = Clock::now();
      attack::AttackResult result;
      {
        ScopedSpan span(tracer, "attack.rp2_attack", root.id(), static_cast<std::int64_t>(j));
        call_span = span.id();
        result = attack::rp2_attack(victim, inputs.images, inputs.masks, config);
      }
      now = Clock::now();
      Op op;
      op.latency_ms = ms_between(t0, now);
      op.served = true;
      r.ops.push_back(op);
      calls.push_back(std::move(result));
    }
    r.window_s = ms_between(start, now) / 1e3;
  }
  const double cpu_ms = process_cpu_ms() - cpu_before;
  r.scratch_heap_allocs = blurnet::util::scratch_heap_allocations() - allocs_before;
  engine_deltas(engine, before, engine.stats(), r);
  r.predict_images = predicted;

  // Every call must return a sticker confined to the mask, images in [0, 1],
  // and victim predictions equal to the single-model reference.
  const Tensor mask_c = attack::expand_mask_channels(inputs.masks, inputs.images.dim(1));
  const std::vector<int> clean_reference =
      blurnet::tensor::argmax_rows(model.logits(inputs.images));
  for (std::size_t j = 0; j < calls.size(); ++j) {
    const attack::AttackResult& result = calls[j];
    bool ok = std::isfinite(result.final_loss) &&
              result.adversarial.shape() == inputs.images.shape() &&
              result.clean_pred == clean_reference &&
              result.adv_pred == blurnet::tensor::argmax_rows(model.logits(result.adversarial));
    for (std::int64_t i = 0; ok && i < result.adversarial.numel(); ++i) {
      const float x = result.adversarial[i];
      ok = x >= 0.0f && x <= 1.0f && (mask_c[i] != 0.0f || result.perturbation[i] == 0.0f);
    }
    ++r.attempted;
    if (ok) {
      r.ops[j].good = kAttackIterations;
    } else {
      ++r.wrong;
    }
  }
  r.failed = r.wrong;
  r.cpu_ms_per_unit = cpu_ms / static_cast<double>(r.attempted * kAttackIterations);
  return r;
}

}  // namespace perfbench
