// perfbench: the repository benchmark.
//
//   perfbench --workload <offline|online|overload|attack> --seed <n>
//             --seconds <s> --trace <0|1> [--commit <id>] [--out <dir>]
//   perfbench --selftest
//
// Prints a human-readable summary, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. perfbench/run.py builds
// this binary and is the entry point named in BENCHMARK.json.
#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "perfbench/src/bench.h"
#include "src/util/cpu_caps.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string commit = "unknown";
  std::string out_dir = ".bench_out";
  bool selftest = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!args.selftest) {
    if (args.workload != "offline" && args.workload != "online" && args.workload != "overload" &&
        args.workload != "attack") {
      throw std::invalid_argument("--workload must be offline, online, overload or attack");
    }
    if (!(args.seconds > 0.0 && args.seconds <= 120.0)) {
      throw std::invalid_argument("--seconds must be in (0, 120]");
    }
    if (args.trace != 0 && args.trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
  }
  return args;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0 || line.rfind("Model", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(" \t", colon + 1));
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

bool is_network(const std::string& workload) {
  return workload == "online" || workload == "overload";
}

struct Context {
  Args args;
  ImagePool pool;
  AttackInputs attack;
  std::vector<Request> schedule;
  double limit_ms = 0.0;
  Reference reference;
  Serving serving;
};

/// Tears the served system down, the server before the engine it serves.
void stop_serving(Serving& serving) {
  serving.server.reset();
  serving.engine.reset();
}

RunResult run_workload(Context& ctx, Tracer* tracer) {
  const std::string& w = ctx.args.workload;
  if (w == "offline") {
    return run_offline(ctx.serving, ctx.pool, ctx.reference, ctx.args.seed, ctx.args.seconds,
                       tracer);
  }
  if (w == "attack") {
    return run_attack(ctx.serving, ctx.attack, ctx.args.seed, ctx.args.seconds, tracer);
  }
  return run_network(ctx.serving, ctx.pool, ctx.reference, ctx.schedule, ctx.args.seconds,
                     ctx.limit_ms, tracer);
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << metrics[i].value
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

int run(const Args& args) {
  Context ctx;
  ctx.args = args;
  const bool network = is_network(args.workload);
  ctx.pool = make_pool(args.seed, kPoolImages);
  ctx.attack = make_attack_inputs(args.seed);
  if (network) {
    const bool online = args.workload == "online";
    ctx.limit_ms = online ? kOnlineLimitMs : kOverloadLimitMs;
    ctx.schedule = make_schedule(args.seed, online ? kOnlineRate : kOverloadRate, args.seconds,
                                 kPoolImages);
  }

  // Set-up is timed in process CPU seconds, which hypervisor steal on a
  // shared host does not inflate; wall seconds go to the summary line.
  std::vector<double> setup_s, setup_wall_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    stop_serving(ctx.serving);
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = process_cpu_ms();
    ctx.serving = start_serving(network, ctx.pool.batches.front());
    setup_s.push_back((process_cpu_ms() - cpu0) / 1e3);
    setup_wall_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  if (args.workload != "attack") ctx.reference = make_reference(*ctx.serving.engine, ctx.pool);

  const RunResult r = run_workload(ctx, nullptr);
  std::int64_t attempted = r.attempted, failed = r.failed;
  const Summary summary = summarize(r);
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"setup_s", quantile(setup_s, 0.5), "s"},
        {"rss_peak_mb", peak_rss_mb(), "MB"},
        {"cpu_ms_per_op", r.cpu_ms_per_unit, "ms"},
    };
  }

  bool replay_ok = true;
  std::string trace_file;
  if (args.trace == 1) {
    // A fresh engine and server, so the engine's high-water marks and latency
    // ring describe the traced pass alone.
    stop_serving(ctx.serving);
    ctx.serving = start_serving(network, ctx.pool.batches.front());
    Tracer tracer;
    const RunResult t = run_workload(ctx, &tracer);
    attempted += t.attempted;
    failed += t.failed;
    std::vector<Metric> layers;
    replay_ok =
        measure_layers(*ctx.serving.engine, ctx.pool, ctx.attack, args.seed, &tracer, layers);
    if (!replay_ok) ++failed;
    const auto ops = static_cast<double>(t.ops.size());
    const bool rtt = !t.rtt_defended_ms.empty();
    metrics = layers;
    metrics.insert(
        metrics.end(),
        {
            {"serve.engine_latency_ms_p50", t.engine_p50_ms, "ms"},
            {"serve.engine_latency_ms_p99", t.engine_p99_ms, "ms"},
            {"serve.batch_mean",
             t.engine_batches ? static_cast<double>(t.engine_requests) / t.engine_batches : 0.0,
             "count"},
            {"serve.largest_batch", static_cast<double>(t.largest_batch), "count"},
            {"serve.queue_peak", static_cast<double>(t.queue_peak), "count"},
            {"serve.rejected", static_cast<double>(t.rejected), "count"},
            {"serve.replica_imbalance", t.replica_imbalance, "ratio"},
            {"net.overhead_ms_p50", rtt ? quantile(t.rtt_defended_ms, 0.5) - t.engine_p50_ms : 0.0,
             "ms"},
            {"net.overhead_ms_p99",
             rtt ? quantile(t.rtt_defended_ms, 0.99) - t.engine_p99_ms : 0.0, "ms"},
            {"net.bytes_per_request", network ? static_cast<double>(t.bytes) / t.attempted : 0.0,
             "B"},
            {"net.protocol_errors", static_cast<double>(t.protocol_errors), "count"},
            {"util.scratch_heap_allocs_per_req",
             ops > 0 ? static_cast<double>(t.scratch_heap_allocs) / ops : 0.0, "count"},
            {"attack.predict_images", static_cast<double>(t.predict_images), "count"},
            {"wall.goodput_per_s", summary.goodput_per_s, "1/s"},
            {"wall.latency_ms_p50", summary.p50_ms, "ms"},
            {"wall.latency_ms_p99", summary.tail_ms, "ms"},
            {"harness.send_lag_ms_p99", quantile(t.send_lag_ms, tail_q(t.send_lag_ms.size())),
             "ms"},
            {"harness.tracing_overhead_pct",
             (summarize(t).p50_ms - summary.p50_ms) / summary.p50_ms * 100.0, "%"},
        });

    std::filesystem::create_directories(args.out_dir);
    trace_file = args.out_dir + "/trace-" + args.workload + "-seed" + std::to_string(args.seed) +
                 ".json";
    std::ofstream(trace_file) << tracer.to_json();
  }

  // Human-readable summary; a caller parsing the result reads only the last line.
  const char* kernel = blurnet::util::kernel_target_name(blurnet::util::active_kernel_target());
  const std::string host = "{\"cpu_model\": \"" + json_escape(cpu_model()) +
                           "\", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                           ", \"kernel_target\": \"" + kernel + "\", \"commit\": \"" +
                           json_escape(args.commit) + "\"}";
  std::printf("# host %s\n", host.c_str());
  std::printf(
      "# %s seed=%llu window_s=%.3f attempted=%lld good=%lld shed=%lld errors=%lld wrong=%lld "
      "served=%zu setup_wall_s=%.4f goodput_per_s=%.2f latency_ms_p50=%.3f "
      "latency_ms_tail=%.3f tail_percentile=%.2f send_lag_ms_p99=%.3f%s\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), r.window_s,
      static_cast<long long>(r.attempted), static_cast<long long>(summary.good),
      static_cast<long long>(r.shed), static_cast<long long>(r.errors),
      static_cast<long long>(r.wrong), summary.served,
      quantile(setup_wall_s, 0.5), summary.goodput_per_s, summary.p50_ms, summary.tail_ms,
      summary.tail_q * 100.0,
      quantile(r.send_lag_ms, 0.99), replay_ok ? "" : " REPLAY-MISMATCH");
  if (!trace_file.empty()) std::printf("# spans written to %s\n", trace_file.c_str());

  const bool correct = failed == 0;
  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
         << ", \"failed\": " << failed << ", \"metrics\": " << metrics_json(metrics) << "}";
  std::filesystem::create_directories(args.out_dir);
  std::ofstream(args.out_dir + "/result-" + args.workload + "-seed" + std::to_string(args.seed) +
                "-trace" + std::to_string(args.trace) + ".json")
      << "{\"host\": " << host << ", \"result\": " << result.str() << "}\n";
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return 0;
}

// ---- self-test -------------------------------------------------------------

int selftest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };
  auto same = [](const std::vector<Request>& a, const std::vector<Request>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].due_s != b[i].due_s || a[i].variant != b[i].variant || a[i].image != b[i].image ||
          a[i].connection != b[i].connection) {
        return false;
      }
    }
    return true;
  };
  expect(same(make_schedule(1, kOnlineRate, 2.0, kPoolImages),
              make_schedule(1, kOnlineRate, 2.0, kPoolImages)),
         "same seed gives an identical schedule");
  expect(!same(make_schedule(1, kOnlineRate, 2.0, kPoolImages),
               make_schedule(2, kOnlineRate, 2.0, kPoolImages)),
         "a different seed gives a different schedule");
  const ImagePool a = make_pool(1, 2 * kOfflineBatch), b = make_pool(1, 2 * kOfflineBatch),
                  c = make_pool(2, 2 * kOfflineBatch);
  auto equal = [](const Tensor& x, const Tensor& y) {
    return x.numel() == y.numel() &&
           std::equal(x.data(), x.data() + x.numel(), y.data());
  };
  expect(equal(a.batches[1], b.batches[1]) && !equal(a.batches[1], c.batches[1]),
         "the image pool is a function of the seed");

  Serving serving = start_serving(true, a.batches.front());
  Reference reference = make_reference(*serving.engine, a);
  const std::vector<Request> schedule = make_schedule(3, 200.0, 0.5, 2 * kOfflineBatch);
  expect(run_offline(serving, a, reference, 1, 0.3, nullptr).failed == 0,
         "offline: a correct reference passes");
  expect(run_network(serving, a, reference, schedule, 0.5, kOnlineLimitMs, nullptr).failed == 0,
         "network: a correct reference passes");

  Reference corrupted = reference;
  // Defended variant, image 5, class 3.
  corrupted.logits[static_cast<std::size_t>(5 * corrupted.classes + 3)] += 0.5f;
  expect(run_offline(serving, a, corrupted, 1, 0.3, nullptr).failed > 0,
         "offline: a corrupted reference logit is caught");
  corrupted = reference;
  for (int i = 0; i < corrupted.pool; ++i) {  // every defended label off by one
    int& label = corrupted.labels[static_cast<std::size_t>(i)];
    label = (label + 1) % corrupted.classes;
  }
  expect(run_network(serving, a, corrupted, schedule, 0.5, kOnlineLimitMs, nullptr).failed > 0,
         "network: a corrupted reference label is caught");
  std::printf("selftest: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    return args.selftest ? perfbench::selftest() : perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
