// perfbench -- the SpeedLLM repo benchmark binary.
//
//   perfbench --workload serve-tiny|prefix-chat|paper-15m --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--commit SHA]
//
// Runs measured passes of one workload over the same seed-generated
// inputs until S seconds have passed (at least kMinPasses), checks every
// pass's outputs, and prints the workload's metrics by name with units.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics (host medians over passes,
// simulated metrics of the identical passes). --trace 1 alternates
// untraced and traced passes, runs the per-layer replays, writes every
// span to DIR, and reports the per-layer metrics. Exits 1 when any
// output check fails, 2 on bad arguments, 3 for a build with asserts on.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "replay.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace pb = perfbench;

namespace {

using Clock = std::chrono::steady_clock;

/// Passes per run at the least, so that pass-to-pass identity is checked
/// and host medians have more than one sample.
constexpr int kMinPasses = 3;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload reports (BENCHMARK.json).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_tokens_per_s", "1/s"},
    {"peak_rss_mib", "MiB"},
    {"served_ratio", "ratio"},
    {"sim_tokens_per_s", "1/s"},
    {"sim_latency_ms", "ms"},
    {"sim_ttft_p50_ms", "ms"},
    {"sim_ttft_p99_ms", "ms"},
    {"sim_tpot_p50_ms", "ms"},
    {"sim_tpot_p99_ms", "ms"},
    {"slo_attainment", "ratio"},
};

/// The per-layer metrics of the traced run (BENCHMARK.json), in the order
/// pb::LayerMetrics produces them.
constexpr MetricDef kPerLayer[] = {
    {"api.engine_construct_ms", "ms"},
    {"api.submit_us_p50", "us"},
    {"api.submit_us_p99", "us"},
    {"api.step_until_s", "s"},
    {"api.finish_ms", "ms"},
    {"api.submit_rejected", "count"},
    {"compiler.compile_ms", "ms"},
    {"weights.generate_ms", "ms"},
    {"kernels.matmul_us_per_token", "us"},
    {"kernels.matmul_gflops", "GFLOP/s"},
    {"kernels.matmul_bytes_per_token", "B"},
    {"kernels.attention_us_per_token", "us"},
    {"kernels.other_us_per_token", "us"},
    {"sampler.sample_us", "us"},
    {"sampler.samples", "count"},
    {"executor.forward_us_p50", "us"},
    {"executor.forward_us_p99", "us"},
    {"reference.forward_us_p50", "us"},
    {"executor.model_overhead_us", "us"},
    {"executor.forwards", "count"},
    {"executor.sim_us_per_token", "us"},
    {"executor.hbm_bytes_per_token", "B"},
    {"executor.launches_per_token", "count"},
    {"executor.dynamic_j_per_token", "J"},
    {"kv_pool.construct_ms", "ms"},
    {"kv_pool.blocks_per_card", "count"},
    {"kv_pool.prefix_hit_rate", "ratio"},
    {"kv_pool.hit_token_share", "ratio"},
    {"kv_pool.evictions", "count"},
    {"kv_pool.cow_copies", "count"},
    {"kv_pool.peak_utilization", "ratio"},
    {"kv_pool.append_ns", "ns"},
    {"kv_pool.acquire_prefix_ns", "ns"},
    {"kv_pool.release_ns", "ns"},
    {"shard.ticks", "count"},
    {"shard.mean_batch_width", "count"},
    {"shard.queue_wait_p50_ms", "ms"},
    {"shard.queue_wait_p99_ms", "ms"},
    {"shard.dma_ms", "ms"},
    {"shard.preemptions", "count"},
    {"shard.recompute_share", "ratio"},
    {"shard.shed", "count"},
    {"cluster.card_util_min", "ratio"},
    {"cluster.card_util_max", "ratio"},
    {"cluster.rebalanced_requests", "count"},
    {"cluster.remote_prefix_hits", "count"},
    {"sim_engine.ns_per_event", "ns"},
    {"serving.residual_us_per_token", "us"},
    {"obs.record_overhead_ratio", "ratio"},
    {"obs.export_ms", "ms"},
    {"obs.events_retained", "count"},
    {"trace.overhead_ratio", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir = ".bench_build/perfbench-out";
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0') return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else if (key == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args->seconds > 0.0 &&
         args->trace >= 0 && !args->workload.empty();
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto value = line.substr(colon + 1);
        value.erase(0, value.find_first_not_of(' '));
        return value;
      }
    }
  }
  return "unknown";
}

/// JSON string literal of `s` (escapes quotes, backslashes and controls).
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double TokensPerSecond(const pb::PassResult& p) {
  return p.host_seconds > 0.0
             ? static_cast<double>(p.served_tokens) / p.host_seconds
             : 0.0;
}

/// Pass-to-pass identity: same simulated metrics (bit for bit) and the
/// same token-stream digest as the first pass.
void CheckIdentity(const pb::PassResult& first, const pb::PassResult& pass,
                   std::size_t index, std::vector<std::string>* errors) {
  if (pass.digest != first.digest) {
    errors->push_back("pass " + std::to_string(index) +
                      ": token-stream digest differs from pass 0");
  }
  if (pass.sim.size() != first.sim.size()) {
    errors->push_back("pass " + std::to_string(index) + ": metric set differs");
    return;
  }
  for (std::size_t i = 0; i < pass.sim.size(); ++i) {
    if (std::memcmp(&pass.sim[i].second, &first.sim[i].second,
                    sizeof(double)) != 0) {
      errors->push_back("pass " + std::to_string(index) + ": " +
                        pass.sim[i].first + " differs from pass 0");
    }
  }
}

void PrintMetric(const char* name, double value, const char* unit,
                 const std::string& note = "") {
  std::printf("  %-32s %18.6f %-8s%s\n", name, value, unit, note.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload serve-tiny|prefix-chat|paper-15m "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
                 "[--commit SHA]\n");
    return 2;
  }
  const auto workload = pb::ParseWorkload(args.workload);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: refusing to report host metrics from a build with "
               "asserts enabled; build with -DCMAKE_BUILD_TYPE=Release\n");
  return 3;
#endif
#ifdef __GLIBC__
  // Pin glibc's mmap threshold at its 128 KiB starting value. Left
  // dynamic, it rises after the first large free, and whether later large
  // blocks then stay on the heap depends on their exact sizes: prefix-chat's
  // peak RSS stepped between ~48 and ~56.5 MiB from one seed to the next.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.out_dir.c_str());
    return 2;
  }

  const bool traced_run = args.trace == 1;
  const pb::Inputs inputs = pb::MakeInputs(*workload, args.seed);
  const pb::WorkloadSpec& spec = inputs.spec;

  const std::string provenance =
      "{\"workload\": " + Quote(args.workload) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"trace\": " + std::to_string(args.trace) +
      ", \"host_threads\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"cpu\": " + Quote(CpuModel()) +
      ", \"compiler\": " + Quote(std::string("g++ ") + __VERSION__) +
      ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
      ", \"asserts\": false, \"commit\": " + Quote(args.commit) + "}";
  std::printf("perfbench %s seed=%llu trace=%d\nprovenance: %s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace,
              provenance.c_str());
  if (pb::IsServing(spec.workload)) {
    std::printf(
        "inputs: %zu requests/pass, %d cards, %.0f req/s open-loop Poisson, "
        "SLO ttft<=%.3f ms tpot<=%.3f ms\n",
        inputs.requests.size(), spec.num_cards, spec.rate_rps,
        spec.slo.ttft_seconds * 1e3, spec.slo.tpot_seconds * 1e3);
  } else {
    std::printf("inputs: %zu greedy sequences of %d decoded tokens, prompts",
                inputs.requests.size(), spec.decode_tokens);
    for (const auto& r : inputs.requests) std::printf(" %zu", r.prompt.size());
    std::printf(", SLO ttft<=%.3f ms tpot<=%.3f ms\n",
                spec.slo.ttft_seconds * 1e3, spec.slo.tpot_seconds * 1e3);
  }
  std::fflush(stdout);

  pb::SpanRecorder spans(false);
  std::vector<pb::PassResult> untraced, traced;
  std::vector<std::string> errors;
  const Clock::time_point start = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  // The traced run alternates untraced and traced passes so that both
  // see the same host conditions.
  for (int i = 0;; ++i) {
    const bool trace_this = traced_run && i % 2 == 1;
    spans.set_enabled(trace_this);
    (trace_this ? traced : untraced)
        .push_back(pb::RunPass(inputs, spec.telemetry, args.out_dir, spans));
    // A traced run makes two passes of each kind at the least.
    const int need = traced_run ? 2 : kMinPasses;
    const bool enough =
        static_cast<int>(untraced.size()) >= need &&
        (!traced_run || static_cast<int>(traced.size()) >= need);
    if (enough && elapsed() >= args.seconds) break;
  }
  spans.set_enabled(false);

  const pb::PassResult& first = untraced.front();
  std::int64_t attempted = 0, failed = 0;
  std::vector<const pb::PassResult*> all;
  for (const auto& p : untraced) all.push_back(&p);
  for (const auto& p : traced) all.push_back(&p);

  pb::OverheadRatios ratios;
  std::optional<pb::PassResult> telemetry_off;
  if (traced_run && pb::IsServing(spec.workload)) {
    telemetry_off.emplace(pb::RunPass(inputs, false, args.out_dir, spans));
    all.push_back(&*telemetry_off);
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    attempted += all[i]->attempted;
    failed += all[i]->failed;
    for (const auto& e : all[i]->errors) {
      errors.push_back("pass " + std::to_string(i) + ": " + e);
    }
    CheckIdentity(first, *all[i], i, &errors);
  }
  if (spec.workload == pb::Workload::kPaper15m) {
    for (auto& e : pb::CheckAgainstReference(inputs, first)) errors.push_back(e);
  }

  std::vector<double> setup_s, host_tps, host_s;
  for (const auto& p : untraced) {
    setup_s.push_back(p.setup_seconds);
    host_tps.push_back(TokensPerSecond(p));
    host_s.push_back(p.host_seconds);
  }
  std::printf("passes: %zu untraced, %zu traced, %.1f s; stream digest %016llx\n",
              untraced.size(), traced.size(), elapsed(),
              static_cast<unsigned long long>(first.digest));
  std::printf("untraced passes, host tokens/s:");
  for (double v : host_tps) std::printf(" %.1f", v);
  std::printf("\nuntraced passes, setup s:");
  for (double v : setup_s) std::printf(" %.4f", v);
  std::printf("\n");

  pb::Metrics report;
  const MetricDef* defs = nullptr;
  std::size_t num_defs = 0;
  if (!traced_run) {
    report.emplace_back("setup_s", pb::Median(setup_s));
    report.emplace_back("host_tokens_per_s", pb::Median(host_tps));
    report.emplace_back("peak_rss_mib", PeakRssMib());
    for (const auto& [name, value] : first.sim) report.emplace_back(name, value);
    defs = kEndToEnd;
    num_defs = std::size(kEndToEnd);
    std::printf("end-to-end metrics (host: median of %zu passes; sim: identical "
                "on every pass):\n",
                untraced.size());
    for (const auto& [name, value] : report) {
      const char* unit = name == "sim_tokens_per_joule" ? "1/J" : "";
      for (const auto& d : kEndToEnd) {
        if (name == d.name) unit = d.unit;
      }
      const bool omitted = std::find(first.unsupported.begin(),
                                     first.unsupported.end(),
                                     name) != first.unsupported.end();
      PrintMetric(name.c_str(), value, unit,
                  omitted ? "  (omitted by the percentile rule; JSON carries "
                            "the sample maximum)"
                          : "");
    }
  } else {
    std::vector<double> traced_tps;
    for (const auto& p : traced) traced_tps.push_back(TokensPerSecond(p));
    const double traced_median = pb::Median(traced_tps);
    ratios.trace = traced_median > 0.0 ? pb::Median(host_tps) / traced_median : 0.0;
    if (telemetry_off && telemetry_off->host_seconds > 0.0) {
      ratios.record = pb::Median(host_s) / telemetry_off->host_seconds;
    }
    spans.set_enabled(true);
    report = pb::LayerMetrics(inputs, traced, ratios, spans, &errors);
    spans.set_enabled(false);
    defs = kPerLayer;
    num_defs = std::size(kPerLayer);
    std::printf("per-layer metrics (%zu traced passes + replays):\n",
                traced.size());
    for (std::size_t i = 0; i < report.size() && i < num_defs; ++i) {
      PrintMetric(report[i].first.c_str(), report[i].second, defs[i].unit);
    }
    // Host self time per span name, largest first.
    auto self = spans.SelfTimeByName();
    std::vector<std::pair<std::string, std::int64_t>> rows(self.begin(), self.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    std::printf("span self time (ms):\n");
    for (const auto& [name, ns] : rows) {
      std::printf("  %-32s %12.3f\n", name.c_str(), static_cast<double>(ns) * 1e-6);
    }
    const std::string path = args.out_dir + "/spans-" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (!spans.WriteJson(path, provenance)) {
      errors.push_back("cannot write " + path);
    } else {
      std::printf("spans: %zu written to %s\n", spans.spans().size(), path.c_str());
    }
  }

  for (const auto& e : errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  const bool correct = errors.empty();
  std::printf("checks: %s (%zu failed)\n", correct ? "all passed" : "FAILED",
              errors.size());

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first_metric = true;
  for (std::size_t d = 0; d < num_defs; ++d) {
    const std::string name = defs[d].name;
    if (!first_metric) json += ", ";
    first_metric = false;
    json += Quote(name) + ": {\"value\": " + Number(pb::Get(report, name)) +
            ", \"unit\": " + Quote(defs[d].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
