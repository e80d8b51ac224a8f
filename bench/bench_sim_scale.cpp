// SpeedLLM bench: serial cluster soak.
//
// Long-horizon stress for the cluster on the serial sim::Engine: drives
// a ~100k-request Poisson trace through 8 cards in segments (a fresh
// api::RunOffline per segment) and reports, per segment, wall time,
// simulated throughput and RSS. Two properties are checked every run:
//
//  1. simulated tokens: the total is deterministic per (flags, seed), so
//     the CI floor pins it;
//  2. memory stability: RSS (live heap, see RssMib) sampled after every
//     segment; the final sample must stay within --rss-slack-mb (default
//     96) of the post-warm-up baseline, catching leaks in the event
//     queue, KV pools and shard state across segments.
//
//   ./bench/bench_sim_scale [--preset tiny] [--requests 100000]
//                           [--segments 8] [--cards 8] [--seed 11]
//                           [--gen 8] [--rss-slack-mb 96]
//                           [--json out.json]
//
// --json writes {"bench": "sim_scale", "metrics": {...}} for the CI
// artifact upload and the tools/check_bench.py regression gate.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#if defined(__GLIBC__)  // defined once any libc header is in
#include <malloc.h>
#endif

#include "api/engine.hpp"
#include "bench_util.hpp"
#include "compiler/compiler.hpp"
#include "serving/cluster.hpp"
#include "serving/workload.hpp"

using namespace speedllm;

namespace {

/// Current resident set size in MiB (VmRSS from /proc/self/status);
/// 0.0 when the proc filesystem is unavailable. On glibc, freed heap
/// pages are returned to the OS first, so the sample tracks live memory
/// rather than the allocator's retained high-water mark (which otherwise
/// climbs over the first few segments without any leak).
double RssMib() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  return 0.0;
}

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

int main(int argc, char** argv) {
  auto cl_or = CommandLine::Parse(
      argc, argv, {"preset", "requests", "segments", "cards", "seed", "gen",
                   "rss-slack-mb", "json"});
  if (!cl_or.ok()) {
    std::fprintf(stderr, "%s\n", cl_or.status().ToString().c_str());
    return 1;
  }
  const CommandLine& cl = cl_or.value();
  llama::ModelConfig config =
      bench::PresetFromFlag(cl.GetString("preset", "tiny"));
  const int n_requests = static_cast<int>(cl.GetInt("requests", 100000));
  const int n_segments = static_cast<int>(cl.GetInt("segments", 8));
  const int n_cards = static_cast<int>(cl.GetInt("cards", 8));
  const std::uint64_t seed = static_cast<std::uint64_t>(cl.GetInt("seed", 11));
  const int gen = static_cast<int>(cl.GetInt("gen", 8));
  const double rss_slack_mb = cl.GetDouble("rss-slack-mb", 96.0);

  llama::Weights weights =
      llama::GenerateSyntheticWeights(config, bench::kWeightSeed);
  auto u280 = hw::U280Config::Default();
  auto compiled = compiler::Compile(
      config, runtime::OptionsFor(runtime::Variant::kSpeedLLM), u280);
  if (!compiled.ok()) {
    std::fprintf(stderr, "%s\n", compiled.status().ToString().c_str());
    return 1;
  }
  const accel::Program& program = compiled->program;
  const auto cards = hw::MultiCardConfig::Homogeneous(u280, n_cards);

  llama::SamplerConfig sampler;
  sampler.temperature = 0.9f;
  sampler.seed = 5;

  api::EngineConfig engine_config;
  engine_config.placement = serving::PlacementPolicy::kRoundRobin;
  engine_config.rebalance_queued = false;
  engine_config.sampler = sampler;

  const int per_segment = n_requests / n_segments;
  std::printf(
      "== sim scale soak: %d requests (%d segments x %d), %d cards, "
      "%s ==\n\n",
      per_segment * n_segments, n_segments, per_segment, n_cards,
      config.ToString().c_str());

  Table table({"segment", "requests", "wall_s", "sim_tok_per_s", "rss_mib"});
  double wall_total_s = 0.0;
  double rss_first_mb = 0.0;
  double rss_last_mb = 0.0;
  std::int64_t total_tokens = 0;

  for (int s = 0; s < n_segments; ++s) {
    serving::WorkloadConfig wc;
    wc.num_requests = per_segment;
    wc.rate_rps = 3000.0;  // saturating: keeps every card busy
    wc.min_prompt_tokens = 3;
    wc.max_prompt_tokens = 10;
    wc.min_new_tokens = gen / 2;
    wc.max_new_tokens = gen;
    wc.vocab_size = config.vocab_size;
    Rng rng(seed + static_cast<std::uint64_t>(s));
    const auto reqs = serving::PoissonTrace(rng, wc);

    auto t0 = std::chrono::steady_clock::now();
    auto report =
        api::RunOffline(program, weights, cards, engine_config, reqs);
    auto t1 = std::chrono::steady_clock::now();
    if (!report.ok()) {
      std::fprintf(stderr, "segment %d failed: %s\n", s,
                   report.status().ToString().c_str());
      return 1;
    }

    const double wall_s = Seconds(t0, t1);
    wall_total_s += wall_s;
    total_tokens += report->merged.total_tokens;
    const double rss = RssMib();
    // Baseline at the second segment: the first includes first-touch
    // warm-up, which is growth but not a leak.
    if (s == std::min(1, n_segments - 1)) rss_first_mb = rss;
    rss_last_mb = rss;

    table.AddRow();
    table.Cell(static_cast<std::int64_t>(s));
    table.Cell(static_cast<std::int64_t>(per_segment));
    table.Cell(wall_s, 2);
    table.Cell(report->merged.device_tokens_per_second, 0);
    table.Cell(rss, 1);
  }
  table.Print();

  const double rss_growth_mb = rss_last_mb - rss_first_mb;
  std::printf(
      "\n%lld simulated tokens in %.2fs wall; RSS %.1f -> %.1f MiB across "
      "%d segments.\n",
      static_cast<long long>(total_tokens), wall_total_s, rss_first_mb,
      rss_last_mb, n_segments);

  const std::string json_path = cl.GetString("json", "");
  if (!json_path.empty() &&
      !bench::WriteBenchJson(
          json_path, "sim_scale",
          {{"simulated_tokens", static_cast<double>(total_tokens)},
           {"wall_seconds", wall_total_s},
           {"rss_growth_mib", rss_growth_mb}})) {
    return 1;
  }

  if (rss_first_mb > 0.0 && rss_growth_mb > rss_slack_mb) {
    std::fprintf(stderr,
                 "FAIL: RSS grew %.1f MiB across segments (slack %.1f)\n",
                 rss_growth_mb, rss_slack_mb);
    return 1;
  }
  return 0;
}
