// perfbench -- the benchmark's workloads and one measured pass over each.
//
// Three workloads, each a single process on one host thread:
//  * serve-tiny  -- the default multi-card serving path through
//                   api::Engine (4 cards, round-robin, HBM-derived pools);
//  * prefix-chat -- shared system prompts on 2 cards with prefix-affinity
//                   placement, capped pools and telemetry on;
//  * paper-15m   -- the paper's Fig. 2 setup: Stories15M through
//                   runtime::AcceleratorDevice with greedy decoding.
// Every fixed rate and limit below was chosen once from measurements of
// the commit that introduced the benchmark and is never re-probed at run
// time (see README.md): a probe would lower the offered load whenever the
// simulated device got slower and hide the regression.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "llama/config.hpp"
#include "llama/sampler.hpp"
#include "serving/cluster.hpp"
#include "serving/kv_pool.hpp"
#include "serving/request.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

namespace sl = speedllm;

enum class Workload { kServeTiny, kPrefixChat, kPaper15m };

/// Parses a workload name ("serve-tiny", "prefix-chat", "paper-15m").
std::optional<Workload> ParseWorkload(std::string_view name);
/// The workload's command-line name.
const char* WorkloadName(Workload workload);
/// True for the workloads served through api::Engine.
inline bool IsServing(Workload workload) {
  return workload != Workload::kPaper15m;
}

/// Seed of the synthetic weights; fixed so the model never depends on the
/// workload seed.
inline constexpr std::uint64_t kWeightSeed = 20240517;

/// Fixed parameters of one workload.
struct WorkloadSpec {
  Workload workload = Workload::kServeTiny;
  sl::llama::ModelConfig model;
  // Serving workloads.
  int num_cards = 1;
  sl::serving::PlacementPolicy placement =
      sl::serving::PlacementPolicy::kRoundRobin;
  std::int32_t num_requests = 0;  ///< serving requests per pass
  double rate_rps = 0.0;          ///< open-loop Poisson arrival rate
  std::uint64_t pool_blocks_per_card = 0;  ///< 0 = HBM-derived pools
  bool telemetry = false;         ///< tracing + metrics, exported per pass
  float temperature = 0.0f;       ///< 0 = greedy
  SloLimits slo;
  // paper-15m.
  std::vector<std::int32_t> prefill_points;  ///< Fig. 2 prompt lengths
  std::int32_t decode_tokens = 0;             ///< tokens decoded after each
};

/// The workload's fixed parameters.
WorkloadSpec SpecFor(Workload workload);

/// Everything a pass receives, generated from the seed alone.
struct Inputs {
  WorkloadSpec spec;
  sl::llama::SamplerConfig sampler;
  /// Serving request trace, or the paper prompts as requests (arrival 0,
  /// max_new_tokens = decode_tokens).
  std::vector<sl::serving::ServingRequest> requests;
};

/// Builds the workload's inputs for `seed`.
Inputs MakeInputs(Workload workload, std::uint64_t seed);

/// Named metric values, in report order.
using Metrics = std::vector<std::pair<std::string, double>>;

/// Looks `name` up in `metrics` (0 when absent).
double Get(const Metrics& metrics, const std::string& name);

/// One measured pass: fresh set-up, then the timed region.
struct PassResult {
  // Host time.
  double setup_seconds = 0.0;  ///< weights + compile + engine/device
  double host_seconds = 0.0;   ///< the timed region
  // Volume and failures.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;     ///< rejected, shed, cancelled or errored
  std::int64_t served_tokens = 0;  ///< prompt + generated, finished requests
  std::vector<std::string> errors;  ///< failed output checks
  // Simulated results; identical on every pass of one run.
  std::uint64_t digest = 0;
  Metrics sim;
  /// Simulated percentiles the sample was too small for (their values
  /// in `sim` are the sample maximum).
  std::vector<std::string> unsupported;
  std::vector<std::vector<std::int32_t>> streams;  ///< tokens per request
  std::vector<sl::serving::RequestOutcome> outcomes;  ///< per request
  // Layer observations.
  sl::serving::ClusterReport report;          ///< serving only
  std::vector<sl::serving::KvPoolStats> pool_stats;  ///< per card
  std::vector<std::int64_t> pool_blocks;      ///< capacity per card
  std::uint64_t pool_block_bytes = 0;
  std::int64_t submit_rejected = 0;
  std::int64_t events_retained = 0;           ///< telemetry trace events
};

/// Runs one pass. `telemetry` overrides the workload's telemetry switch
/// (the traced run uses it for one extra telemetry-off pass). Exports are
/// written under `export_dir`. Spans go to `spans` when it is enabled.
PassResult RunPass(const Inputs& inputs, bool telemetry,
                   const std::string& export_dir, SpanRecorder& spans);

/// Greedy tokens of `llama::ReferenceModel` for every paper prompt,
/// compared with `pass.streams`. Returns one message per mismatch.
std::vector<std::string> CheckAgainstReference(const Inputs& inputs,
                                               const PassResult& pass);

}  // namespace perfbench
