// SpeedLLM -- shared helpers for the benchmark harnesses.
//
// Every bench binary reproduces one paper table/figure or one serving
// experiment (see docs/BENCHMARKS.md). The helpers here build the synthetic
// stories15M workload, run one variant end to end, and serve a request
// trace offline through api::RunOffline.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "llama/sampler.hpp"
#include "llama/weights.hpp"
#include "runtime/device.hpp"
#include "runtime/variants.hpp"

namespace speedllm::bench {

inline constexpr std::uint64_t kWeightSeed = 20240517;

/// Machine-readable bench result: named scalar metrics written as JSON
/// for CI artifacts and the tools/check_bench.py perf-regression gate.
/// The schema is {"bench": <name>, "metrics": {<key>: <value>, ...}}.
/// Returns false (after printing to stderr) when the file cannot be
/// written, so benches can fail the job instead of silently skipping the
/// gate.
inline bool WriteBenchJson(
    const std::string& path, const std::string& bench_name,
    const std::vector<std::pair<std::string, double>>& metrics) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write bench JSON to %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"metrics\": {",
               bench_name.c_str());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\": %.6f", i == 0 ? "" : ",",
                 metrics[i].first.c_str(), metrics[i].second);
  }
  std::fprintf(f, "\n  }\n}\n");
  std::fclose(f);
  return true;
}

/// Maps the common --preset flag to a model shape
/// (llama::ModelConfig::FromPreset). An unknown name exits with status 1,
/// so a typo cannot silently run another model.
inline llama::ModelConfig PresetFromFlag(const std::string& preset) {
  StatusOr<llama::ModelConfig> config = llama::ModelConfig::FromPreset(preset);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    std::exit(1);
  }
  return *config;
}

/// Deterministic prompt token ids (synthetic "story opening").
inline std::vector<std::int32_t> MakePrompt(const llama::ModelConfig& config,
                                            std::int32_t length) {
  std::vector<std::int32_t> prompt;
  prompt.reserve(length);
  prompt.push_back(llama::kBosToken);
  Rng rng(977);
  for (std::int32_t i = 1; i < length; ++i) {
    prompt.push_back(static_cast<std::int32_t>(
        259 + rng.NextBounded(static_cast<std::uint64_t>(
                  config.vocab_size - 259))));
  }
  return prompt;
}

/// Runs `variant` for one (prefill, decode) workload and returns metrics.
inline StatusOr<runtime::InferenceMetrics> RunVariant(
    const llama::Weights& weights, runtime::Variant variant,
    std::int32_t prefill, std::int32_t decode,
    const hw::U280Config& u280 = hw::U280Config::Default()) {
  SPEEDLLM_ASSIGN_OR_RETURN(
      runtime::AcceleratorDevice dev,
      runtime::AcceleratorDevice::Create(weights, variant, u280));
  llama::SamplerConfig sc;
  sc.temperature = 0.0f;  // greedy: identical token stream per variant
  llama::Sampler sampler(sc);
  SPEEDLLM_ASSIGN_OR_RETURN(
      runtime::GenerationResult gen,
      dev.Generate(MakePrompt(weights.config, prefill), decode, sampler));
  return gen.metrics;
}

/// Serves `requests` offline on `cards` identical cards under `config`,
/// sampling with `sampler` (api::RunOffline).
inline StatusOr<serving::ClusterReport> RunCards(
    const accel::Program& program, const llama::Weights& weights,
    const hw::U280Config& u280, int cards, api::EngineConfig config,
    const llama::SamplerConfig& sampler,
    const std::vector<serving::ServingRequest>& requests) {
  config.sampler = sampler;
  return api::RunOffline(program, weights,
                         hw::MultiCardConfig::Homogeneous(u280, cards), config,
                         requests);
}

}  // namespace speedllm::bench
