// SpeedLLM -- the seed's round-robin serving loop, kept as a baseline.
//
// Every serving run goes through api::Engine (see api::RunOffline for
// the batch-offline form). This file keeps the original one-token-at-a-
// time loop -- a dedicated executor and monolithic KV cache per request,
// served round-robin with no batching -- as an independent reference:
// tests compare its token streams against the cluster's, and
// bench_serving_batching divides the batching throughput by it.
#pragma once

#include <span>

#include "accel/program.hpp"
#include "common/status.hpp"
#include "hw/u280_config.hpp"
#include "llama/sampler.hpp"
#include "llama/weights.hpp"
#include "serving/request.hpp"

namespace speedllm::runtime {

/// Serves `requests` one token at a time, round-robin over the arrived,
/// unfinished requests, each on its own executor. Sampler streams are
/// seeded like the cluster's (`sampler_config.seed + index * 7919`), so
/// generated tokens match api::RunOffline's. Returns InvalidArgument for
/// empty prompts, non-positive max_new_tokens, or negative/non-finite
/// arrivals, and OutOfRange when a request exceeds the model's seq_len.
StatusOr<serving::ServingReport> RunRoundRobinBaseline(
    const accel::Program& program, const llama::Weights& weights,
    const hw::U280Config& u280,
    std::span<const serving::ServingRequest> requests,
    const llama::SamplerConfig& sampler_config);

}  // namespace speedllm::runtime
