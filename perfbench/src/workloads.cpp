#include "workloads.hpp"

#include <chrono>
#include <cstdio>
#include <optional>

#include "api/engine.hpp"
#include "common/rng.hpp"
#include "compiler/compiler.hpp"
#include "hw/u280_config.hpp"
#include "llama/reference.hpp"
#include "llama/tokenizer.hpp"
#include "llama/weights.hpp"
#include "runtime/device.hpp"
#include "runtime/variants.hpp"
#include "serving/workload.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Keeps at most this many failed-check messages per pass; the count of
/// failures is kept in PassResult::failed either way.
constexpr std::size_t kMaxErrors = 8;

void AddError(PassResult& r, std::string message) {
  if (r.errors.size() < kMaxErrors) r.errors.push_back(std::move(message));
}

/// Fills the simulated end-to-end metrics shared by every workload from
/// per-request outcomes. `makespan_seconds` is the simulated time the
/// pass took; the requests' own latencies are summed separately.
void FillSimMetrics(PassResult& r, double makespan_seconds,
                    const SloLimits& slo) {
  std::vector<double> ttft, tpot;
  double latency_sum = 0.0;
  for (const auto& o : r.outcomes) {
    if (o.finish_reason != sl::serving::FinishReason::kLength &&
        o.finish_reason != sl::serving::FinishReason::kStop) {
      continue;
    }
    latency_sum += o.latency();
    if (o.generated.empty()) continue;
    ttft.push_back(o.time_to_first_token() * 1e3);
    tpot.push_back(o.time_per_output_token() * 1e3);
  }
  r.sim.emplace_back("sim_tokens_per_s",
                     makespan_seconds > 0.0
                         ? static_cast<double>(r.served_tokens) /
                               makespan_seconds
                         : 0.0);
  r.sim.emplace_back("sim_latency_ms", latency_sum * 1e3);
  auto percentile = [&r](const char* name, const std::vector<double>& samples,
                         double p) {
    bool supported = false;
    r.sim.emplace_back(name, PercentileOrMax(samples, p, &supported));
    if (!supported) r.unsupported.push_back(name);
  };
  percentile("sim_ttft_p50_ms", ttft, 0.50);
  percentile("sim_ttft_p99_ms", ttft, 0.99);
  percentile("sim_tpot_p50_ms", tpot, 0.50);
  percentile("sim_tpot_p99_ms", tpot, 0.99);
  r.sim.emplace_back("slo_attainment",
                     SloAttainment(r.outcomes, r.attempted, slo));
  r.sim.emplace_back(
      "served_ratio",
      r.attempted > 0 ? static_cast<double>(r.attempted - r.failed) /
                            static_cast<double>(r.attempted)
                      : 0.0);
}

PassResult RunServingPass(const Inputs& in, bool telemetry,
                          const std::string& export_dir, SpanRecorder& spans) {
  const WorkloadSpec& spec = in.spec;
  PassResult r;
  r.attempted = static_cast<std::int64_t>(in.requests.size());

  const Clock::time_point setup_start = Clock::now();
  std::optional<sl::llama::Weights> weights;
  {
    ScopedSpan s(spans, "weights.generate");
    weights.emplace(sl::llama::GenerateSyntheticWeights(spec.model, kWeightSeed));
  }
  const auto u280 = sl::hw::U280Config::Default();
  std::optional<sl::StatusOr<sl::compiler::CompileResult>> compiled;
  {
    ScopedSpan s(spans, "compiler.compile");
    compiled.emplace(sl::compiler::Compile(
        spec.model, sl::runtime::OptionsFor(sl::runtime::Variant::kSpeedLLM),
        u280));
  }
  if (!compiled->ok()) {
    AddError(r, "compile: " + compiled->status().ToString());
    r.failed = r.attempted;
    return r;
  }
  sl::api::EngineConfig config;
  config.num_cards = spec.num_cards;
  config.placement = spec.placement;
  config.sampler = in.sampler;
  if (spec.pool_blocks_per_card > 0) {
    const std::uint64_t block_bytes =
        static_cast<std::uint64_t>(config.scheduler.block_size_tokens) *
        sl::serving::KvBytesPerToken(spec.model);
    config.kv_pool_bytes_per_card.assign(
        static_cast<std::size_t>(spec.num_cards),
        spec.pool_blocks_per_card * block_bytes);
  }
  config.telemetry.enable_tracing = telemetry;
  config.telemetry.enable_metrics = telemetry;
  std::optional<sl::api::Engine> engine;
  {
    ScopedSpan s(spans, "api.engine_construct");
    engine.emplace((*compiled)->program, *weights, u280, config);
  }
  r.setup_seconds = Seconds(Clock::now() - setup_start);

  // Timed region. Each request is submitted before the clock is stepped
  // to its due time, so the open-loop generator is never late and TTFT
  // counts from when the request was due.
  const Clock::time_point start = Clock::now();
  std::vector<bool> accepted(in.requests.size(), false);
  for (std::size_t i = 0; i < in.requests.size(); ++i) {
    const auto& request = in.requests[i];
    {
      ScopedSpan s(spans, "api.submit", static_cast<std::int64_t>(i));
      accepted[i] = engine->Submit(request).ok();
    }
    ScopedSpan s(spans, "api.step_until", static_cast<std::int64_t>(i));
    engine->StepUntil(request.arrival_seconds);
  }
  {
    ScopedSpan s(spans, "api.step_until");
    engine->RunToCompletion();
  }
  for (int card = 0; card < engine->num_cards(); ++card) {
    r.pool_stats.push_back(engine->kv_pool_stats(card));
    r.pool_blocks.push_back(engine->kv_block_capacity(card));
  }
  if (telemetry) {
    ScopedSpan s(spans, "obs.export");
    const std::string stem = export_dir + "/" + WorkloadName(spec.workload);
    const sl::Status trace = engine->WriteTrace(stem + "-trace.json");
    const sl::Status metrics = engine->WriteMetricsJson(stem + "-metrics.json");
    if (!trace.ok()) AddError(r, "trace export: " + trace.ToString());
    if (!metrics.ok()) AddError(r, "metrics export: " + metrics.ToString());
    r.events_retained = static_cast<std::int64_t>(
        engine->telemetry()->trace()->size());
  }
  sl::StatusOr<sl::serving::ClusterReport> report = [&] {
    ScopedSpan s(spans, "api.finish");
    return engine->Finish();
  }();
  r.host_seconds = Seconds(Clock::now() - start);
  r.pool_block_bytes =
      static_cast<std::uint64_t>(config.scheduler.block_size_tokens) *
      sl::serving::KvBytesPerToken(spec.model);

  if (!report.ok()) {
    AddError(r, "finish: " + report.status().ToString());
    r.failed = r.attempted;
    return r;
  }
  r.report = std::move(*report);

  // Outcomes come back in submission order, one per accepted request.
  const auto& merged = r.report.merged.outcomes;
  r.outcomes.resize(in.requests.size());
  r.streams.resize(in.requests.size());
  std::size_t next = 0;
  for (std::size_t i = 0; i < in.requests.size(); ++i) {
    if (!accepted[i]) {
      ++r.submit_rejected;
      ++r.failed;
      AddError(r, "request " + std::to_string(i) + " rejected at submit");
      continue;
    }
    if (next >= merged.size()) {
      ++r.failed;
      AddError(r, "request " + std::to_string(i) + " has no outcome");
      continue;
    }
    const auto& o = merged[next++];
    r.outcomes[i] = o;
    r.streams[i] = o.generated;
    const auto budget = static_cast<std::size_t>(in.requests[i].max_new_tokens);
    using sl::serving::FinishReason;
    const bool within =
        (o.finish_reason == FinishReason::kLength &&
         o.generated.size() == budget) ||
        (o.finish_reason == FinishReason::kStop && o.generated.size() < budget);
    if (!within) {
      ++r.failed;
      AddError(r, "request " + std::to_string(i) + " finished with " +
                      std::string(sl::serving::FinishReasonName(o.finish_reason)) +
                      " after " + std::to_string(o.generated.size()) + " of " +
                      std::to_string(budget) + " tokens");
      continue;
    }
    r.served_tokens += o.prompt_tokens + static_cast<std::int64_t>(o.generated.size());
  }
  if (next != merged.size()) AddError(r, "more outcomes than accepted requests");
  r.digest = StreamDigest(r.streams);
  FillSimMetrics(r, r.report.merged.makespan_seconds, spec.slo);
  return r;
}

PassResult RunPaperPass(const Inputs& in, SpanRecorder& spans) {
  const WorkloadSpec& spec = in.spec;
  PassResult r;
  r.attempted = static_cast<std::int64_t>(in.requests.size());

  const Clock::time_point setup_start = Clock::now();
  std::optional<sl::llama::Weights> weights;
  {
    ScopedSpan s(spans, "weights.generate");
    weights.emplace(sl::llama::GenerateSyntheticWeights(spec.model, kWeightSeed));
  }
  std::optional<sl::StatusOr<sl::runtime::AcceleratorDevice>> device;
  {
    ScopedSpan s(spans, "runtime.device_create");
    device.emplace(sl::runtime::AcceleratorDevice::Create(
        *weights, sl::runtime::Variant::kSpeedLLM, sl::hw::U280Config::Default()));
  }
  r.setup_seconds = Seconds(Clock::now() - setup_start);
  if (!device->ok()) {
    AddError(r, "device: " + device->status().ToString());
    r.failed = r.attempted;
    return r;
  }

  const Clock::time_point start = Clock::now();
  std::vector<sl::StatusOr<sl::runtime::GenerationResult>> results;
  for (std::size_t i = 0; i < in.requests.size(); ++i) {
    ScopedSpan s(spans, "runtime.generate", static_cast<std::int64_t>(i));
    sl::llama::Sampler sampler(in.sampler);
    results.push_back((*device)->Generate(in.requests[i].prompt,
                                          in.requests[i].max_new_tokens,
                                          sampler));
  }
  r.host_seconds = Seconds(Clock::now() - start);

  double sim_seconds = 0.0;
  double dynamic_joules = 0.0;
  std::int64_t sim_tokens = 0;
  r.outcomes.resize(in.requests.size());
  r.streams.resize(in.requests.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      ++r.failed;
      AddError(r, "sequence " + std::to_string(i) + ": " +
                      results[i].status().ToString());
      continue;
    }
    const auto& gen = *results[i];
    const auto& m = gen.metrics;
    if (gen.generated_tokens.size() !=
        static_cast<std::size_t>(in.requests[i].max_new_tokens)) {
      ++r.failed;
      AddError(r, "sequence " + std::to_string(i) + " decoded " +
                      std::to_string(gen.generated_tokens.size()) + " tokens");
      continue;
    }
    auto& o = r.outcomes[i];
    o.generated = gen.generated_tokens;
    o.prompt_tokens = static_cast<std::int32_t>(m.prompt_tokens);
    o.first_token_seconds = m.prefill_seconds;
    o.completion_seconds = m.total_seconds();
    o.finish_reason = sl::serving::FinishReason::kLength;
    r.streams[i] = gen.generated_tokens;
    r.served_tokens += m.prompt_tokens + m.generated_tokens;
    sim_seconds += m.total_seconds();
    dynamic_joules += m.energy.dynamic_j();
    sim_tokens += m.prompt_tokens + m.generated_tokens;
  }
  r.digest = StreamDigest(r.streams);
  // The sequences run back to back on one device, so the pass's simulated
  // duration is the sum of their latencies.
  FillSimMetrics(r, sim_seconds, spec.slo);
  r.sim.emplace_back("sim_tokens_per_joule",
                     dynamic_joules > 0.0
                         ? static_cast<double>(sim_tokens) / dynamic_joules
                         : 0.0);
  return r;
}

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w :
       {Workload::kServeTiny, Workload::kPrefixChat, Workload::kPaper15m}) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kServeTiny:
      return "serve-tiny";
    case Workload::kPrefixChat:
      return "prefix-chat";
    case Workload::kPaper15m:
      return "paper-15m";
  }
  return "unknown";
}

WorkloadSpec SpecFor(Workload workload) {
  WorkloadSpec spec;
  spec.workload = workload;
  switch (workload) {
    case Workload::kServeTiny:
      spec.model = sl::llama::ModelConfig::Tiny();
      spec.num_cards = 4;
      spec.placement = sl::serving::PlacementPolicy::kRoundRobin;
      spec.num_requests = 3000;
      // 4-card saturation measured at ~50,700 requests/s (served tokens
      // stop rising and TTFT grows with the backlog). At 0.8x of it the
      // p99 TTFT of one seed differed from the next by up to 2x; at 0.6x
      // the spread over ten seeds is a few percent.
      spec.rate_rps = 30000.0;
      spec.temperature = 0.8f;
      spec.slo = SloLimits{0.07e-3, 0.032e-3};
      break;
    case Workload::kPrefixChat:
      spec.model = sl::llama::ModelConfig::Tiny();
      spec.num_cards = 2;
      spec.placement = sl::serving::PlacementPolicy::kPrefixAffinity;
      spec.num_requests = 3000;
      // Measured 2-card saturation: ~22,500 requests/s with the prefix
      // cache off, ~40,700 with it on. At 0.96x of the first, cache-off
      // TTFT p99 is 1.5-2 ms and growing; with the cache it is ~0.16 ms.
      // Rates nearer the cache-on limit made p99 TTFT vary 20% by seed.
      spec.rate_rps = 21500.0;
      spec.pool_blocks_per_card = 32;
      spec.telemetry = true;
      spec.temperature = 0.8f;
      spec.slo = SloLimits{0.1e-3, 0.04e-3};
      break;
    case Workload::kPaper15m:
      spec.model = sl::llama::ModelConfig::Stories15M();
      spec.prefill_points = {8, 16, 32, 64};
      spec.decode_tokens = 48;
      spec.temperature = 0.0f;
      spec.slo = SloLimits{20e-3, 0.5e-3};
      break;
  }
  return spec;
}

Inputs MakeInputs(Workload workload, std::uint64_t seed) {
  Inputs in;
  in.spec = SpecFor(workload);
  in.sampler.temperature = in.spec.temperature;
  in.sampler.seed = seed * 7919 + 17;
  sl::Rng rng(seed);
  const WorkloadSpec& spec = in.spec;
  switch (workload) {
    case Workload::kServeTiny: {
      sl::serving::WorkloadConfig wc;
      wc.num_requests = spec.num_requests;
      wc.rate_rps = spec.rate_rps;
      wc.min_prompt_tokens = 4;
      wc.max_prompt_tokens = 24;
      wc.min_new_tokens = 8;
      wc.max_new_tokens = 24;
      wc.vocab_size = spec.model.vocab_size;
      in.requests = sl::serving::PoissonTrace(rng, wc);
      break;
    }
    case Workload::kPrefixChat: {
      sl::serving::SharedPrefixConfig sp;
      sp.num_requests = spec.num_requests;
      sp.rate_rps = spec.rate_rps;
      sp.shared_fraction = 0.8;
      sp.num_prefixes = 4;
      sp.prefix_tokens = 48;  // three full 16-token KV blocks
      sp.min_suffix_tokens = 1;
      sp.max_suffix_tokens = 4;
      sp.min_new_tokens = 4;
      sp.max_new_tokens = 12;
      sp.vocab_size = spec.model.vocab_size;
      in.requests = sl::serving::SharedPrefixTrace(rng, sp);
      break;
    }
    case Workload::kPaper15m:
      // Fig. 2's prompt lengths, each lengthened by a seed-drawn 0..L/32
      // tokens so that different seeds give different inputs.
      for (std::int32_t point : spec.prefill_points) {
        const auto length = point + static_cast<std::int32_t>(rng.NextBounded(
                                        static_cast<std::uint64_t>(point / 32 + 1)));
        sl::serving::ServingRequest request;
        request.prompt.push_back(sl::llama::kBosToken);
        while (static_cast<std::int32_t>(request.prompt.size()) < length) {
          request.prompt.push_back(
              3 + static_cast<std::int32_t>(rng.NextBounded(
                      static_cast<std::uint64_t>(spec.model.vocab_size - 3))));
        }
        request.max_new_tokens = spec.decode_tokens;
        in.requests.push_back(std::move(request));
      }
      break;
  }
  return in;
}

double Get(const Metrics& metrics, const std::string& name) {
  for (const auto& [key, value] : metrics) {
    if (key == name) return value;
  }
  return 0.0;
}

PassResult RunPass(const Inputs& inputs, bool telemetry,
                   const std::string& export_dir, SpanRecorder& spans) {
  ScopedSpan pass(spans, "pass");
  if (IsServing(inputs.spec.workload)) {
    return RunServingPass(inputs, telemetry, export_dir, spans);
  }
  return RunPaperPass(inputs, spans);
}

std::vector<std::string> CheckAgainstReference(const Inputs& inputs,
                                               const PassResult& pass) {
  std::vector<std::string> errors;
  const sl::llama::Weights weights =
      sl::llama::GenerateSyntheticWeights(inputs.spec.model, kWeightSeed);
  sl::llama::ReferenceModel reference(weights, nullptr);
  for (std::size_t i = 0; i < inputs.requests.size(); ++i) {
    const auto& request = inputs.requests[i];
    reference.Reset();
    std::int32_t pos = 0;
    std::vector<float> logits;
    auto forward = [&](std::int32_t token) {
      auto out = reference.Forward(token, pos++);
      if (!out.ok()) return false;
      logits.assign(out->begin(), out->end());
      return true;
    };
    bool ok = true;
    for (std::int32_t token : request.prompt) ok = ok && forward(token);
    std::vector<std::int32_t> expected;
    for (std::int32_t k = 0; ok && k < request.max_new_tokens; ++k) {
      expected.push_back(sl::llama::Sampler::ArgMax(logits));
      if (k + 1 < request.max_new_tokens) ok = forward(expected.back());
    }
    if (!ok || i >= pass.streams.size() || pass.streams[i] != expected) {
      errors.push_back("sequence " + std::to_string(i) +
                       ": executor greedy tokens differ from ReferenceModel");
    }
  }
  return errors;
}

}  // namespace perfbench
