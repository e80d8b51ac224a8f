#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "accel/executor.hpp"
#include "compiler/compiler.hpp"
#include "hw/u280_config.hpp"
#include "llama/kernels.hpp"
#include "llama/reference.hpp"
#include "llama/sampler.hpp"
#include "llama/weights.hpp"
#include "runtime/variants.hpp"
#include "serving/kv_pool.hpp"
#include "sim/engine.hpp"

namespace perfbench {

namespace {

/// Forward passes replayed per layer: enough for a supported p99 on the
/// Tiny model, a bounded cost on Stories15M (about 14 ms per forward).
std::int64_t ForwardBudget(const WorkloadSpec& spec) {
  return IsServing(spec.workload) ? 3000 : 120;
}
/// Tokens pushed through the standalone kernel replay.
std::int64_t KernelBudget(const WorkloadSpec& spec) {
  return IsServing(spec.workload) ? 3000 : 60;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Sum(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum;
}

/// One forwarded token of the workload: the request it belongs to, its
/// value and position, and whether its logits were sampled.
struct StreamToken {
  std::int64_t request = 0;
  std::int32_t token = 0;
  std::int32_t pos = 0;
  bool sampled = false;
};

/// The (token, pos) stream the workload forwarded: each request's prompt
/// followed by its generated tokens but the last, in submission order,
/// cut at `budget` tokens (at a request boundary once one fits).
std::vector<StreamToken> TokenStream(const Inputs& in, const PassResult& pass,
                                     std::int64_t budget) {
  std::vector<StreamToken> out;
  for (std::size_t i = 0; i < in.requests.size() && i < pass.streams.size();
       ++i) {
    const auto& prompt = in.requests[i].prompt;
    const auto& generated = pass.streams[i];
    if (generated.empty()) continue;
    std::vector<std::int32_t> tokens = prompt;
    tokens.insert(tokens.end(), generated.begin(), generated.end() - 1);
    if (!out.empty() &&
        static_cast<std::int64_t>(out.size() + tokens.size()) > budget) {
      break;
    }
    for (std::size_t p = 0; p < tokens.size(); ++p) {
      out.push_back(StreamToken{static_cast<std::int64_t>(i), tokens[p],
                                static_cast<std::int32_t>(p),
                                p + 1 >= prompt.size()});
    }
  }
  return out;
}

struct ForwardReplay {
  double sim_seconds = 0.0;
  double hbm_bytes = 0.0;
  double launches = 0.0;
  double dynamic_j = 0.0;
  std::int64_t forwards = 0;
};

/// Executor, reference model and sampler over the workload's stream.
ForwardReplay ReplayForwards(const Inputs& in, const std::vector<StreamToken>& stream,
                             const sl::llama::Weights& weights,
                             const sl::accel::Program& program,
                             SpanRecorder& spans, std::vector<std::string>* errors) {
  ForwardReplay out;
  sl::accel::Executor executor(program, weights, sl::hw::U280Config::Default());
  sl::llama::ReferenceModel reference(weights, nullptr);
  sl::llama::Sampler sampler(in.sampler);
  std::vector<float> logits;
  std::int64_t current = -1;
  for (const StreamToken& t : stream) {
    if (t.request != current) {
      executor.ResetSequence();
      reference.Reset();
      current = t.request;
    }
    bool ok = false;
    {
      ScopedSpan s(spans, "accel.executor.forward", t.request);
      ok = executor.Forward(t.token, t.pos).ok();
    }
    std::optional<sl::StatusOr<std::span<const float>>> ref;
    {
      ScopedSpan s(spans, "llama.reference.forward", t.request);
      ref.emplace(reference.Forward(t.token, t.pos));
    }
    if (!ok || !ref->ok()) {
      errors->push_back("replay forward failed at request " +
                        std::to_string(t.request));
      return out;
    }
    const auto& stats = executor.last_stats();
    out.sim_seconds += stats.seconds;
    out.hbm_bytes += static_cast<double>(stats.hbm_bytes);
    out.launches += static_cast<double>(stats.launches);
    out.dynamic_j += stats.energy.dynamic_j();
    ++out.forwards;
    if (t.sampled) {
      logits.assign((*ref)->begin(), (*ref)->end());
      ScopedSpan s(spans, "llama.sampler.sample", t.request);
      sampler.Sample(logits);
    }
  }
  return out;
}

struct KernelReplay {
  double macs_per_token = 0.0;
  double bytes_per_token = 0.0;
  std::int64_t tokens = 0;
};

/// The reference forward pass rebuilt from the llama:: kernels, with one
/// span around each group of calls: matmul, attention, everything else.
KernelReplay ReplayKernels(const std::vector<StreamToken>& stream,
                           const sl::llama::Weights& w, SpanRecorder& spans) {
  namespace ll = sl::llama;
  const auto& cfg = w.config;
  const std::int64_t dim = cfg.dim;
  const std::int64_t hidden = cfg.hidden_dim;
  const std::int64_t kv_dim = cfg.kv_dim();
  const std::int32_t head_dim = cfg.head_dim();
  const std::int32_t gqa = cfg.gqa_group();
  ll::KvCache cache(cfg);
  std::vector<float> x(dim), xb(dim), xb2(dim), q(dim), hb(hidden), hb2(hidden),
      att(static_cast<std::size_t>(cfg.seq_len)), logits(cfg.vocab_size);

  KernelReplay out;
  // Per token: n_layers x (wq, wk, wv, wo, w1, w3, w2) plus the classifier.
  const double layer_macs = static_cast<double>(
      2 * dim * dim + 2 * kv_dim * dim + 3 * hidden * dim);
  out.macs_per_token = cfg.n_layers * layer_macs +
                       static_cast<double>(cfg.vocab_size * dim);
  // fp32 weights read once, plus each matmul's input and output vectors.
  const double layer_vectors = static_cast<double>(
      (dim + dim) * 2 + (dim + kv_dim) * 2 + (dim + hidden) * 2 + hidden + dim);
  out.bytes_per_token =
      4.0 * (out.macs_per_token + cfg.n_layers * layer_vectors +
             static_cast<double>(dim + cfg.vocab_size));

  auto mm = [](std::vector<float>& o, std::span<const float> wt,
               const std::vector<float>& in, std::int64_t d, std::int64_t n) {
    ll::MatMul({o.data(), static_cast<std::size_t>(d)}, wt, {in.data(), in.size()},
               d, n);
  };
  std::int64_t current = -1;
  for (const StreamToken& t : stream) {
    if (t.request != current) {
      cache.Reset();
      current = t.request;
    }
    {
      ScopedSpan s(spans, "llama.kernels.other", t.request);
      std::memcpy(x.data(), w.token_embedding.row(t.token).data(),
                  static_cast<std::size_t>(dim) * sizeof(float));
    }
    for (std::int32_t l = 0; l < cfg.n_layers; ++l) {
      float* k_row = cache.k(l, t.pos);
      float* v_row = cache.v(l, t.pos);
      {
        ScopedSpan s(spans, "llama.kernels.other", t.request);
        ll::RmsNorm(xb, x, w.rms_att[l].span());
      }
      {
        ScopedSpan s(spans, "llama.kernels.matmul", t.request);
        mm(q, w.wq[l].span(), xb, dim, dim);
        ll::MatMul({k_row, static_cast<std::size_t>(kv_dim)}, w.wk[l].span(), xb,
                   kv_dim, dim);
        ll::MatMul({v_row, static_cast<std::size_t>(kv_dim)}, w.wv[l].span(), xb,
                   kv_dim, dim);
      }
      {
        ScopedSpan s(spans, "llama.kernels.other", t.request);
        ll::Rope(q, {k_row, static_cast<std::size_t>(kv_dim)}, t.pos, head_dim);
      }
      {
        ScopedSpan s(spans, "llama.kernels.attention", t.request);
        for (std::int32_t h = 0; h < cfg.n_heads; ++h) {
          const std::int32_t kv_head = h / gqa;
          ll::AttentionHead({xb.data() + h * head_dim, static_cast<std::size_t>(head_dim)},
                            {q.data() + h * head_dim, static_cast<std::size_t>(head_dim)},
                            cache.k(l) + kv_head * head_dim,
                            cache.v(l) + kv_head * head_dim, t.pos, head_dim,
                            kv_dim, att);
        }
      }
      {
        ScopedSpan s(spans, "llama.kernels.matmul", t.request);
        mm(xb2, w.wo[l].span(), xb, dim, dim);
      }
      {
        ScopedSpan s(spans, "llama.kernels.other", t.request);
        ll::AddInPlace(x, xb2);
        ll::RmsNorm(xb, x, w.rms_ffn[l].span());
      }
      {
        ScopedSpan s(spans, "llama.kernels.matmul", t.request);
        mm(hb, w.w1[l].span(), xb, hidden, dim);
        mm(hb2, w.w3[l].span(), xb, hidden, dim);
      }
      {
        ScopedSpan s(spans, "llama.kernels.other", t.request);
        ll::Silu(hb);
        ll::MulInPlace(hb, hb2);
      }
      {
        ScopedSpan s(spans, "llama.kernels.matmul", t.request);
        mm(xb, w.w2[l].span(), hb, dim, hidden);
      }
      {
        ScopedSpan s(spans, "llama.kernels.other", t.request);
        ll::AddInPlace(x, xb);
      }
    }
    {
      ScopedSpan s(spans, "llama.kernels.other", t.request);
      ll::RmsNorm(x, x, w.rms_final.span());
    }
    {
      ScopedSpan s(spans, "llama.kernels.matmul", t.request);
      mm(logits, w.classifier().span(), x, cfg.vocab_size, dim);
    }
    ++out.tokens;
  }
  return out;
}

/// Each request's KV lifecycle, one request at a time, through a pool of
/// the workload's own geometry.
void ReplayKvPool(const Inputs& in, const PassResult& pass, SpanRecorder& spans,
                  std::vector<std::string>* errors) {
  if (pass.pool_blocks.empty()) return;
  const auto config = sl::serving::MakeKvPoolConfig(
      in.spec.model, sl::serving::KvCacheDtype::kFp16,
      static_cast<std::uint64_t>(pass.pool_blocks.front()) * pass.pool_block_bytes,
      16, true);
  std::optional<sl::serving::KvBlockPool> pool;
  {
    ScopedSpan s(spans, "serving.kv_pool.construct");
    pool.emplace(config);
  }
  for (std::size_t i = 0; i < in.requests.size() && i < pass.streams.size();
       ++i) {
    const auto id = static_cast<std::int64_t>(i);
    const auto& prompt = in.requests[i].prompt;
    bool ok = true;
    {
      ScopedSpan s(spans, "serving.kv_pool.register", id);
      ok = pool->Register(i).ok();
    }
    std::int64_t matched = 0;
    {
      ScopedSpan s(spans, "serving.kv_pool.acquire_prefix", id);
      auto match = pool->AcquireCachedPrefix(
          i, prompt, static_cast<std::int64_t>(prompt.size()) - 1);
      ok = ok && match.ok();
      if (match.ok()) matched = match->matched_tokens;
    }
    std::vector<std::int32_t> tokens(prompt.begin() + matched, prompt.end());
    tokens.insert(tokens.end(), pass.streams[i].begin(), pass.streams[i].end());
    for (std::int32_t token : tokens) {
      ScopedSpan s(spans, "serving.kv_pool.append", id);
      ok = ok && pool->Append(i, token).ok();
    }
    {
      ScopedSpan s(spans, "serving.kv_pool.release", id);
      ok = pool->Release(i).ok() && ok;
    }
    if (!ok) {
      errors->push_back("kv pool replay failed at request " + std::to_string(i));
      return;
    }
  }
}

/// `events` no-op events through one sim::Engine, scheduled at the
/// request arrival cycles spread over the run, then drained.
void ReplaySimEngine(std::int64_t events, SpanRecorder& spans,
                     std::vector<std::string>* errors) {
  if (events <= 0) return;
  sl::sim::Engine engine;
  std::int64_t fired = 0;
  {
    ScopedSpan s(spans, "sim.engine.schedule");
    for (std::int64_t i = 0; i < events; ++i) {
      // A fixed stride that is coprime with the event count visits the
      // times out of order, as interleaved shards do.
      const auto t = static_cast<sl::sim::Cycles>((i * 7919) % events);
      engine.ScheduleAt(t, [&fired] { ++fired; });
    }
  }
  {
    ScopedSpan s(spans, "sim.engine.run");
    engine.Run();
  }
  if (fired != events) errors->push_back("sim engine replay lost events");
}

double MedianMs(const SpanRecorder& spans, const char* name) {
  return Median(spans.DurationsNs(name)) * 1e-6;
}

}  // namespace

Metrics LayerMetrics(const Inputs& in, const std::vector<PassResult>& traced,
                     const OverheadRatios& ratios, SpanRecorder& spans,
                     std::vector<std::string>* errors) {
  const WorkloadSpec& spec = in.spec;
  const PassResult& pass = traced.front();
  const bool serving = IsServing(spec.workload);
  const auto& merged = pass.report.merged;

  // ----- replays -----
  const sl::llama::Weights weights =
      sl::llama::GenerateSyntheticWeights(spec.model, kWeightSeed);
  std::optional<sl::StatusOr<sl::compiler::CompileResult>> compiled;
  {
    ScopedSpan s(spans, "compiler.compile");
    compiled.emplace(sl::compiler::Compile(
        spec.model, sl::runtime::OptionsFor(sl::runtime::Variant::kSpeedLLM),
        sl::hw::U280Config::Default()));
  }
  ForwardReplay fwd;
  KernelReplay kern;
  if (!compiled->ok()) {
    errors->push_back("replay compile: " + compiled->status().ToString());
  } else {
    fwd = ReplayForwards(in, TokenStream(in, pass, ForwardBudget(spec)), weights,
                         (*compiled)->program, spans, errors);
  }
  kern = ReplayKernels(TokenStream(in, pass, KernelBudget(spec)), weights, spans);
  if (serving) ReplayKvPool(in, pass, spans, errors);
  // Events a serving run dispatches: one arrival per request, and per
  // tick the tick itself, its token delivery and (with metrics on) its
  // telemetry sample. An estimate from the report's counters.
  const std::int64_t events =
      serving ? static_cast<std::int64_t>(in.requests.size()) +
                    merged.ticks * (spec.telemetry ? 3 : 2)
              : 0;
  ReplaySimEngine(events, spans, errors);

  // ----- host time per layer -----
  const std::vector<double> exec_ns = spans.DurationsNs("accel.executor.forward");
  const std::vector<double> ref_ns = spans.DurationsNs("llama.reference.forward");
  const std::vector<double> sample_ns = spans.DurationsNs("llama.sampler.sample");
  const double exec_us = Mean(exec_ns) * 1e-3;
  const double sample_us = Mean(sample_ns) * 1e-3;
  const double kernel_tokens = static_cast<double>(std::max<std::int64_t>(1, kern.tokens));
  const double matmul_s = Sum(spans.DurationsNs("llama.kernels.matmul")) * 1e-9;

  std::int64_t generated = 0;
  for (const auto& s : pass.streams) generated += static_cast<std::int64_t>(s.size());
  std::int64_t prompt_tokens = 0;
  for (const auto& r : in.requests) prompt_tokens += static_cast<std::int64_t>(r.prompt.size());
  // Host forward passes the workload ran: the tokens the devices
  // processed, swap-in recompute, and the prefix-cache hits, which cost
  // no simulated time but are forwarded on the host to rebuild the slot
  // executor's functional KV.
  const std::int64_t workload_forwards =
      serving ? merged.total_tokens + merged.recomputed_tokens +
                    merged.prefix_cache_hit_tokens
              : prompt_tokens + generated;

  const double step_s = Sum(spans.DurationsNs("api.step_until")) * 1e-9 /
                        static_cast<double>(traced.size());

  Metrics m;
  auto put = [&m](const char* name, double value) { m.emplace_back(name, value); };
  put("api.engine_construct_ms", MedianMs(spans, "api.engine_construct"));
  put("api.submit_us_p50",
      PercentileOrMax(spans.DurationsNs("api.submit"), 0.50, nullptr) * 1e-3);
  put("api.submit_us_p99",
      PercentileOrMax(spans.DurationsNs("api.submit"), 0.99, nullptr) * 1e-3);
  put("api.step_until_s", step_s);
  put("api.finish_ms", MedianMs(spans, "api.finish"));
  put("api.submit_rejected", static_cast<double>(pass.submit_rejected));
  put("compiler.compile_ms", MedianMs(spans, "compiler.compile"));
  put("weights.generate_ms", MedianMs(spans, "weights.generate"));

  put("kernels.matmul_us_per_token", matmul_s * 1e6 / kernel_tokens);
  put("kernels.matmul_gflops",
      matmul_s > 0.0 ? 2.0 * kern.macs_per_token * kernel_tokens / matmul_s * 1e-9
                     : 0.0);
  put("kernels.matmul_bytes_per_token", kern.bytes_per_token);
  put("kernels.attention_us_per_token",
      Sum(spans.DurationsNs("llama.kernels.attention")) * 1e-3 / kernel_tokens);
  put("kernels.other_us_per_token",
      Sum(spans.DurationsNs("llama.kernels.other")) * 1e-3 / kernel_tokens);

  put("sampler.sample_us", sample_us);
  put("sampler.samples", static_cast<double>(generated));

  const double forwards = static_cast<double>(std::max<std::int64_t>(1, fwd.forwards));
  put("executor.forward_us_p50", PercentileOrMax(exec_ns, 0.50, nullptr) * 1e-3);
  put("executor.forward_us_p99", PercentileOrMax(exec_ns, 0.99, nullptr) * 1e-3);
  put("reference.forward_us_p50", PercentileOrMax(ref_ns, 0.50, nullptr) * 1e-3);
  put("executor.model_overhead_us", exec_us - Mean(ref_ns) * 1e-3);
  put("executor.forwards", static_cast<double>(workload_forwards));
  put("executor.sim_us_per_token", fwd.sim_seconds * 1e6 / forwards);
  put("executor.hbm_bytes_per_token", fwd.hbm_bytes / forwards);
  put("executor.launches_per_token", fwd.launches / forwards);
  put("executor.dynamic_j_per_token", fwd.dynamic_j / forwards);

  // KV pool counters summed over cards; utilization is the worst card's.
  sl::serving::KvPoolStats pool;
  double peak_util = 0.0;
  for (std::size_t c = 0; c < pass.pool_stats.size(); ++c) {
    const auto& s = pass.pool_stats[c];
    pool.prefix_queries += s.prefix_queries;
    pool.prefix_hits += s.prefix_hits;
    pool.prefix_hit_tokens += s.prefix_hit_tokens;
    pool.prefix_lookup_tokens += s.prefix_lookup_tokens;
    pool.cache_evictions += s.cache_evictions;
    pool.cow_copies += s.cow_copies;
    if (pass.pool_blocks[c] > 0) {
      peak_util = std::max(peak_util, static_cast<double>(s.peak_used_blocks) /
                                          static_cast<double>(pass.pool_blocks[c]));
    }
  }
  auto ratio = [](std::int64_t a, std::int64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  put("kv_pool.construct_ms", MedianMs(spans, "serving.kv_pool.construct"));
  put("kv_pool.blocks_per_card",
      pass.pool_blocks.empty() ? 0.0 : static_cast<double>(pass.pool_blocks.front()));
  put("kv_pool.prefix_hit_rate", ratio(pool.prefix_hits, pool.prefix_queries));
  put("kv_pool.hit_token_share",
      ratio(pool.prefix_hit_tokens, pool.prefix_lookup_tokens));
  put("kv_pool.evictions", static_cast<double>(pool.cache_evictions));
  put("kv_pool.cow_copies", static_cast<double>(pool.cow_copies));
  put("kv_pool.peak_utilization", peak_util);
  put("kv_pool.append_ns", Mean(spans.DurationsNs("serving.kv_pool.append")));
  put("kv_pool.acquire_prefix_ns",
      Mean(spans.DurationsNs("serving.kv_pool.acquire_prefix")));
  put("kv_pool.release_ns", Mean(spans.DurationsNs("serving.kv_pool.release")));

  std::vector<double> queue_ms;
  for (const auto& o : pass.outcomes) {
    if (serving && !o.generated.empty()) queue_ms.push_back(o.queueing_delay() * 1e3);
  }
  put("shard.ticks", static_cast<double>(merged.ticks));
  put("shard.mean_batch_width", merged.mean_batch_width);
  put("shard.queue_wait_p50_ms", PercentileOrMax(queue_ms, 0.50, nullptr));
  put("shard.queue_wait_p99_ms", PercentileOrMax(queue_ms, 0.99, nullptr));
  put("shard.dma_ms", merged.dma_time_seconds * 1e3);
  put("shard.preemptions", static_cast<double>(merged.preemptions));
  put("shard.recompute_share", ratio(merged.recomputed_tokens, merged.total_tokens));
  put("shard.shed", static_cast<double>(merged.shed_requests));

  const auto& util = pass.report.card_utilization;
  put("cluster.card_util_min",
      util.empty() ? 0.0 : *std::min_element(util.begin(), util.end()));
  put("cluster.card_util_max",
      util.empty() ? 0.0 : *std::max_element(util.begin(), util.end()));
  put("cluster.rebalanced_requests", static_cast<double>(pass.report.rebalanced_requests));
  put("cluster.remote_prefix_hits", static_cast<double>(pass.report.remote_prefix_hits));

  const double engine_ns = Sum(spans.DurationsNs("sim.engine.schedule")) +
                           Sum(spans.DurationsNs("sim.engine.run"));
  put("sim_engine.ns_per_event",
      events > 0 ? engine_ns / static_cast<double>(events) : 0.0);
  // Step time the replayed forward and sample costs do not explain: an
  // estimate of shard, cluster, pool and engine bookkeeping.
  put("serving.residual_us_per_token",
      serving && pass.served_tokens > 0
          ? (step_s * 1e6 - exec_us * static_cast<double>(workload_forwards) -
             sample_us * static_cast<double>(generated)) /
                static_cast<double>(pass.served_tokens)
          : 0.0);

  put("obs.record_overhead_ratio", ratios.record);
  put("obs.export_ms", MedianMs(spans, "obs.export"));
  put("obs.events_retained", static_cast<double>(pass.events_retained));
  put("trace.overhead_ratio", ratios.trace);
  return m;
}

}  // namespace perfbench
