// Unit tests for one card's continuous-batching scheduler
// (serving/scheduler.hpp knobs, run as a one-card api::RunOffline):
// deterministic batch composition (read off the telemetry trace), policy
// ordering, aging/no-starvation, KV exhaustion preemption, and the
// batching win over the round-robin baseline.
#include <gtest/gtest.h>

#include <algorithm>

#include "api/engine.hpp"
#include "compiler/compiler.hpp"
#include "llama/tokenizer.hpp"
#include "runtime/round_robin.hpp"
#include "runtime/variants.hpp"
#include "serving/interconnect.hpp"
#include "serving/scheduler.hpp"
#include "serving/shard.hpp"
#include "serving/workload.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"

namespace speedllm::serving {
namespace {

struct Fixture {
  llama::ModelConfig config = llama::ModelConfig::Tiny();
  llama::Weights weights = llama::GenerateSyntheticWeights(config, 808);
  hw::U280Config u280 = hw::U280Config::Default();

  accel::Program Compile(runtime::Variant v = runtime::Variant::kSpeedLLM) {
    auto r = compiler::Compile(config, runtime::OptionsFor(v), u280);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value().program;
  }
};

ServingRequest MakeRequest(std::int32_t prompt_len, std::int32_t gen,
                           double arrival, std::int32_t salt = 0) {
  ServingRequest req;
  req.prompt.push_back(llama::kBosToken);
  for (std::int32_t t = 1; t < prompt_len; ++t) {
    req.prompt.push_back(3 + (salt * 31 + t * 7) % 500);
  }
  req.max_new_tokens = gen;
  req.arrival_seconds = arrival;
  return req;
}

llama::SamplerConfig Greedy() {
  llama::SamplerConfig sc;
  sc.temperature = 0.0f;
  return sc;
}

/// Serves `reqs` on one card: a single card is a cluster of one.
StatusOr<ServingReport> RunOneCard(const accel::Program& prog,
                                   const Fixture& f,
                                   const SchedulerConfig& config,
                                   const std::vector<ServingRequest>& reqs,
                                   const llama::SamplerConfig& sampler) {
  api::EngineConfig engine_config;
  engine_config.scheduler = config;
  engine_config.sampler = sampler;
  SPEEDLLM_ASSIGN_OR_RETURN(
      ClusterReport report,
      api::RunOffline(prog, f.weights,
                      hw::MultiCardConfig::Homogeneous(f.u280, 1),
                      engine_config, reqs));
  return std::move(report.merged);
}

/// A greedy one-card run with tracing on, plus the per-tick batch
/// composition read back from the trace.
struct TracedRun {
  StatusOr<ServingReport> report = ServingReport{};
  std::vector<testutil::TickComposition> ticks;
};

/// With `roles` set, one card per role serves the trace and the ticks
/// are read off card `traced_card`.
TracedRun RunTraced(const accel::Program& prog, const Fixture& f,
                    const SchedulerConfig& config,
                    const std::vector<ServingRequest>& reqs,
                    const std::vector<ShardRole>& roles = {},
                    std::int32_t traced_card = 0) {
  api::EngineConfig engine_config;
  engine_config.scheduler = config;
  if (!roles.empty()) {
    engine_config.num_cards = static_cast<int>(roles.size());
    engine_config.shard_roles = roles;
  }
  engine_config.sampler = Greedy();
  engine_config.telemetry.enable_tracing = true;
  api::Engine engine(prog, f.weights, f.u280, engine_config);
  for (const ServingRequest& req : reqs) {
    EXPECT_TRUE(engine.Submit(req).ok());
  }
  engine.RunToCompletion();
  TracedRun run;
  run.ticks = testutil::TicksFromTrace(engine.telemetry()->trace()->events(),
                                       traced_card);
  auto report = engine.Finish();
  if (report.ok()) {
    run.report = std::move(report->merged);
  } else {
    run.report = report.status();
  }
  return run;
}

// ---------------- batch composition ----------------

TEST(SchedulerTest, ExactBatchCompositionFcfs) {
  Fixture f;
  auto prog = f.Compile();
  SchedulerConfig config;
  config.policy = BatchPolicy::kFcfs;
  config.max_batch_tokens = 8;
  config.max_batch_seqs = 4;
  std::vector<ServingRequest> reqs = {MakeRequest(3, 2, 0.0, 0),
                                      MakeRequest(3, 2, 0.0, 1)};
  TracedRun run = RunTraced(prog, f, config, reqs);
  const auto& report = run.report;
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_EQ(report->ticks, 3);
  ASSERT_EQ(run.ticks.size(), 3u);
  // Tick 0: both prompts prefill together inside the 8-token budget.
  EXPECT_TRUE(run.ticks[0].decode_streams.empty());
  EXPECT_EQ(run.ticks[0].prefill_streams, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(run.ticks[0].prefill_tokens, 6);
  // Ticks 1-2: pure grouped decode over both sequences.
  for (std::size_t t = 1; t <= 2; ++t) {
    EXPECT_EQ(run.ticks[t].decode_streams, (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(run.ticks[t].prefill_tokens, 0);
  }
  // Both TTFTs land at the end of the shared prefill tick.
  EXPECT_DOUBLE_EQ(report->outcomes[0].first_token_seconds,
                   run.ticks[0].end_seconds);
  EXPECT_DOUBLE_EQ(report->outcomes[1].first_token_seconds,
                   run.ticks[0].end_seconds);
  EXPECT_EQ(report->total_tokens, 2 * (3 + 2));
  EXPECT_DOUBLE_EQ(report->mean_batch_width, 2.0);
}

TEST(SchedulerTest, ShortestPromptFirstReordersAdmission) {
  Fixture f;
  auto prog = f.Compile();
  SchedulerConfig config;
  config.max_batch_tokens = 4;
  config.max_batch_seqs = 4;
  std::vector<ServingRequest> reqs = {MakeRequest(8, 1, 0.0, 0),
                                      MakeRequest(2, 1, 0.0, 1)};

  config.policy = BatchPolicy::kFcfs;
  TracedRun fcfs = RunTraced(prog, f, config, reqs);
  ASSERT_TRUE(fcfs.report.ok());
  ASSERT_FALSE(fcfs.ticks.empty());
  // FCFS: the long head request monopolizes the first tick's budget.
  EXPECT_EQ(fcfs.ticks[0].prefill_streams, (std::vector<std::size_t>{0}));

  config.policy = BatchPolicy::kShortestPromptFirst;
  TracedRun spf = RunTraced(prog, f, config, reqs);
  ASSERT_TRUE(spf.report.ok());
  ASSERT_FALSE(spf.ticks.empty());
  // SPF: the short prompt jumps the queue and both fit the first tick.
  EXPECT_EQ(spf.ticks[0].prefill_streams, (std::vector<std::size_t>{1, 0}));
  EXPECT_LT(spf.report->outcomes[1].time_to_first_token(),
            fcfs.report->outcomes[1].time_to_first_token());
}

TEST(SchedulerTest, DecodePriorityCapsPrefillPerTick) {
  Fixture f;
  auto prog = f.Compile();
  SchedulerConfig config;
  config.policy = BatchPolicy::kDecodePriority;
  config.prefill_chunk_tokens = 2;
  config.max_batch_tokens = 16;
  std::vector<ServingRequest> reqs = {MakeRequest(2, 10, 0.0, 0),
                                      MakeRequest(6, 2, 0.0, 1)};
  TracedRun run = RunTraced(prog, f, config, reqs);
  ASSERT_TRUE(run.report.ok()) << run.report.status().ToString();

  bool mixed_tick = false;
  for (const testutil::TickComposition& tick : run.ticks) {
    EXPECT_LE(tick.prefill_tokens, 2);  // chunked prefill honors the cap
    if (!tick.decode_streams.empty() && tick.prefill_tokens > 0) {
      mixed_tick = true;
    }
  }
  EXPECT_TRUE(mixed_tick);  // decode and prefill genuinely coexist

  // FCFS has no such cap: the 6-token prompt prefills in one gulp.
  config.policy = BatchPolicy::kFcfs;
  TracedRun fcfs = RunTraced(prog, f, config, reqs);
  ASSERT_TRUE(fcfs.report.ok());
  std::int32_t max_prefill = 0;
  for (const testutil::TickComposition& tick : fcfs.ticks) {
    max_prefill = std::max(max_prefill, tick.prefill_tokens);
  }
  EXPECT_GT(max_prefill, 2);
}

/// Decode streams of every tick, in run order.
std::vector<std::vector<std::size_t>> DecodeStreams(const TracedRun& run) {
  std::vector<std::vector<std::size_t>> out;
  for (const testutil::TickComposition& tick : run.ticks) {
    out.push_back(tick.decode_streams);
  }
  return out;
}

TEST(SchedulerTest, ScarceBudgetFundsDecodeInPinnedOrder) {
  // More decoding sequences than the token budget covers, so each tick
  // funds only part of the decode set. Without speculation a card can
  // only get there by adopting handoffs (which take no prefill budget),
  // so the first leg reads the decode card of a prefill/decode pair; the
  // second leg widens each decode sequence to 1 + k budget units on one
  // card. Tiers off rotates over the whole decode set; tiers on funds
  // whole tiers in priority order and rotates only inside the first tier
  // the budget cannot cover. Every tick's decode rows are pinned.
  Fixture f;
  auto prog = f.Compile();
  SchedulerConfig config;
  config.policy = BatchPolicy::kFcfs;
  config.max_batch_seqs = 6;
  config.max_batch_tokens = 3;
  constexpr RequestTier kTiers[] = {
      RequestTier::kBestEffort, RequestTier::kStandard,
      RequestTier::kInteractive, RequestTier::kStandard,
      RequestTier::kInteractive, RequestTier::kBestEffort};
  std::vector<ServingRequest> reqs;
  for (std::int32_t i = 0; i < 6; ++i) {
    reqs.push_back(MakeRequest(2, 4 + i % 3, 0.0, i));
    reqs.back().tier = kTiers[i];
  }
  SchedulerConfig spec = config;
  spec.max_batch_tokens = 4;
  spec.speculative.draft_tokens = 1;  // two budget units per sequence
  std::vector<ServingRequest> one_token = reqs;
  for (ServingRequest& req : one_token) req.prompt.resize(1);

  using Ticks = std::vector<std::vector<std::size_t>>;
  const Ticks kDecodeCardFlat = {
      {},        {0},       {0},       {0},       {0, 1, 2}, {1, 2},
      {1, 2, 3}, {4, 5, 1}, {2, 3, 4}, {5, 1, 2}, {2, 3, 4}, {3, 4, 5},
      {4, 5},    {5},       {5}};
  const Ticks kDecodeCardTiered = {
      {},        {2},       {2},       {2},       {2, 4, 1}, {2, 4, 1},
      {2, 4, 1}, {4, 1},    {4, 1, 3}, {3, 0, 5}, {3, 0, 5}, {3, 0, 5},
      {0, 5},    {5},       {5}};
  // Speculative ticks list one decode row per committed token.
  const Ticks kSpecFlat = {{},           {0, 1, 1},    {2, 2, 3, 3},
                           {0, 1, 1},    {2, 2, 3, 3}, {2, 2, 0, 0},
                           {1},          {4, 5},       {4, 5, 5},
                           {4, 4, 5, 5}, {4, 5}};
  const Ticks kSpecTiered = {{},        {2, 2, 4},    {2, 2, 4},
                             {2, 2, 4, 4}, {4, 1, 1}, {1, 1, 3, 3},
                             {1, 3, 3}, {},           {0, 5},
                             {0, 5, 5}, {0, 0, 5, 5}, {5}};
  for (bool tiers : {false, true}) {
    SCOPED_TRACE(tiers ? "tiers on" : "tiers off");
    config.enable_tiers = tiers;
    spec.enable_tiers = tiers;
    TracedRun decode_card = RunTraced(
        prog, f, config, reqs, {ShardRole::kPrefill, ShardRole::kDecode}, 1);
    ASSERT_TRUE(decode_card.report.ok())
        << decode_card.report.status().ToString();
    EXPECT_EQ(DecodeStreams(decode_card),
              tiers ? kDecodeCardTiered : kDecodeCardFlat);
    TracedRun speculative = RunTraced(prog, f, spec, one_token);
    ASSERT_TRUE(speculative.report.ok())
        << speculative.report.status().ToString();
    EXPECT_EQ(DecodeStreams(speculative), tiers ? kSpecTiered : kSpecFlat);
  }
}

TEST(SchedulerTest, FailedPoolReleaseSurfacesInFinalize) {
  // A failed pool call must reach the caller in every build type, not
  // only trip a debug assert. Dropping the shard's pool sequence behind
  // its back makes the cancel's own release fail: the cancel still
  // completes, and both Abort and Finalize report the failure.
  Fixture f;
  auto prog = f.Compile();
  sim::Engine engine;
  Interconnect interconnect(hw::MultiCardConfig::Homogeneous(f.u280, 1));
  ShardScheduler shard(prog, f.weights, f.u280, NormalizeSchedulerConfig({}),
                       engine, interconnect, 0);
  const ServingRequest req = MakeRequest(4, 4, 0.0);
  shard.Submit(req, 0, Greedy());
  engine.RunUntil(0);  // the first tick admits and prefills the request
  ASSERT_EQ(shard.num_residents(), 1);
  ASSERT_TRUE(shard.mutable_pool().Release(0).ok());
  EXPECT_EQ(shard.Abort(0).code(), StatusCode::kNotFound);
  EXPECT_EQ(shard.num_residents(), 0);
  EXPECT_EQ(shard.Finalize().code(), StatusCode::kNotFound);
}

// ---------------- aging / starvation ----------------

TEST(SchedulerTest, AgingPreventsShortestPromptStarvation) {
  Fixture f;
  auto prog = f.Compile();
  SchedulerConfig config;
  config.policy = BatchPolicy::kShortestPromptFirst;
  config.max_batch_seqs = 1;  // serialize admissions
  config.max_batch_tokens = 16;
  std::vector<ServingRequest> reqs;
  reqs.push_back(MakeRequest(8, 1, 0.0, 0));  // long prompt, arrives first
  for (int i = 1; i <= 4; ++i) reqs.push_back(MakeRequest(2, 1, 0.0, i));

  config.starvation_grace_ticks = 2;
  auto aged = RunOneCard(prog, f, config, reqs, Greedy());
  ASSERT_TRUE(aged.ok());
  config.starvation_grace_ticks = 1000000;
  auto starved = RunOneCard(prog, f, config, reqs, Greedy());
  ASSERT_TRUE(starved.ok());

  auto rank_of_long = [](const ServingReport& report) {
    int rank = 0;
    for (std::size_t i = 1; i < report.outcomes.size(); ++i) {
      if (report.outcomes[i].admission_seconds <
          report.outcomes[0].admission_seconds) {
        ++rank;
      }
    }
    return rank;  // shorts admitted before the long request
  };
  // Without aging, pure SPF admits every short prompt first.
  EXPECT_EQ(rank_of_long(*starved), 4);
  // With a small grace window the long request jumps back in line.
  EXPECT_LT(rank_of_long(*aged), 4);
  EXPECT_LT(aged->outcomes[0].latency(), starved->outcomes[0].latency());
}

// ---------------- KV exhaustion & preemption ----------------

TEST(SchedulerTest, PreemptionBySwapIsTransparent) {
  Fixture f;
  auto prog = f.Compile();
  const std::uint32_t bytes_per_token = KvBytesPerToken(f.config);
  SchedulerConfig tight;
  tight.block_size_tokens = 4;
  // 8 blocks: three 16-token sequences (4 blocks each) cannot all be
  // resident, so the newest gets swapped out under decode pressure.
  tight.kv_pool_bytes = 8ull * 4 * bytes_per_token;
  tight.max_batch_seqs = 4;
  tight.max_batch_tokens = 32;
  std::vector<ServingRequest> reqs = {MakeRequest(4, 12, 0.0, 0),
                                      MakeRequest(4, 12, 0.0, 1),
                                      MakeRequest(4, 12, 0.0, 2)};

  auto tight_report = RunOneCard(prog, f, tight, reqs, Greedy());
  ASSERT_TRUE(tight_report.ok()) << tight_report.status().ToString();
  SchedulerConfig roomy = tight;
  roomy.kv_pool_bytes = 0;  // derive from full HBM: effectively unbounded
  auto roomy_report = RunOneCard(prog, f, roomy, reqs, Greedy());
  ASSERT_TRUE(roomy_report.ok());

  EXPECT_GT(tight_report->preemptions, 0);
  EXPECT_GT(tight_report->recomputed_tokens, 0);
  EXPECT_EQ(roomy_report->preemptions, 0);
  // Swap-by-recompute never changes what gets generated.
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(tight_report->outcomes[i].generated,
              roomy_report->outcomes[i].generated)
        << "request " << i;
    EXPECT_EQ(tight_report->outcomes[i].generated.size(), 12u);
  }
  // The pool invariant held throughout: peak usage within budget.
  EXPECT_EQ(tight_report->kv_block_capacity, 8);
  EXPECT_LE(tight_report->peak_kv_blocks, tight_report->kv_block_capacity);
  EXPECT_LE(static_cast<std::uint64_t>(tight_report->peak_kv_blocks) *
                tight_report->kv_block_bytes,
            tight_report->kv_capacity_bytes);
  // Memory pressure costs time, it never costs liveness.
  EXPECT_GT(tight_report->makespan_seconds, roomy_report->makespan_seconds);
}

TEST(SchedulerTest, CachedPrefixSkipsPrefillAndCutsTtft) {
  Fixture f;
  auto prog = f.Compile();
  // Two requests with an identical 32-token prompt (two full blocks of
  // 16), the second arriving well after the first finished. With prefix
  // caching the repeat maps the cached blocks, re-processes only the
  // final prompt token (a copy-on-write into the shared tail), and its
  // TTFT collapses.
  std::vector<ServingRequest> reqs = {MakeRequest(32, 8, 0.0, 5),
                                      MakeRequest(32, 8, 0.05, 5)};
  SchedulerConfig off;
  off.enable_prefix_cache = false;
  auto report_off = RunOneCard(prog, f, off, reqs, Greedy());
  ASSERT_TRUE(report_off.ok()) << report_off.status().ToString();
  SchedulerConfig on;
  on.enable_prefix_cache = true;
  auto report_on = RunOneCard(prog, f, on, reqs, Greedy());
  ASSERT_TRUE(report_on.ok()) << report_on.status().ToString();

  // Byte-identical streams, with and without the cache.
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(report_on->outcomes[i].generated,
              report_off->outcomes[i].generated)
        << "request " << i;
  }
  // The repeat's 31 cacheable tokens came off the device's books: only
  // the final prompt token was processed, via copy-on-write.
  EXPECT_EQ(report_off->prefix_cache_hit_tokens, 0);
  EXPECT_EQ(report_on->prefix_cache_hit_tokens, 31);
  EXPECT_GE(report_on->cow_copies, 1);
  EXPECT_EQ(report_on->total_tokens, report_off->total_tokens - 31);
  EXPECT_LT(report_on->outcomes[1].time_to_first_token(),
            0.5 * report_off->outcomes[1].time_to_first_token());
  EXPECT_LT(report_on->makespan_seconds, report_off->makespan_seconds);
}

TEST(SchedulerTest, RequestLargerThanPoolIsRejected) {
  Fixture f;
  auto prog = f.Compile();
  SchedulerConfig config;
  config.block_size_tokens = 4;
  config.kv_pool_bytes = 2ull * 4 * KvBytesPerToken(f.config);  // 8 tokens
  auto report = RunOneCard(prog, f, config, {MakeRequest(6, 6, 0.0)}, Greedy());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
}

// ---------------- validation ----------------

TEST(SchedulerTest, ValidatesRequests) {
  Fixture f;
  auto prog = f.Compile();
  const SchedulerConfig config;
  llama::SamplerConfig sc = Greedy();
  auto run = [&](const std::vector<ServingRequest>& reqs) {
    return RunOneCard(prog, f, config, reqs, sc);
  };

  std::vector<ServingRequest> empty_prompt(1);
  EXPECT_EQ(run(empty_prompt).status().code(), StatusCode::kInvalidArgument);

  auto zero_gen = MakeRequest(3, 1, 0.0);
  zero_gen.max_new_tokens = 0;
  EXPECT_EQ(run({zero_gen}).status().code(), StatusCode::kInvalidArgument);

  auto negative_arrival = MakeRequest(3, 2, -1.0);
  EXPECT_EQ(run({negative_arrival}).status().code(),
            StatusCode::kInvalidArgument);

  auto too_long = MakeRequest(3, f.config.seq_len, 0.0);
  EXPECT_EQ(run({too_long}).status().code(), StatusCode::kOutOfRange);

  EXPECT_TRUE(run({}).ok());
}

// ---------------- determinism & functional equivalence ----------------

TEST(SchedulerTest, DeterministicAcrossRuns) {
  Fixture f;
  auto prog = f.Compile();
  Rng rng(2024);
  WorkloadConfig wc;
  wc.num_requests = 6;
  wc.rate_rps = 2000.0;
  wc.max_prompt_tokens = 10;
  wc.min_new_tokens = 4;
  wc.max_new_tokens = 10;
  wc.vocab_size = f.config.vocab_size;
  auto reqs = PoissonTrace(rng, wc);
  llama::SamplerConfig sc;
  sc.temperature = 0.8f;
  sc.seed = 9;
  SchedulerConfig config;
  auto a = RunOneCard(prog, f, config, reqs, sc);
  auto b = RunOneCard(prog, f, config, reqs, sc);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(a->outcomes[i].generated, b->outcomes[i].generated);
    EXPECT_DOUBLE_EQ(a->outcomes[i].completion_seconds,
                     b->outcomes[i].completion_seconds);
  }
}

TEST(SchedulerTest, TokenStreamsInvariantToPolicyAndBatching) {
  Fixture f;
  auto prog = f.Compile();
  Rng rng(7);
  WorkloadConfig wc;
  wc.num_requests = 5;
  wc.rate_rps = 5000.0;
  wc.max_prompt_tokens = 8;
  wc.min_new_tokens = 3;
  wc.max_new_tokens = 8;
  wc.vocab_size = f.config.vocab_size;
  auto reqs = PoissonTrace(rng, wc);
  llama::SamplerConfig sc;
  sc.temperature = 0.9f;
  sc.seed = 13;

  auto baseline =
      runtime::RunRoundRobinBaseline(prog, f.weights, f.u280, reqs, sc);
  ASSERT_TRUE(baseline.ok());
  for (BatchPolicy policy :
       {BatchPolicy::kFcfs, BatchPolicy::kShortestPromptFirst,
        BatchPolicy::kDecodePriority}) {
    SchedulerConfig config;
    config.policy = policy;
    auto report = RunOneCard(prog, f, config, reqs, sc);
    ASSERT_TRUE(report.ok()) << BatchPolicyName(policy);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      EXPECT_EQ(report->outcomes[i].generated, baseline->outcomes[i].generated)
          << BatchPolicyName(policy) << " request " << i;
    }
  }
}

// ---------------- the batching win ----------------

TEST(SchedulerTest, ContinuousBatchingBeatsLegacyAtFourConcurrent) {
  Fixture f;
  auto prog = f.Compile();
  std::vector<ServingRequest> reqs;
  for (int i = 0; i < 4; ++i) reqs.push_back(MakeRequest(6, 8, 0.0, i));

  auto legacy_report =
      runtime::RunRoundRobinBaseline(prog, f.weights, f.u280, reqs, Greedy());
  ASSERT_TRUE(legacy_report.ok());

  auto batched_report = RunOneCard(prog, f, {}, reqs, Greedy());
  ASSERT_TRUE(batched_report.ok());

  // Aggregate throughput: the grouped step amortizes the weight stream.
  EXPECT_GT(batched_report->device_tokens_per_second,
            1.2 * legacy_report->device_tokens_per_second);
  EXPECT_LT(batched_report->makespan_seconds,
            legacy_report->makespan_seconds);
  // Tail TTFT stays bounded: batched prefill is no worse than the
  // round-robin interleave.
  EXPECT_LE(batched_report->ttft_percentile(0.99),
            legacy_report->ttft_percentile(0.99));
  EXPECT_GT(batched_report->mean_batch_width, 1.0);
}

}  // namespace
}  // namespace speedllm::serving
