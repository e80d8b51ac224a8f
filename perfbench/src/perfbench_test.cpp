// Tests of the benchmark's own arithmetic: the percentile rule, SLO
// attainment with failures as misses, span self time, and pass-to-pass
// identity of simulated metrics at a cheap size.
#include <gtest/gtest.h>

#include <numeric>

#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> Range(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileRule, ReportsOnlyWithTenSamplesBeyond) {
  // p99 of 1..1000 is 990, with exactly ten samples above it.
  ASSERT_TRUE(SupportedPercentile(Range(1000), 0.99).has_value());
  EXPECT_EQ(*SupportedPercentile(Range(1000), 0.99), 990.0);
  EXPECT_FALSE(SupportedPercentile(Range(999), 0.99).has_value());
  // p50 needs twenty samples.
  ASSERT_TRUE(SupportedPercentile(Range(20), 0.50).has_value());
  EXPECT_EQ(*SupportedPercentile(Range(20), 0.50), 10.0);
  EXPECT_FALSE(SupportedPercentile(Range(19), 0.50).has_value());
  EXPECT_FALSE(SupportedPercentile({}, 0.50).has_value());
}

TEST(PercentileRule, FallsBackToTheMaximum) {
  bool supported = true;
  EXPECT_EQ(PercentileOrMax(Range(50), 0.99, &supported), 50.0);
  EXPECT_FALSE(supported);
  EXPECT_EQ(PercentileOrMax(Range(1000), 0.99, &supported), 990.0);
  EXPECT_TRUE(supported);
}

TEST(Median, EvenAndOdd) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

speedllm::serving::RequestOutcome Finished(double ttft, double tpot, int n) {
  speedllm::serving::RequestOutcome o;
  o.finish_reason = speedllm::serving::FinishReason::kLength;
  o.generated.assign(static_cast<std::size_t>(n), 7);
  o.first_token_seconds = ttft;
  o.completion_seconds = ttft + tpot * n;
  return o;
}

TEST(SloAttainment, CountsFailuresAsMisses) {
  const SloLimits limits{1.0, 0.1};
  std::vector<speedllm::serving::RequestOutcome> outcomes = {
      Finished(0.5, 0.05, 4),  // meets both
      Finished(2.0, 0.05, 4),  // TTFT miss
      Finished(0.5, 0.20, 4),  // TPOT miss
  };
  auto shed = Finished(0.1, 0.01, 4);
  shed.finish_reason = speedllm::serving::FinishReason::kShed;
  outcomes.push_back(shed);  // fast but failed: a miss
  // Five attempted: the fifth was rejected at submit and has no outcome.
  EXPECT_DOUBLE_EQ(SloAttainment(outcomes, 5, limits), 1.0 / 5.0);
  EXPECT_DOUBLE_EQ(SloAttainment({}, 0, limits), 0.0);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> spans = {
      {"root", 0, 100, -1, -1},
      {"a", 10, 40, 0, 1},
      {"b", 30, 60, 0, 1},   // overlaps a: the union 10..60 counts once
      {"c", 90, 120, 0, 2},  // runs past the parent: clipped at 100
      {"a.child", 15, 25, 1, 1},
  };
  const auto self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 10);
}

TEST(Spans, RecorderNestsAndDisables) {
  SpanRecorder off(false);
  { ScopedSpan s(off, "x"); }
  EXPECT_TRUE(off.spans().empty());

  SpanRecorder on(true);
  {
    ScopedSpan outer(on, "outer");
    ScopedSpan inner(on, "inner", 42);
  }
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_EQ(on.spans()[1].parent, 0);
  EXPECT_EQ(on.spans()[1].request_id, 42);
  EXPECT_LE(on.spans()[0].start_ns, on.spans()[1].start_ns);
  EXPECT_GE(on.spans()[0].end_ns, on.spans()[1].end_ns);
  EXPECT_EQ(on.DurationsNs("inner").size(), 1u);
}

TEST(StreamDigest, SeesTokensAndBoundaries) {
  EXPECT_EQ(StreamDigest({{1, 2}, {3}}), StreamDigest({{1, 2}, {3}}));
  EXPECT_NE(StreamDigest({{1, 2}, {3}}), StreamDigest({{1}, {2, 3}}));
  EXPECT_NE(StreamDigest({{1, 2}, {3}}), StreamDigest({{1, 2}, {4}}));
}

TEST(Inputs, SameSeedSameInputs) {
  const Inputs a = MakeInputs(Workload::kPrefixChat, 5);
  const Inputs b = MakeInputs(Workload::kPrefixChat, 5);
  const Inputs c = MakeInputs(Workload::kPrefixChat, 6);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].prompt, b.requests[i].prompt);
    EXPECT_EQ(a.requests[i].arrival_seconds, b.requests[i].arrival_seconds);
  }
  EXPECT_NE(a.requests.front().arrival_seconds, c.requests.front().arrival_seconds);
}

TEST(Passes, SameSeedGivesIdenticalSimulatedMetrics) {
  // Cheap size: 60 requests of each serving workload, with telemetry
  // on for prefix-chat as in the real run.
  for (Workload w : {Workload::kServeTiny, Workload::kPrefixChat}) {
    Inputs in = MakeInputs(w, 11);
    in.requests.resize(60);
    SpanRecorder spans(false);
    const std::string dir = ::testing::TempDir();
    const PassResult a = RunPass(in, in.spec.telemetry, dir, spans);
    const PassResult b = RunPass(in, in.spec.telemetry, dir, spans);
    ASSERT_TRUE(a.errors.empty()) << a.errors.front();
    EXPECT_EQ(a.failed, 0);
    EXPECT_EQ(a.digest, b.digest);
    ASSERT_EQ(a.sim.size(), b.sim.size());
    for (std::size_t i = 0; i < a.sim.size(); ++i) {
      EXPECT_EQ(a.sim[i].first, b.sim[i].first);
      EXPECT_EQ(a.sim[i].second, b.sim[i].second) << a.sim[i].first;
    }
    EXPECT_GT(Get(a.sim, "sim_tokens_per_s"), 0.0);
  }
}

}  // namespace
}  // namespace perfbench
