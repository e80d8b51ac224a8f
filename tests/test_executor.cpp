// Unit tests for the accelerator executor: functional parity with the CPU
// reference, timing-model invariants, and energy accounting.
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "accel/executor.hpp"
#include "compiler/compiler.hpp"
#include "llama/reference.hpp"
#include "runtime/variants.hpp"

namespace speedllm::accel {
namespace {

struct Harness {
  llama::ModelConfig config;
  llama::Weights weights;
  hw::U280Config u280;

  explicit Harness(llama::ModelConfig c, std::uint64_t seed = 404)
      : config(c),
        weights(llama::GenerateSyntheticWeights(c, seed)),
        u280(hw::U280Config::Default()) {}

  Program Compile(const compiler::CompilerOptions& opt) const {
    auto r = compiler::Compile(config, opt, u280);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value().program;
  }
};

// ---------------- Functional parity ----------------

class ParityTest : public ::testing::TestWithParam<runtime::Variant> {};

TEST_P(ParityTest, MatchesReferenceBitExact) {
  Harness s(llama::ModelConfig::Tiny());
  Program prog = s.Compile(runtime::OptionsFor(GetParam()));
  Executor exec(prog, s.weights, s.u280);
  llama::ReferenceModel ref(s.weights, nullptr);

  for (std::int32_t pos = 0; pos < 12; ++pos) {
    std::int32_t token = (pos * 131 + 17) % s.config.vocab_size;
    auto a = exec.Forward(token, pos);
    auto r = ref.Forward(token, pos);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(r.ok());
    // Same kernels in the same order: results are bit-exact.
    EXPECT_EQ(MaxAbsDiff(*a, *r), 0.0f) << "pos " << pos;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, ParityTest,
    ::testing::Values(runtime::Variant::kUnoptimized,
                      runtime::Variant::kNoPipeline,
                      runtime::Variant::kNoFuse, runtime::Variant::kSpeedLLM,
                      runtime::Variant::kNoReuse),
    [](const auto& info) { return runtime::VariantName(info.param); });

TEST(ExecutorTest, Int8CloseToReference) {
  Harness s(llama::ModelConfig::Tiny());
  compiler::CompilerOptions opt = compiler::CompilerOptions::SpeedLLM();
  opt.int8_weights = true;
  Program prog = s.Compile(opt);
  Executor exec(prog, s.weights, s.u280);
  llama::ReferenceModel ref(s.weights, nullptr);

  for (std::int32_t pos = 0; pos < 6; ++pos) {
    std::int32_t token = (pos * 31 + 3) % s.config.vocab_size;
    auto a = exec.Forward(token, pos);
    auto r = ref.Forward(token, pos);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(r.ok());
    // int8 weights: small relative error, same argmax structure usually.
    EXPECT_LT(RelativeL2Error(*a, *r), 0.05f) << "pos " << pos;
  }
}

TEST(ExecutorTest, ResetSequenceReproducesExactly) {
  Harness s(llama::ModelConfig::Tiny());
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Executor exec(prog, s.weights, s.u280);

  std::vector<std::int32_t> tokens = {1, 50, 99, 7};
  std::vector<float> first;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    auto l = exec.Forward(tokens[i], static_cast<std::int32_t>(i));
    ASSERT_TRUE(l.ok());
    first.assign(l->begin(), l->end());
  }
  sim::Cycles cycles_first = exec.last_stats().cycles;

  exec.ResetSequence();
  std::vector<float> second;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    auto l = exec.Forward(tokens[i], static_cast<std::int32_t>(i));
    ASSERT_TRUE(l.ok());
    second.assign(l->begin(), l->end());
  }
  EXPECT_EQ(MaxAbsDiff(first, second), 0.0f);
  EXPECT_EQ(exec.last_stats().cycles, cycles_first);
}

TEST(ExecutorTest, KvCarryoverChangesLaterLogits) {
  Harness s(llama::ModelConfig::Tiny());
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Executor exec(prog, s.weights, s.u280);
  ASSERT_TRUE(exec.Forward(5, 0).ok());
  auto a = exec.Forward(9, 1);
  ASSERT_TRUE(a.ok());
  std::vector<float> with_history(a->begin(), a->end());

  exec.ResetSequence();
  ASSERT_TRUE(exec.Forward(200, 0).ok());
  auto b = exec.Forward(9, 1);
  ASSERT_TRUE(b.ok());
  EXPECT_GT(MaxAbsDiff(with_history, *b), 0.0f);
}

// ---------------- Timing invariants ----------------

TEST(ExecutorTest, PipelineNeverSlowerThanSerialized) {
  Harness s(llama::ModelConfig::Tiny());
  Program piped = s.Compile(compiler::CompilerOptions::SpeedLLM());
  compiler::CompilerOptions serial_opts = compiler::CompilerOptions::SpeedLLM();
  serial_opts.enable_pipeline = false;
  // Keep identical channel widths so only the overlap differs.
  serial_opts.serial_channels = serial_opts.weight_channels;
  Program serial = s.Compile(serial_opts);

  Executor a(piped, s.weights, s.u280), b(serial, s.weights, s.u280);
  for (std::int32_t pos = 0; pos < 4; ++pos) {
    ASSERT_TRUE(a.Forward(3, pos).ok());
    ASSERT_TRUE(b.Forward(3, pos).ok());
    EXPECT_LE(a.last_stats().cycles, b.last_stats().cycles) << "pos " << pos;
  }
}

TEST(ExecutorTest, PipelineOverlapsStationsSerializedDoesNot) {
  Harness s(llama::ModelConfig::Tiny());
  Program piped = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Program serial = s.Compile(compiler::CompilerOptions::Unoptimized());

  Executor a(piped, s.weights, s.u280);
  a.EnableTrace(true);
  ASSERT_TRUE(a.Forward(3, 0).ok());
  EXPECT_GT(a.trace().OverlappedCycles(), 0u);

  Executor b(serial, s.weights, s.u280);
  b.EnableTrace(true);
  ASSERT_TRUE(b.Forward(3, 0).ok());
  EXPECT_EQ(b.trace().OverlappedCycles(), 0u);
}

TEST(ExecutorTest, FusionReducesHbmBytesAndLaunches) {
  Harness s(llama::ModelConfig::Tiny());
  Program fused = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Program unfused = s.Compile(compiler::CompilerOptions::NoFuse());
  Executor a(fused, s.weights, s.u280), b(unfused, s.weights, s.u280);
  ASSERT_TRUE(a.Forward(3, 0).ok());
  ASSERT_TRUE(b.Forward(3, 0).ok());
  EXPECT_LT(a.last_stats().hbm_bytes, b.last_stats().hbm_bytes);
  EXPECT_LT(a.last_stats().launches, b.last_stats().launches);
}

TEST(ExecutorTest, AttentionCostGrowsWithPosition) {
  Harness s(llama::ModelConfig::Tiny());
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Executor exec(prog, s.weights, s.u280);
  ASSERT_TRUE(exec.Forward(3, 0).ok());
  std::uint64_t bytes_at_0 = exec.last_stats().hbm_bytes;
  for (std::int32_t pos = 1; pos < 40; ++pos) {
    ASSERT_TRUE(exec.Forward(3, pos).ok());
  }
  // KV streaming grows with the cache length.
  EXPECT_GT(exec.last_stats().hbm_bytes, bytes_at_0);
}

TEST(ExecutorTest, MakespanAtLeastCriticalStation) {
  Harness s(llama::ModelConfig::Tiny());
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Executor exec(prog, s.weights, s.u280);
  ASSERT_TRUE(exec.Forward(3, 0).ok());
  const auto& st = exec.last_stats();
  for (auto busy : st.unit_busy) {
    EXPECT_LE(busy, st.cycles);
  }
  EXPECT_GT(st.unit_busy[static_cast<std::size_t>(Unit::kMpe)], 0u);
  EXPECT_GT(st.unit_busy[static_cast<std::size_t>(Unit::kDmaIn)], 0u);
}

// ---------------- Energy invariants ----------------

TEST(ExecutorTest, EnergyBreakdownConsistent) {
  Harness s(llama::ModelConfig::Tiny());
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Executor exec(prog, s.weights, s.u280);
  ASSERT_TRUE(exec.Forward(3, 0).ok());
  const auto& st = exec.last_stats();
  EXPECT_GT(st.joules, 0.0);
  EXPECT_NEAR(st.joules, st.energy.total_j(), 1e-12);
  EXPECT_GT(st.energy.hbm_j, 0.0);
  EXPECT_GT(st.energy.mac_j, 0.0);
  EXPECT_GT(st.energy.static_j, 0.0);
  EXPECT_GT(st.seconds, 0.0);
}

TEST(ExecutorTest, HbmEnergyProportionalToBytes) {
  Harness s(llama::ModelConfig::Tiny());
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Executor exec(prog, s.weights, s.u280);
  ASSERT_TRUE(exec.Forward(3, 0).ok());
  const auto& st = exec.last_stats();
  double expected =
      s.u280.power.pj_per_hbm_byte * 1e-12 * static_cast<double>(st.hbm_bytes);
  EXPECT_NEAR(st.energy.hbm_j, expected, expected * 1e-9);
}

TEST(ExecutorTest, TotalStatsAccumulate) {
  Harness s(llama::ModelConfig::Tiny());
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Executor exec(prog, s.weights, s.u280);
  ASSERT_TRUE(exec.Forward(3, 0).ok());
  auto first = exec.last_stats();
  ASSERT_TRUE(exec.Forward(4, 1).ok());
  EXPECT_EQ(exec.total_stats().cycles,
            first.cycles + exec.last_stats().cycles);
  exec.ResetStats();
  EXPECT_EQ(exec.total_stats().cycles, 0u);
}

// ---------------- Per-position timing memo ----------------

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void ExpectSameStats(const TokenRunStats& a, const TokenRunStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(Bits(a.seconds), Bits(b.seconds));
  EXPECT_EQ(Bits(a.joules), Bits(b.joules));
  const hw::EnergyBreakdown& ea = a.energy;
  const hw::EnergyBreakdown& eb = b.energy;
  EXPECT_EQ(Bits(ea.hbm_j), Bits(eb.hbm_j));
  EXPECT_EQ(Bits(ea.bram_j), Bits(eb.bram_j));
  EXPECT_EQ(Bits(ea.mac_j), Bits(eb.mac_j));
  EXPECT_EQ(Bits(ea.sfu_j), Bits(eb.sfu_j));
  EXPECT_EQ(Bits(ea.launch_j), Bits(eb.launch_j));
  EXPECT_EQ(Bits(ea.unit_active_j), Bits(eb.unit_active_j));
  EXPECT_EQ(Bits(ea.unit_idle_j), Bits(eb.unit_idle_j));
  EXPECT_EQ(Bits(ea.static_j), Bits(eb.static_j));
  EXPECT_EQ(a.hbm_bytes, b.hbm_bytes);
  EXPECT_EQ(a.launches, b.launches);
  EXPECT_EQ(a.unit_busy, b.unit_busy);
}

void ExpectSameSpans(const std::vector<sim::TraceSpan>& a,
                     const std::vector<sim::TraceSpan>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].instr_id, b[i].instr_id);
    EXPECT_EQ(a[i].station, b[i].station);
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].end, b[i].end);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    EXPECT_EQ(a[i].ops, b[i].ops);
    EXPECT_EQ(a[i].label, b[i].label);
  }
}

TEST(ExecutorMemoTest, RepeatedPositionMatchesFreshExecutor) {
  Harness s(llama::ModelConfig::Tiny());
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  const std::int32_t kPositions = 6;

  // Each position priced by a fresh executor's first call.
  std::vector<TokenRunStats> fresh;
  for (std::int32_t pos = 0; pos < kPositions; ++pos) {
    Executor e(prog, s.weights, s.u280);
    ASSERT_TRUE(e.Forward(3, pos).ok());
    fresh.push_back(e.last_stats());
  }

  Executor exec(prog, s.weights, s.u280);
  TokenRunStats expected_total;
  for (std::int32_t round = 0; round < 3; ++round) {
    // Round 1 repeats the same positions after a reset; round 2 with
    // different tokens.
    if (round > 0) exec.ResetSequence();
    for (std::int32_t pos = 0; pos < kPositions; ++pos) {
      const std::int32_t token = round == 2 ? (pos * 97 + 5) % s.config.vocab_size : 3;
      ASSERT_TRUE(exec.Forward(token, pos).ok());
      SCOPED_TRACE("round " + std::to_string(round) + " pos " + std::to_string(pos));
      ExpectSameStats(exec.last_stats(), fresh[static_cast<std::size_t>(pos)]);
      expected_total += fresh[static_cast<std::size_t>(pos)];
      EXPECT_TRUE(exec.trace().spans().empty());
    }
  }
  ExpectSameStats(exec.total_stats(), expected_total);
}

TEST(ExecutorMemoTest, TraceAtPricedPositionRecordsSameSpans) {
  Harness s(llama::ModelConfig::Tiny());
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  const std::int32_t pos = 4;

  Executor first(prog, s.weights, s.u280);
  first.EnableTrace(true);
  ASSERT_TRUE(first.Forward(7, pos).ok());
  const std::vector<sim::TraceSpan> expected = first.trace().spans();
  ASSERT_FALSE(expected.empty());

  Executor exec(prog, s.weights, s.u280);
  ASSERT_TRUE(exec.Forward(7, pos).ok());  // prices `pos` untraced
  EXPECT_TRUE(exec.trace().spans().empty());
  exec.EnableTrace(true);
  ASSERT_TRUE(exec.Forward(9, pos).ok());
  ExpectSameSpans(exec.trace().spans(), expected);
  ExpectSameStats(exec.last_stats(), first.last_stats());

  // Tracing off again: the next call clears the trace and records nothing.
  exec.EnableTrace(false);
  ASSERT_TRUE(exec.Forward(9, pos).ok());
  EXPECT_TRUE(exec.trace().spans().empty());
}

TEST(ExecutorTest, RejectsOutOfRangeInputs) {
  Harness s(llama::ModelConfig::Tiny());
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Executor exec(prog, s.weights, s.u280);
  EXPECT_FALSE(exec.Forward(-1, 0).ok());
  EXPECT_FALSE(exec.Forward(s.config.vocab_size, 0).ok());
  EXPECT_FALSE(exec.Forward(0, s.config.seq_len).ok());
}

TEST(ExecutorTest, GqaModelRunsCorrectly) {
  // Tiny already uses GQA (4 heads, 2 kv heads); also try an asymmetric
  // configuration to stress the head mapping.
  llama::ModelConfig c = llama::ModelConfig::Tiny();
  c.n_heads = 8;
  c.n_kv_heads = 2;
  c.dim = 64;
  ASSERT_TRUE(c.Validate().ok());
  Harness s(c);
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Executor exec(prog, s.weights, s.u280);
  llama::ReferenceModel ref(s.weights, nullptr);
  for (std::int32_t pos = 0; pos < 6; ++pos) {
    auto a = exec.Forward(11, pos);
    auto r = ref.Forward(11, pos);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(MaxAbsDiff(*a, *r), 0.0f);
  }
}

}  // namespace
}  // namespace speedllm::accel
