// Unit tests for the token samplers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "llama/kernels.hpp"
#include "llama/sampler.hpp"

namespace speedllm::llama {
namespace {

TEST(SamplerTest, ArgMaxPicksLargest) {
  std::vector<float> logits = {0.1f, 2.0f, -1.0f, 1.9f};
  EXPECT_EQ(Sampler::ArgMax(logits), 1);
}

TEST(SamplerTest, ArgMaxFirstOnTies) {
  std::vector<float> logits = {1.0f, 2.0f, 2.0f};
  EXPECT_EQ(Sampler::ArgMax(logits), 1);
}

TEST(SamplerTest, TemperatureZeroIsGreedy) {
  SamplerConfig cfg;
  cfg.temperature = 0.0f;
  Sampler s(cfg);
  std::vector<float> logits = {0.0f, 5.0f, 1.0f};
  for (int i = 0; i < 10; ++i) {
    auto copy = logits;
    EXPECT_EQ(s.Sample(copy), 1);
  }
}

TEST(SamplerTest, DeterministicBySeed) {
  SamplerConfig cfg;
  cfg.temperature = 1.0f;
  cfg.top_p = 0.9f;
  cfg.seed = 123;
  Sampler a(cfg), b(cfg);
  std::vector<float> logits = {1.0f, 1.2f, 0.8f, 1.1f, 0.5f};
  for (int i = 0; i < 50; ++i) {
    auto la = logits, lb = logits;
    EXPECT_EQ(a.Sample(la), b.Sample(lb));
  }
}

TEST(SamplerTest, MultinomialFollowsDistribution) {
  SamplerConfig cfg;
  cfg.temperature = 1.0f;
  cfg.top_p = 1.0f;  // plain multinomial
  cfg.seed = 7;
  Sampler s(cfg);
  // logits chosen so softmax ~ [0.09, 0.24, 0.67]
  std::vector<float> base = {0.0f, 1.0f, 2.0f};
  std::map<int, int> counts;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    auto logits = base;
    counts[s.Sample(logits)]++;
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(kDraws), 0.09, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(kDraws), 0.245, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(kDraws), 0.665, 0.02);
}

TEST(SamplerTest, TopPExcludesTail) {
  SamplerConfig cfg;
  cfg.temperature = 1.0f;
  cfg.top_p = 0.5f;
  cfg.seed = 11;
  Sampler s(cfg);
  // One dominant token (softmax mass ~0.84); nucleus of 0.5 = {2} only.
  std::vector<float> base = {0.0f, 0.0f, 3.0f};
  for (int i = 0; i < 200; ++i) {
    auto logits = base;
    EXPECT_EQ(s.Sample(logits), 2);
  }
}

TEST(SamplerTest, TopPOneIsUnrestricted) {
  SamplerConfig cfg;
  cfg.temperature = 1.0f;
  cfg.top_p = 1.0f;
  cfg.seed = 13;
  Sampler s(cfg);
  std::vector<float> base = {1.0f, 1.0f, 1.0f};
  std::map<int, int> counts;
  for (int i = 0; i < 3000; ++i) {
    auto logits = base;
    counts[s.Sample(logits)]++;
  }
  // All three tokens reachable.
  EXPECT_EQ(counts.size(), 3u);
}

TEST(SamplerTest, HighTemperatureFlattens) {
  SamplerConfig hot;
  hot.temperature = 100.0f;
  hot.top_p = 1.0f;
  hot.seed = 17;
  Sampler s(hot);
  std::vector<float> base = {0.0f, 4.0f};
  int ones = 0;
  const int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) {
    auto logits = base;
    ones += s.Sample(logits) == 1 ? 1 : 0;
  }
  // At T=100 the distribution is near uniform.
  EXPECT_NEAR(ones / static_cast<double>(kDraws), 0.5, 0.03);
}

TEST(SamplerTest, SingleTokenVocab) {
  SamplerConfig cfg;
  cfg.temperature = 1.0f;
  Sampler s(cfg);
  std::vector<float> logits = {0.3f};
  EXPECT_EQ(s.Sample(logits), 0);
}

// ---------------- Top-p order oracle ----------------

// The comparison-sort nucleus sampler: candidates over the llama2.c
// cutoff, sorted by descending probability with ties in ascending index.
std::int32_t OracleTopP(std::span<const float> probs, float coin, float top_p) {
  std::vector<std::int32_t> idx(probs.size());
  std::iota(idx.begin(), idx.end(), 0);
  const float cutoff =
      (1.0f - top_p) / static_cast<float>(probs.size() > 1 ? probs.size() - 1 : 1);
  idx.erase(std::remove_if(idx.begin(), idx.end(),
                           [&](std::int32_t i) { return probs[i] < cutoff; }),
            idx.end());
  std::sort(idx.begin(), idx.end(), [&](std::int32_t a, std::int32_t b) {
    if (probs[a] != probs[b]) return probs[a] > probs[b];
    return a < b;
  });
  float cumulative = 0.0f;
  std::size_t last = idx.size();
  for (std::size_t i = 0; i < idx.size(); ++i) {
    cumulative += probs[idx[i]];
    if (cumulative > top_p) {
      last = i + 1;
      break;
    }
  }
  float r = coin * cumulative;
  float cdf = 0.0f;
  for (std::size_t i = 0; i < last; ++i) {
    cdf += probs[idx[i]];
    if (r < cdf) return idx[i];
  }
  return idx.empty() ? 0 : idx[last - 1];
}

/// Sampler::Sample's pipeline with OracleTopP in place of the sampler's own.
class OracleSampler {
 public:
  explicit OracleSampler(SamplerConfig config)
      : config_(config), rng_(config.seed) {}

  std::int32_t Sample(std::span<float> logits) {
    for (float& v : logits) v /= config_.temperature;
    Softmax(logits);
    return OracleTopP(logits, rng_.NextFloat(), config_.top_p);
  }

 private:
  SamplerConfig config_;
  Rng rng_;
};

enum class LogitShape { kFlat, kPeaked, kTied };

std::vector<float> MakeLogits(std::size_t vocab, LogitShape shape, Rng& rng) {
  std::vector<float> logits(vocab);
  for (float& v : logits) {
    const float g = rng.NextGaussian();
    switch (shape) {
      case LogitShape::kFlat: v = 0.05f * g; break;
      case LogitShape::kPeaked: v = 3.0f * g; break;
      // Four logit levels: equal logits soft-max to equal probabilities.
      case LogitShape::kTied: v = std::floor(std::clamp(g, -2.0f, 1.9f)); break;
    }
  }
  if (shape == LogitShape::kPeaked) logits[rng.NextBounded(vocab)] += 8.0f;
  return logits;
}

TEST(SamplerTest, TopPMatchesComparisonSortOracle) {
  std::int64_t draws = 0;
  for (std::size_t vocab : {1, 2, 3, 5, 512, 32000}) {
    const int per_case = vocab > 512 ? 8 : 300;
    for (LogitShape shape :
         {LogitShape::kFlat, LogitShape::kPeaked, LogitShape::kTied}) {
      for (float top_p : {0.1f, 0.5f, 0.9f, 0.99f}) {
        SamplerConfig cfg;
        cfg.temperature = 0.8f;
        cfg.top_p = top_p;
        cfg.seed = 1000 + vocab + static_cast<std::uint64_t>(top_p * 100);
        Sampler sampler(cfg);
        OracleSampler oracle(cfg);
        Rng inputs(cfg.seed ^ 0x5eed);
        for (int i = 0; i < per_case; ++i) {
          auto a = MakeLogits(vocab, shape, inputs);
          auto b = a;
          ASSERT_EQ(sampler.Sample(a), oracle.Sample(b))
              << "vocab " << vocab << " shape " << static_cast<int>(shape)
              << " top_p " << top_p << " draw " << i;
          ++draws;
        }
      }
    }
  }
  EXPECT_GT(draws, 10000);
}

}  // namespace
}  // namespace speedllm::llama
