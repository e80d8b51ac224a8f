#include "llama/sampler.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <utility>
#include <vector>

#include "llama/kernels.hpp"

namespace speedllm::llama {

std::int32_t Sampler::ArgMax(std::span<const float> logits) {
  assert(!logits.empty());
  std::int32_t best = 0;
  for (std::size_t i = 1; i < logits.size(); ++i) {
    if (logits[i] > logits[best]) best = static_cast<std::int32_t>(i);
  }
  return best;
}

std::int32_t Sampler::SampleMultinomial(std::span<const float> probs,
                                        float coin) {
  float cdf = 0.0f;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    cdf += probs[i];
    if (coin < cdf) return static_cast<std::int32_t>(i);
  }
  return static_cast<std::int32_t>(probs.size()) - 1;  // rounding fallback
}

std::int32_t Sampler::SampleTopP(std::span<const float> probs, float coin) {
  // Sort candidate indices by descending probability, truncate at the
  // smallest set whose mass exceeds top_p, then sample within it.
  const float top_p = config_.top_p;
  // Cutoff trick from llama2.c: tokens with prob < (1-p)/(n-1) can never
  // be part of the nucleus; filter before the sort.
  const float cutoff =
      (1.0f - top_p) / static_cast<float>(probs.size() > 1 ? probs.size() - 1 : 1);
  // Key = (~float_bits(prob) << 32) | index. Probabilities are finite and
  // non-negative, so their bits order like their values and ascending keys
  // mean descending probability, ties in ascending index. Candidates go in
  // by ascending index, so a stable LSD radix sort over the high 32 bits
  // yields exactly that order.
  std::vector<std::uint64_t> keys;
  keys.reserve(probs.size());
  for (std::size_t i = 0; i < probs.size(); ++i) {
    if (probs[i] < cutoff) continue;
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(probs[i]);
    keys.push_back((static_cast<std::uint64_t>(~bits) << 32) | i);
  }
  std::array<std::array<std::uint32_t, 256>, 4> hist{};
  for (std::uint64_t k : keys) {
    for (int d = 0; d < 4; ++d) ++hist[d][(k >> (32 + 8 * d)) & 0xff];
  }
  std::vector<std::uint64_t> tmp(keys.size());
  for (int d = 0; d < 4; ++d) {
    auto& h = hist[d];
    // A digit every key shares leaves the order as it is.
    if (std::find(h.begin(), h.end(), keys.size()) != h.end()) continue;
    std::uint32_t offset = 0;
    for (std::uint32_t& c : h) offset += std::exchange(c, offset);
    for (std::uint64_t k : keys) tmp[h[(k >> (32 + 8 * d)) & 0xff]++] = k;
    keys.swap(tmp);
  }
  auto index = [&](std::size_t i) {
    return static_cast<std::int32_t>(keys[i] & 0xffffffffu);
  };
  float cumulative = 0.0f;
  std::size_t last = keys.size();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    cumulative += probs[index(i)];
    if (cumulative > top_p) {
      last = i + 1;
      break;
    }
  }
  float r = coin * cumulative;
  float cdf = 0.0f;
  for (std::size_t i = 0; i < last; ++i) {
    cdf += probs[index(i)];
    if (r < cdf) return index(i);
  }
  return keys.empty() ? 0 : index(last - 1);
}

std::int32_t Sampler::Sample(std::span<float> logits) {
  if (config_.temperature == 0.0f) {
    return ArgMax(logits);
  }
  for (float& v : logits) v /= config_.temperature;
  Softmax(logits);
  float coin = rng_.NextFloat();
  if (config_.top_p <= 0.0f || config_.top_p >= 1.0f) {
    return SampleMultinomial(logits, coin);
  }
  return SampleTopP(logits, coin);
}

}  // namespace speedllm::llama
