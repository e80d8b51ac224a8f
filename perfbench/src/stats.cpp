#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<double> SupportedPercentile(std::vector<double> samples,
                                          double p) {
  const auto n = static_cast<std::int64_t>(samples.size());
  if (n == 0) return std::nullopt;
  // Nearest rank: the smallest value with at least p*n samples at or
  // below it. Everything after that rank lies beyond the percentile.
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(p * static_cast<double>(n))));
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[static_cast<std::size_t>(rank - 1)];
}

double PercentileOrMax(const std::vector<double>& samples, double p,
                       bool* supported) {
  const std::optional<double> value = SupportedPercentile(samples, p);
  if (supported != nullptr) *supported = value.has_value();
  if (value) return *value;
  return samples.empty() ? 0.0
                         : *std::max_element(samples.begin(), samples.end());
}

double SloAttainment(std::span<const speedllm::serving::RequestOutcome> outcomes,
                     std::int64_t attempted, const SloLimits& limits) {
  if (attempted <= 0) return 0.0;
  const speedllm::serving::TierSlo slo{limits.ttft_seconds,
                                       limits.tpot_seconds};
  std::int64_t met = 0;
  for (const auto& outcome : outcomes) met += outcome.attains(slo) ? 1 : 0;
  return static_cast<double>(met) / static_cast<double>(attempted);
}

std::uint64_t StreamDigest(
    const std::vector<std::vector<std::int32_t>>& streams) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (std::size_t i = 0; i < streams.size(); ++i) {
    mix(i);
    mix(streams[i].size());
    for (std::int32_t token : streams[i]) {
      mix(static_cast<std::uint32_t>(token));
    }
  }
  return h;
}

}  // namespace perfbench
