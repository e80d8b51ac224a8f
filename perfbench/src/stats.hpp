// perfbench -- small statistics helpers shared by the benchmark and its tests.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "serving/request.hpp"

namespace perfbench {

/// Samples that must lie strictly beyond a percentile before it is
/// reported: a p99 needs at least 1000 samples, a p50 at least 20.
inline constexpr std::int64_t kMinSamplesBeyond = 10;

/// Median of `samples` (mean of the two middle values for even counts);
/// 0 for an empty sample.
double Median(std::vector<double> samples);

/// Nearest-rank percentile `p` (a fraction in (0, 1)) of `samples`, or
/// nullopt when fewer than kMinSamplesBeyond samples lie beyond it.
std::optional<double> SupportedPercentile(std::vector<double> samples,
                                          double p);

/// What the benchmark reports for percentile `p`: the percentile when the
/// sample supports it, otherwise the sample maximum (an upper bound on
/// every percentile), and 0 for an empty sample. `supported` says which.
double PercentileOrMax(const std::vector<double>& samples, double p,
                       bool* supported);

/// Fixed latency limits a request must meet to count as attaining.
struct SloLimits {
  double ttft_seconds = 0.0;  ///< time-to-first-token limit
  double tpot_seconds = 0.0;  ///< mean time-per-output-token limit
};

/// Share of `attempted` requests whose outcome finished normally (length
/// or stop) and met both limits. Requests that were rejected at submit,
/// shed, cancelled or never finished are missing from `outcomes` or carry
/// another finish reason, and count as misses.
double SloAttainment(std::span<const speedllm::serving::RequestOutcome> outcomes,
                     std::int64_t attempted, const SloLimits& limits);

/// FNV-1a 64-bit digest over every request's index and generated tokens,
/// in submission order: two runs with equal digests streamed the same
/// tokens to the same requests.
std::uint64_t StreamDigest(
    const std::vector<std::vector<std::int32_t>>& streams);

}  // namespace perfbench
