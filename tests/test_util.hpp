// Shared test helpers: seeded-harness banners, trace projections and
// FNV-1a digests.
//
// The one rule every seeded suite follows: a failure must print the RNG
// seed that produced it, so the exact failing run can be replayed by
// pasting the seed back into the harness. SPEEDLLM_SEED_TRACE is a
// SCOPED_TRACE wrapper -- any gtest assertion that fires inside the
// enclosing scope automatically carries the harness name and seed in its
// failure message, with zero cost on the passing path.
#ifndef SPEEDLLM_TESTS_TEST_UTIL_HPP_
#define SPEEDLLM_TESTS_TEST_UTIL_HPP_

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/telemetry.hpp"

namespace speedllm::testutil {

/// The canonical replay banner for a seeded harness failure. Keep the
/// format stable ("<harness> seed=<n>"): people grep CI logs for it.
inline std::string SeedMessage(const char* harness, std::uint64_t seed) {
  return std::string(harness) + " seed=" + std::to_string(seed) +
         " -- replay by running this harness with this seed";
}

/// One shard tick's batch composition, projected from a telemetry trace.
struct TickComposition {
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  std::vector<std::size_t> decode_streams;   ///< streams decoded this tick
  std::vector<std::size_t> prefill_streams;  ///< streams prefilled this tick
  std::int32_t prefill_tokens = 0;           ///< prompt tokens prefilled
};

/// Card `card`'s ticks in clock order, from the kTick events and the
/// kDecodeToken / kPrefillChunk events recorded right after each one.
inline std::vector<TickComposition> TicksFromTrace(
    const std::vector<obs::RequestEvent>& events, std::int32_t card = 0) {
  std::vector<TickComposition> ticks;
  for (const obs::RequestEvent& e : events) {
    if (e.card != card) continue;
    const auto stream = static_cast<std::size_t>(e.stream);
    if (e.kind == obs::RequestEventKind::kTick) {
      ticks.push_back({e.start_seconds, e.end_seconds, {}, {}, 0});
    } else if (e.kind == obs::RequestEventKind::kDecodeToken) {
      ticks.back().decode_streams.push_back(stream);
    } else if (e.kind == obs::RequestEventKind::kPrefillChunk) {
      ticks.back().prefill_streams.push_back(stream);
      ticks.back().prefill_tokens += static_cast<std::int32_t>(e.tokens);
    }
  }
  return ticks;
}

/// FNV-1a, for digests that pin a result across versions of the code.
/// Integers are mixed as 8 little-endian bytes; strings as their length
/// then their bytes.
class Fnv1a {
 public:
  void U64(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (8 * byte)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void Str(std::string_view s) {
    U64(s.size());
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace speedllm::testutil

/// Marks the current scope with the harness name and RNG seed: every
/// assertion failure inside it prints the seed needed to replay the run.
#define SPEEDLLM_SEED_TRACE(harness, seed) \
  SCOPED_TRACE(::speedllm::testutil::SeedMessage(harness, seed))

#endif  // SPEEDLLM_TESTS_TEST_UTIL_HPP_
