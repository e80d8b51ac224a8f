// SpeedLLM -- accelerator executor: functional simulation + cycle timing.
//
// Executes a compiled Program for one token at a time, as two separate
// passes. The functional pass runs every kCompute instruction in program
// order and produces the real numeric result (using the same float
// kernels as the CPU reference, so fp32 runs are bit-exact). The pricing
// pass schedules every instruction onto the U280 timing model: serial
// stations (DMA engines, MPE, SFU, control) plus the HBM channel model,
// with energy accumulated per activity and finalized per token. Pricing
// depends only on the program, the U280 config and the position, so its
// TokenRunStats are memoized per position; a traced Forward re-prices so
// its spans are recorded.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "accel/program.hpp"
#include "common/status.hpp"
#include "common/tensor.hpp"
#include "hw/hbm.hpp"
#include "hw/power.hpp"
#include "hw/u280_config.hpp"
#include "llama/weights.hpp"
#include "quant/quant.hpp"
#include "sim/station.hpp"
#include "sim/trace.hpp"

namespace speedllm::accel {

/// Timing/energy results for one Forward() call.
struct TokenRunStats {
  sim::Cycles cycles = 0;
  double seconds = 0.0;
  double joules = 0.0;
  hw::EnergyBreakdown energy;
  std::uint64_t hbm_bytes = 0;
  std::uint64_t launches = 0;
  std::array<sim::Cycles, static_cast<std::size_t>(Unit::kCount)> unit_busy{};

  TokenRunStats& operator+=(const TokenRunStats& o);
};

class Executor {
 public:
  /// `weights` must match program.model and outlive the executor.
  Executor(const Program& program, const llama::Weights& weights,
           const hw::U280Config& u280);

  /// Clears the KV cache (start of a new sequence).
  void ResetSequence();

  /// Runs the program for `token` at `pos`. Returns the logits view
  /// (valid until the next Forward call). Timing/energy for this token
  /// land in last_stats(); totals accumulate until ResetStats().
  StatusOr<std::span<const float>> Forward(std::int32_t token,
                                           std::int32_t pos);

  const TokenRunStats& last_stats() const { return last_stats_; }
  const TokenRunStats& total_stats() const { return total_stats_; }
  void ResetStats();

  /// Enables span tracing for the next Forward call (test/bench use).
  void EnableTrace(bool on) { trace_.set_enabled(on); }
  const sim::TraceRecorder& trace() const { return trace_; }

  const Program& program() const { return *program_; }

 private:
  // Functional helpers.
  void ExecuteCompute(const Instr& instr, std::int32_t token,
                      std::int32_t pos);
  TensorF& Buffer(graph::ValueId v);
  std::span<const float> WeightSpan(graph::ValueId v) const;

  // Schedules every instruction at `pos` on fresh stations, HBM and energy
  // meter; records one span per instruction when tracing is enabled.
  TokenRunStats Price(std::int32_t pos);

  // Scales a worst-case quantity by (pos+1)/seq_len for seq-scaled work.
  std::uint64_t SeqScale(std::uint64_t amount, bool scaled,
                         std::int32_t pos) const;

  const Program* program_;
  const llama::Weights* weights_;
  hw::U280Config u280_;

  // Weight value id -> flat fp32 span.
  std::map<graph::ValueId, std::span<const float>> weight_map_;
  // Quantized copies for the int8 datapath (built lazily at construction).
  std::map<graph::ValueId, quant::QuantizedTensor> quant_map_;

  // Activation / KV-cache storage indexed by ValueId.
  std::vector<TensorF> store_;

  // Price(pos) per position, filled on first use (seq_len entries).
  std::vector<std::optional<TokenRunStats>> priced_;

  TokenRunStats last_stats_;
  TokenRunStats total_stats_;
  sim::TraceRecorder trace_;
};

}  // namespace speedllm::accel
