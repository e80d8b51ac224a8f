// SpeedLLM -- compiled accelerator program.
//
// The compiler's output: a static instruction list plus the execution
// parameters the timing model needs. One Program is compiled per variant
// and reused for every token (sequence-dependent costs are rescaled by
// the executor from the runtime position).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "accel/isa.hpp"
#include "graph/graph.hpp"
#include "llama/config.hpp"

namespace speedllm::accel {

/// Execution-time parameters (distilled from compiler::CompilerOptions so
/// the accelerator library does not depend on the compiler).
struct ExecConfig {
  std::string variant_name = "SpeedLLM";
  bool pipeline = true;      // overlapped stations, double buffering
  bool fusion = true;        // informational (already baked into instrs)
  bool memory_reuse = true;  // informational

  std::int64_t mpe_macs_per_cycle = 512;
  std::uint32_t mpe_fill_cycles = 32;
  std::int64_t sfu_lanes = 16;
  std::uint32_t sfu_fill_cycles = 16;
  std::uint32_t kernel_launch_cycles = 600;
  std::uint32_t dma_setup_cycles = 24;

  bool int8_weights = false;
};

/// Static per-program statistics the compiler fills in.
struct ProgramStats {
  std::uint64_t num_groups = 0;        // kernel launches per token
  std::uint64_t num_instrs = 0;
  std::uint64_t onchip_peak_bytes = 0;  // buffer arena high-water mark
  std::uint64_t onchip_budget_bytes = 0;
  std::uint64_t weight_stream_bytes = 0;  // weight bytes loaded per token
  std::uint64_t act_spill_bytes = 0;      // activation HBM round-trip bytes
  std::int64_t min_tile_rows = 0;         // smallest matmul tile selected
};

struct Program {
  llama::ModelConfig model;
  ExecConfig exec;
  graph::DecodeGraph dg;

  std::vector<Instr> instrs;
  std::vector<BufferAlloc> buffers;
  std::vector<TileInfo> tiles;  // one per matmul op
  ProgramStats stats;
};

}  // namespace speedllm::accel
