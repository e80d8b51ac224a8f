// SpeedLLM -- the graph-to-accelerator compiler.
//
// Compile runs four named passes (src/compiler/compiler.cpp):
//   1. build and fuse -- build the decode graph and partition it into
//      fused groups (fusion.hpp);
//   2. fit tiles      -- pick matmul tile sizes under the on-chip budget,
//      shrinking until the buffer allocation fits (allocator.hpp; this is
//      where disabling memory reuse hurts);
//   3. emit           -- lower each group to launch, load, compute and
//      store instructions with data and double-buffer dependencies;
//   4. buffers, stats and ledger -- record the buffer placements and
//      per-token stats and charge the resource ledger.
// CompilerTest.ProgramDigestsArePinned pins every compiled Program, so a
// change to any pass that moves a single field shows up there.
#pragma once

#include "accel/program.hpp"
#include "common/status.hpp"
#include "compiler/options.hpp"
#include "hw/resources.hpp"
#include "hw/u280_config.hpp"

namespace speedllm::compiler {

/// Compilation artifacts beyond the program itself.
struct CompileResult {
  accel::Program program;
  hw::ResourceLedger ledger;  // post-compilation utilization
};

/// Compiles a decode-step program for `config` under `options` targeting
/// `u280`. Fails with kResourceExhausted when even minimal tiles cannot
/// satisfy the on-chip budget.
StatusOr<CompileResult> Compile(const llama::ModelConfig& config,
                                const CompilerOptions& options,
                                const hw::U280Config& u280);

}  // namespace speedllm::compiler
