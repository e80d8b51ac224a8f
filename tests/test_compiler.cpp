// Unit tests for the graph-to-accelerator compiler.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string_view>

#include "compiler/compiler.hpp"
#include "quant/quant.hpp"
#include "runtime/variants.hpp"
#include "test_util.hpp"

namespace speedllm::compiler {
namespace {

using accel::Instr;
using accel::Opcode;
using accel::Unit;

CompileResult MustCompile(const llama::ModelConfig& config,
                          const CompilerOptions& options) {
  auto r = Compile(config, options, hw::U280Config::Default());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(CompilerTest, AllVariantsCompileForAllPresets) {
  for (auto config :
       {llama::ModelConfig::Tiny(), llama::ModelConfig::Stories15M()}) {
    for (auto v :
         {runtime::Variant::kUnoptimized, runtime::Variant::kNoPipeline,
          runtime::Variant::kNoFuse, runtime::Variant::kSpeedLLM,
          runtime::Variant::kNoReuse}) {
      auto r = Compile(config, runtime::OptionsFor(v),
                       hw::U280Config::Default());
      EXPECT_TRUE(r.ok()) << runtime::VariantName(v) << ": "
                          << r.status().ToString();
    }
  }
}

TEST(CompilerTest, DepsAlwaysReferEarlierInstrs) {
  for (auto v : {runtime::Variant::kUnoptimized, runtime::Variant::kSpeedLLM}) {
    auto cr = MustCompile(llama::ModelConfig::Tiny(), runtime::OptionsFor(v));
    for (const Instr& in : cr.program.instrs) {
      for (auto d : in.deps) {
        EXPECT_LT(d, in.id) << "instr " << in.label;
      }
    }
  }
}

TEST(CompilerTest, LaunchCountMatchesGroups) {
  auto config = llama::ModelConfig::Tiny();
  auto cr = MustCompile(config, CompilerOptions::SpeedLLM());
  std::uint64_t launches = 0;
  for (const Instr& in : cr.program.instrs) {
    if (in.opcode == Opcode::kLaunch) ++launches;
  }
  EXPECT_EQ(launches, cr.program.stats.num_groups);
  // Fused: embed + 4 per layer + head.
  EXPECT_EQ(launches, static_cast<std::uint64_t>(1 + 4 * config.n_layers + 1));
}

TEST(CompilerTest, UnfusedHasOneGroupPerOp) {
  auto config = llama::ModelConfig::Tiny();
  auto cr = MustCompile(config, CompilerOptions::Unoptimized());
  EXPECT_EQ(cr.program.stats.num_groups,
            static_cast<std::uint64_t>(1 + 18 * config.n_layers + 2));
}

TEST(CompilerTest, SerializedScheduleChainsEverything) {
  auto cr =
      MustCompile(llama::ModelConfig::Tiny(), CompilerOptions::Unoptimized());
  const auto& instrs = cr.program.instrs;
  for (std::size_t i = 1; i < instrs.size(); ++i) {
    bool chained = false;
    for (auto d : instrs[i].deps) {
      if (d == instrs[i - 1].id) chained = true;
    }
    EXPECT_TRUE(chained) << "instr " << i << " not chained";
  }
}

TEST(CompilerTest, WeightStreamBytesMatchParamBytes) {
  auto config = llama::ModelConfig::Tiny();
  auto cr = MustCompile(config, CompilerOptions::SpeedLLM());
  // Per token we stream every layer weight + gains + the full classifier
  // matrix (the shared embedding, vocab x dim) + one embedding row.
  // num_params counts the shared embedding exactly once, so the stream is
  // params + one extra dim-row.
  std::uint64_t expected =
      static_cast<std::uint64_t>(config.num_params()) * 4 +
      static_cast<std::uint64_t>(config.dim) * 4;
  EXPECT_EQ(cr.program.stats.weight_stream_bytes, expected);
}

TEST(CompilerTest, FusionReducesActivationSpills) {
  auto config = llama::ModelConfig::Tiny();
  auto fused = MustCompile(config, CompilerOptions::SpeedLLM());
  auto unfused = MustCompile(config, CompilerOptions::NoFuse());
  EXPECT_LT(fused.program.stats.act_spill_bytes,
            unfused.program.stats.act_spill_bytes);
}

TEST(CompilerTest, ReuseShrinksFootprint) {
  auto config = llama::ModelConfig::Stories15M();
  auto with = MustCompile(config, CompilerOptions::SpeedLLM());
  auto without = MustCompile(config, CompilerOptions::NoReuse());
  EXPECT_LT(with.program.stats.onchip_peak_bytes,
            without.program.stats.onchip_peak_bytes);
}

TEST(CompilerTest, TinyBudgetForcesTileShrinkOrFails) {
  auto config = llama::ModelConfig::Stories15M();
  CompilerOptions opt = CompilerOptions::SpeedLLM();
  auto normal = MustCompile(config, opt);

  opt.onchip_budget_fraction = 0.004;  // ~180 KiB: heavy pressure
  auto r = Compile(config, opt, hw::U280Config::Default());
  if (r.ok()) {
    EXPECT_LT(r->program.stats.min_tile_rows,
              normal.program.stats.min_tile_rows);
  } else {
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(CompilerTest, ImpossibleBudgetFailsCleanly) {
  CompilerOptions opt = CompilerOptions::SpeedLLM();
  opt.onchip_budget_fraction = 1e-7;  // a few bytes
  auto r = Compile(llama::ModelConfig::Tiny(), opt,
                   hw::U280Config::Default());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(CompilerTest, ResourceLedgerWithinCapacity) {
  auto cr = MustCompile(llama::ModelConfig::Stories15M(),
                        CompilerOptions::SpeedLLM());
  for (auto res : {hw::Resource::kLut, hw::Resource::kFf, hw::Resource::kDsp,
                   hw::Resource::kBramBlock, hw::Resource::kUramBlock}) {
    EXPECT_LE(cr.ledger.used(res), cr.ledger.capacity(res));
  }
  EXPECT_GT(cr.ledger.used(hw::Resource::kDsp), 0u);
  EXPECT_GT(cr.ledger.used(hw::Resource::kBramBlock) +
                cr.ledger.used(hw::Resource::kUramBlock),
            0u);
}

TEST(CompilerTest, Int8ShrinksWeightStream) {
  auto config = llama::ModelConfig::Tiny();
  CompilerOptions fp32 = CompilerOptions::SpeedLLM();
  CompilerOptions int8 = CompilerOptions::SpeedLLM();
  int8.int8_weights = true;
  auto a = MustCompile(config, fp32);
  auto b = MustCompile(config, int8);
  // int8 payload is ~4x smaller (plus scales).
  EXPECT_LT(b.program.stats.weight_stream_bytes,
            a.program.stats.weight_stream_bytes / 3);
  EXPECT_TRUE(b.program.exec.int8_weights);
}

// The weight DMA the compiler charges for an int8 matmul is exactly the
// quantized payload the executor holds: int8 rows plus one scale per
// group of quant::PickGroupSize(k) (48 for Stories15M's k = 288).
TEST(CompilerTest, Int8WeightDmaMatchesQuantizedPayload) {
  for (auto config :
       {llama::ModelConfig::Tiny(), llama::ModelConfig::Stories15M()}) {
    for (auto v :
         {runtime::Variant::kUnoptimized, runtime::Variant::kSpeedLLM}) {
      CompilerOptions opt = runtime::OptionsFor(v);
      opt.int8_weights = true;
      auto cr = MustCompile(config, opt);
      std::map<graph::OpId, std::uint64_t> charged;
      for (const Instr& in : cr.program.instrs) {
        if (in.opcode == Opcode::kDmaLoad && in.op >= 0 &&
            cr.program.dg.graph.op(in.op).kind == graph::OpKind::kMatMul) {
          charged[in.op] += in.bytes;
        }
      }
      for (const auto& op : cr.program.dg.graph.ops()) {
        if (op.kind != graph::OpKind::kMatMul) continue;
        const std::vector<float> w(static_cast<std::size_t>(op.m * op.k));
        auto qt = quant::Quantize(w, Shape{op.m, op.k},
                                  quant::PickGroupSize(op.k));
        ASSERT_TRUE(qt.ok());
        EXPECT_EQ(charged[op.id], qt->payload_bytes())
            << config.ToString() << " " << op.name;
      }
    }
  }
}

TEST(CompilerTest, PipelineVariantDoubleBuffers) {
  auto with = MustCompile(llama::ModelConfig::Tiny(),
                          CompilerOptions::SpeedLLM());
  auto without = MustCompile(llama::ModelConfig::Tiny(),
                             CompilerOptions::NoPipeline());
  for (const auto& t : with.program.tiles) EXPECT_EQ(t.num_buffers, 2);
  for (const auto& t : without.program.tiles) EXPECT_EQ(t.num_buffers, 1);
}

TEST(CompilerTest, KvStreamsAreSeqScaled) {
  auto cr = MustCompile(llama::ModelConfig::Tiny(),
                        CompilerOptions::SpeedLLM());
  int seq_scaled_loads = 0;
  for (const Instr& in : cr.program.instrs) {
    if (in.opcode == Opcode::kDmaLoad && in.seq_scaled) ++seq_scaled_loads;
  }
  // One K stream + one V stream per layer.
  EXPECT_EQ(seq_scaled_loads, 2 * llama::ModelConfig::Tiny().n_layers);
}

TEST(CompilerTest, ChannelAssignmentsWithinStack) {
  for (auto v : {runtime::Variant::kUnoptimized, runtime::Variant::kSpeedLLM}) {
    auto cr = MustCompile(llama::ModelConfig::Tiny(), runtime::OptionsFor(v));
    const int channels = hw::U280Config::Default().hbm.num_channels;
    for (const Instr& in : cr.program.instrs) {
      if (in.opcode == Opcode::kDmaLoad || in.opcode == Opcode::kDmaStore) {
        EXPECT_GE(in.channel_first, 0);
        EXPECT_GT(in.channel_count, 0);
        EXPECT_LE(in.channel_first + in.channel_count, channels);
      }
    }
  }
}

TEST(CompilerTest, StoresUseSingleEngineWhenSerialized) {
  auto cr = MustCompile(llama::ModelConfig::Tiny(),
                        CompilerOptions::Unoptimized());
  for (const Instr& in : cr.program.instrs) {
    if (in.opcode == Opcode::kDmaStore) {
      EXPECT_EQ(in.unit, Unit::kDmaIn);  // one shared AXI master
    }
  }
  auto piped =
      MustCompile(llama::ModelConfig::Tiny(), CompilerOptions::SpeedLLM());
  bool any_out = false;
  for (const Instr& in : piped.program.instrs) {
    if (in.opcode == Opcode::kDmaStore) {
      EXPECT_EQ(in.unit, Unit::kDmaOut);
      any_out = true;
    }
  }
  EXPECT_TRUE(any_out);
}

// Enums are hashed by name, never by integer value, so reordering or
// deleting an enumerator cannot move a digest on its own.
std::string_view OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kLaunch: return "launch";
    case Opcode::kDmaLoad: return "load";
    case Opcode::kDmaStore: return "store";
    case Opcode::kCompute: return "compute";
  }
  return "?";
}

std::string_view ComputeKindName(accel::ComputeKind k) {
  using accel::ComputeKind;
  switch (k) {
    case ComputeKind::kNone: return "none";
    case ComputeKind::kEmbedCopy: return "embed_copy";
    case ComputeKind::kMatMulTile: return "matmul_tile";
    case ComputeKind::kRmsNorm: return "rmsnorm";
    case ComputeKind::kRope: return "rope";
    case ComputeKind::kKvWrite: return "kv_write";
    case ComputeKind::kAttScores: return "att_scores";
    case ComputeKind::kSoftmax: return "softmax";
    case ComputeKind::kAttMix: return "att_mix";
    case ComputeKind::kSilu: return "silu";
    case ComputeKind::kEltAdd: return "add";
    case ComputeKind::kEltMul: return "mul";
  }
  return "?";
}

std::string_view ValueKindName(graph::ValueKind k) {
  switch (k) {
    case graph::ValueKind::kWeight: return "weight";
    case graph::ValueKind::kActivation: return "activation";
    case graph::ValueKind::kKvCache: return "kv_cache";
    case graph::ValueKind::kOutput: return "output";
  }
  return "?";
}

void HashGraph(const graph::DecodeGraph& dg, testutil::Fnv1a& h) {
  for (const auto& v : dg.graph.values()) {
    h.I64(v.id);
    h.Str(v.name);
    h.Str(ValueKindName(v.kind));
    h.Str(v.dtype == graph::DType::kF32 ? "f32" : "int8");
    h.I64(v.elements);
  }
  for (const auto& op : dg.graph.ops()) {
    h.I64(op.id);
    h.Str(graph::OpKindName(op.kind));
    h.Str(op.name);
    h.I64(op.layer);
    h.U64(op.inputs.size());
    for (auto in : op.inputs) h.I64(in);
    h.U64(op.outputs.size());
    for (auto out : op.outputs) h.I64(out);
    h.I64(op.m);
    h.I64(op.k);
    h.I64(op.n_heads);
    h.I64(op.head_dim);
  }
  for (auto id : {dg.token_embedding, dg.rms_final, dg.wcls, dg.x, dg.logits}) {
    h.I64(id);
  }
  for (const auto& l : dg.layers) {
    for (auto id : {l.rms_att, l.wq, l.wk, l.wv, l.wo, l.rms_ffn, l.w1, l.w2,
                    l.w3, l.k_cache, l.v_cache}) {
      h.I64(id);
    }
  }
}

/// Digest of everything Compile decides: the decode graph, every
/// instruction field, tiles, buffers, stats, exec parameters and the
/// resource ledger (its report and per-tag usage).
std::uint64_t ProgramDigest(const CompileResult& cr) {
  const accel::Program& p = cr.program;
  testutil::Fnv1a h;
  h.Str(p.model.ToString());
  HashGraph(p.dg, h);
  for (const Instr& in : p.instrs) {
    h.U64(in.id);
    h.Str(OpcodeName(in.opcode));
    h.Str(accel::UnitName(in.unit));
    h.I64(in.op);
    h.I64(in.group);
    h.I64(in.value);
    h.U64(in.bytes);
    h.I64(in.channel_first);
    h.I64(in.channel_count);
    h.Str(ComputeKindName(in.compute));
    h.I64(in.row_begin);
    h.I64(in.row_end);
    h.I64(in.macs);
    h.I64(in.sfu_ops);
    h.U64(in.onchip_bytes);
    h.U64(in.seq_scaled ? 1 : 0);
    h.U64(in.deps.size());
    for (auto d : in.deps) h.U64(d);
    h.Str(in.label);
  }
  for (const auto& t : p.tiles) {
    h.I64(t.op);
    h.I64(t.rows_per_tile);
    h.I64(t.num_tiles);
    h.U64(t.tile_bytes);
    h.I64(t.num_buffers);
  }
  for (const auto& b : p.buffers) {
    h.I64(b.id);
    h.Str(b.purpose);
    h.U64(b.offset);
    h.U64(b.bytes);
  }
  const accel::ProgramStats& s = p.stats;
  for (std::uint64_t v :
       {s.num_groups, s.num_instrs, s.onchip_peak_bytes, s.onchip_budget_bytes,
        s.weight_stream_bytes, s.act_spill_bytes}) {
    h.U64(v);
  }
  h.I64(s.min_tile_rows);
  const accel::ExecConfig& e = p.exec;
  h.Str(e.variant_name);
  for (bool b : {e.pipeline, e.fusion, e.memory_reuse, e.int8_weights}) {
    h.U64(b ? 1 : 0);
  }
  h.I64(e.mpe_macs_per_cycle);
  h.U64(e.mpe_fill_cycles);
  h.I64(e.sfu_lanes);
  h.U64(e.sfu_fill_cycles);
  h.U64(e.kernel_launch_cycles);
  h.U64(e.dma_setup_cycles);
  h.Str(cr.ledger.Report());
  for (auto res : {hw::Resource::kLut, hw::Resource::kFf, hw::Resource::kDsp,
                   hw::Resource::kBramBlock, hw::Resource::kUramBlock}) {
    h.Str(hw::ResourceName(res));
    for (const char* tag : {"mpe", "sfu", "dma", "ctrl", "buffers"}) {
      h.U64(cr.ledger.used_by_tag(res, tag));
    }
  }
  return h.value();
}

// Pins every compiled Program byte for byte. The constants were captured
// before the compiler was split into passes; a refactor must leave every
// one unchanged. The five Stories15M int8 programs changed once since,
// when the compiler started charging the weight DMA for the group size
// the executor quantizes with (48 for k = 288, not 64).
TEST(CompilerTest, ProgramDigestsArePinned) {
  struct Preset {
    const char* name;
    llama::ModelConfig config;
  };
  struct Pinned {
    const char* name;
    std::uint64_t digest;
  };
  const Pinned kPinned[] = {
      {"tiny/Unoptimized/fp32", 0x68412d214bbf7873ull},
      {"tiny/Unoptimized/int8", 0x3bab42716aafe5a7ull},
      {"tiny/NoPipeline/fp32", 0xccb04c7bb52d5e18ull},
      {"tiny/NoPipeline/int8", 0x83920c5f12dee20bull},
      {"tiny/NoFuse/fp32", 0x9fa3001ae6aed7a8ull},
      {"tiny/NoFuse/int8", 0xcf8dcf6aa735bc35ull},
      {"tiny/SpeedLLM/fp32", 0x7ac82b64c696f55full},
      {"tiny/SpeedLLM/int8", 0x5592cc4443966548ull},
      {"tiny/NoReuse/fp32", 0x6215fc6bcd717dcfull},
      {"tiny/NoReuse/int8", 0xc368cabd2d290b82ull},
      {"stories15m/Unoptimized/fp32", 0xecc16843df94ae4dull},
      {"stories15m/Unoptimized/int8", 0x5518e1efd595420eull},
      {"stories15m/NoPipeline/fp32", 0x2f2f27e5d62a9402ull},
      {"stories15m/NoPipeline/int8", 0xe15889ca7a0151ceull},
      {"stories15m/NoFuse/fp32", 0xdb533aec93eb01cbull},
      {"stories15m/NoFuse/int8", 0x9daf494c7ff061edull},
      {"stories15m/SpeedLLM/fp32", 0x4796a1332694813eull},
      {"stories15m/SpeedLLM/int8", 0x4a7f2f5283bd403aull},
      {"stories15m/NoReuse/fp32", 0xe282fc215216cc55ull},
      {"stories15m/NoReuse/int8", 0x62fa4d032edb5dadull},
      {"stories110m/Unoptimized/fp32", 0x59ac75fc5217ba66ull},
      {"stories110m/Unoptimized/int8", 0x9a9147c4ad0f5348ull},
      {"stories110m/NoPipeline/fp32", 0xc185fb6a3a34582dull},
      {"stories110m/NoPipeline/int8", 0xbdac7c3efe173a94ull},
      {"stories110m/NoFuse/fp32", 0x1e25c1b82778598ull},
      {"stories110m/NoFuse/int8", 0x4e87227a0174acfcull},
      {"stories110m/SpeedLLM/fp32", 0x91b66a768c54a4fcull},
      {"stories110m/SpeedLLM/int8", 0x9eb4773a3d894789ull},
      {"stories110m/NoReuse/fp32", 0x5d5efe4c883cbc64ull},
      {"stories110m/NoReuse/int8", 0x6eab00791000dde4ull},
      {"stories15m/SpeedLLM/fp32/budget0.01", 0xfdd8c9c973b01d73ull},
  };
  std::map<std::string, std::uint64_t> actual;
  for (const Preset& preset :
       {Preset{"tiny", llama::ModelConfig::Tiny()},
        Preset{"stories15m", llama::ModelConfig::Stories15M()},
        Preset{"stories110m", llama::ModelConfig::Stories110M()}}) {
    for (auto v :
         {runtime::Variant::kUnoptimized, runtime::Variant::kNoPipeline,
          runtime::Variant::kNoFuse, runtime::Variant::kSpeedLLM,
          runtime::Variant::kNoReuse}) {
      for (bool int8 : {false, true}) {
        CompilerOptions opt = runtime::OptionsFor(v);
        opt.int8_weights = int8;
        std::string name = preset.name;
        name += '/';
        name += runtime::VariantName(v);
        name += int8 ? "/int8" : "/fp32";
        actual[name] = ProgramDigest(MustCompile(preset.config, opt));
      }
    }
  }
  // Reduced budget: tiles shrink to fit (as in
  // TinyBudgetForcesTileShrinkOrFails).
  CompilerOptions shrunk = CompilerOptions::SpeedLLM();
  shrunk.onchip_budget_fraction = 0.01;
  CompileResult shrunk_cr =
      MustCompile(llama::ModelConfig::Stories15M(), shrunk);
  EXPECT_LT(shrunk_cr.program.stats.min_tile_rows,
            MustCompile(llama::ModelConfig::Stories15M(),
                        CompilerOptions::SpeedLLM())
                .program.stats.min_tile_rows);
  actual["stories15m/SpeedLLM/fp32/budget0.01"] = ProgramDigest(shrunk_cr);

  std::set<std::string> checked;
  for (const Pinned& pin : kPinned) {
    ASSERT_TRUE(actual.count(pin.name)) << pin.name;
    EXPECT_EQ(actual[pin.name], pin.digest) << pin.name;
    checked.insert(pin.name);
  }
  for (const auto& [name, digest] : actual) {
    EXPECT_TRUE(checked.count(name)) << "unpinned: {\"" << name << "\", 0x"
                                     << std::hex << digest << "ull},";
  }
}

TEST(CompilerTest, RejectsInvalidConfig) {
  auto config = llama::ModelConfig::Tiny();
  config.n_heads = 7;  // dim not divisible
  auto r = Compile(config, CompilerOptions::SpeedLLM(),
                   hw::U280Config::Default());
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace speedllm::compiler
