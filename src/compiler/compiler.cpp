#include "compiler/compiler.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <set>

#include "common/logging.hpp"
#include "compiler/allocator.hpp"
#include "compiler/fusion.hpp"
#include "quant/quant.hpp"

namespace speedllm::compiler {

using accel::ComputeKind;
using accel::Instr;
using accel::InstrId;
using accel::Opcode;
using accel::Unit;
using graph::Graph;
using graph::Op;
using graph::OpId;
using graph::OpKind;
using graph::ValueId;
using graph::ValueKind;

namespace {

/// Streaming chunk double-buffered while reading the KV cache.
constexpr std::uint64_t kKvStreamChunkBytes = 32 * 1024;
/// BRAM36 block payload (36 Kib) and URAM block payload (288 Kib).
constexpr std::uint64_t kBramBlockBytes = 36 * 1024 / 8;
constexpr std::uint64_t kUramBlockBytes = 288 * 1024 / 8;

/// The three HBM streams. Each has its own channel group; weight and
/// activation traffic also feed the per-token stats.
enum Stream { kWeightStream, kKvStream, kActStream, kNumStreams };

struct Channels {
  int first = 0;
  int count = 1;
};
using ChannelGroups = std::array<Channels, kNumStreams>;

ChannelGroups AssignChannels(const CompilerOptions& opt,
                             const hw::U280Config& u280) {
  if (!opt.enable_pipeline) {
    // One AXI master: every stream shares the same narrow channel group.
    const Channels shared{0, std::min(opt.serial_channels,
                                      u280.hbm.num_channels)};
    return {shared, shared, shared};
  }
  // Clamp so every stream keeps at least one channel even when the
  // requested widths over-subscribe the 32-channel stack.
  const int total = u280.hbm.num_channels;
  const int wc = std::clamp(opt.weight_channels, 1, total - 2);
  const int kc = std::clamp(opt.kv_channels, 1, total - wc - 1);
  const int ac = std::clamp(opt.act_channels, 1, total - wc - kc);
  return {Channels{0, wc}, Channels{wc, kc}, Channels{wc + kc, ac}};
}

/// Bytes a weight matrix row occupies in HBM: fp32, or int8 plus one fp32
/// scale per group of the size the executor quantizes with.
std::uint64_t WeightRowBytes(std::int64_t k, bool int8_weights) {
  if (!int8_weights) return static_cast<std::uint64_t>(k) * 4;
  return static_cast<std::uint64_t>(k + k / quant::PickGroupSize(k) * 4);
}

/// Per-op worst-case SFU element operations.
std::int64_t SfuOpsFor(const Op& op) {
  switch (op.kind) {
    case OpKind::kRmsNorm: return 4 * op.m;   // square+sum, rsqrt, scale, mul
    case OpKind::kRope: return 4 * op.m;      // sin/cos + 2 fma per pair
    case OpKind::kKvWrite: return op.m;       // copy
    case OpKind::kSoftmax: return 4 * op.m;   // max, exp, sum, div
    case OpKind::kSilu: return 3 * op.m;      // exp, add, div
    case OpKind::kEltAdd: return op.m;
    case OpKind::kEltMul: return op.m;
    case OpKind::kEmbedLookup: return op.m;   // copy
    default: return 0;
  }
}

ComputeKind ComputeKindFor(OpKind k) {
  switch (k) {
    case OpKind::kEmbedLookup: return ComputeKind::kEmbedCopy;
    case OpKind::kRmsNorm: return ComputeKind::kRmsNorm;
    case OpKind::kMatMul: return ComputeKind::kMatMulTile;
    case OpKind::kRope: return ComputeKind::kRope;
    case OpKind::kKvWrite: return ComputeKind::kKvWrite;
    case OpKind::kAttScores: return ComputeKind::kAttScores;
    case OpKind::kSoftmax: return ComputeKind::kSoftmax;
    case OpKind::kAttMix: return ComputeKind::kAttMix;
    case OpKind::kSilu: return ComputeKind::kSilu;
    case OpKind::kEltAdd: return ComputeKind::kEltAdd;
    case OpKind::kEltMul: return ComputeKind::kEltMul;
  }
  return ComputeKind::kNone;
}

// ---- Pass 1: build and fuse. ----

/// The decode graph partitioned into fused groups.
struct FusedGraph {
  graph::DecodeGraph dg;
  std::vector<FusedGroup> groups;
  std::vector<std::int32_t> group_of;  // op id -> group id
  std::vector<bool> internal;          // value id -> never leaves its group
};

StatusOr<FusedGraph> BuildAndFuse(const llama::ModelConfig& config,
                                  const CompilerOptions& options) {
  SPEEDLLM_RETURN_IF_ERROR(config.Validate());
  FusedGraph fg;
  fg.dg = graph::BuildDecodeGraph(config);
  const Graph& g = fg.dg.graph;
  SPEEDLLM_RETURN_IF_ERROR(g.Validate());
  fg.groups = BuildFusionGroups(g, options.enable_fusion);
  SPEEDLLM_RETURN_IF_ERROR(ValidateGroups(g, fg.groups));
  fg.group_of.assign(g.ops().size(), -1);
  for (const auto& grp : fg.groups) {
    for (OpId id : grp.ops) fg.group_of[id] = grp.id;
  }
  fg.internal = ValuesInternalToGroups(g, fg.groups);
  return fg;
}

// ---- Pass 2: fit tiles. ----

/// Builds every on-chip buffer request for the given tile rows (per op
/// id; 0 for non-matmul ops). Step ids are fused-group indices.
std::vector<BufferRequest> BuildBufferRequests(
    const FusedGraph& fg, const std::vector<std::int64_t>& tile_rows,
    const CompilerOptions& opt) {
  const Graph& g = fg.dg.graph;
  const int tile_buffers = opt.enable_pipeline ? 2 : 1;
  std::vector<BufferRequest> reqs;
  // Track which (group, value) staging buffers we already requested.
  std::set<std::pair<std::int32_t, ValueId>> staged;

  for (const Op& op : g.ops()) {
    const std::int32_t grp = fg.group_of[op.id];
    auto add = [&](std::string purpose, std::uint64_t bytes) {
      reqs.push_back(BufferRequest{std::move(purpose), bytes, grp, grp});
    };
    // One buffer, or one per pipeline slot (double-buffered when
    // pipelined).
    auto add_slots = [&](const std::string& stem, std::uint64_t bytes) {
      for (int b = 0; b < tile_buffers; ++b) {
        add(stem + "[" + std::to_string(b) + "]", bytes);
      }
    };
    auto stage = [&](ValueId v) {
      if (!staged.emplace(grp, v).second) return;
      const auto& val = g.value(v);
      add("act." + val.name + ".g" + std::to_string(grp), val.bytes());
    };
    const std::uint64_t vector_bytes = static_cast<std::uint64_t>(op.m) * 4;
    switch (op.kind) {
      case OpKind::kMatMul:
        add_slots("w_tile." + op.name,
                  static_cast<std::uint64_t>(tile_rows[op.id]) *
                      WeightRowBytes(op.k, opt.int8_weights));
        break;
      case OpKind::kRmsNorm: add("w_gain." + op.name, vector_bytes); break;
      case OpKind::kEmbedLookup:
        add("emb_row." + op.name, vector_bytes);
        break;
      case OpKind::kAttScores:
      case OpKind::kAttMix:
        add_slots("kv_stream." + op.name, kKvStreamChunkBytes);
        break;
      case OpKind::kKvWrite: add("kv_stage." + op.name, vector_bytes); break;
      default: break;
    }
    // Activation inputs and outputs all need on-chip space in this group.
    for (ValueId in : op.inputs) {
      if (g.value(in).kind == ValueKind::kActivation) stage(in);
    }
    for (ValueId out : op.outputs) {
      const ValueKind kind = g.value(out).kind;
      if (kind == ValueKind::kActivation || kind == ValueKind::kOutput) {
        stage(out);
      }
    }
  }
  return reqs;
}

/// Tile sizes and the buffer allocation they fit in.
struct TileFit {
  std::vector<std::int64_t> rows;  // rows per tile per op id
  std::vector<BufferRequest> reqs;
  AllocationResult alloc;
  std::uint64_t budget = 0;
};

/// Shrinks every matmul tile by powers of two from its ideal size until
/// the buffer allocation fits the on-chip budget.
StatusOr<TileFit> FitTiles(const FusedGraph& fg, const CompilerOptions& opt,
                           const hw::U280Config& u280) {
  const Graph& g = fg.dg.graph;
  TileFit fit;
  fit.budget = static_cast<std::uint64_t>(
      opt.onchip_budget_fraction *
      static_cast<double>(u280.fabric.onchip_bytes()));
  fit.rows.assign(g.ops().size(), 0);
  for (std::int64_t shrink = 1; shrink <= 4096; shrink *= 2) {
    for (const Op& op : g.ops()) {
      if (op.kind != OpKind::kMatMul) continue;
      const std::int64_t ideal = std::clamp<std::int64_t>(
          static_cast<std::int64_t>(
              opt.max_tile_bytes / WeightRowBytes(op.k, opt.int8_weights)),
          1, op.m);
      fit.rows[op.id] = std::max<std::int64_t>(1, ideal / shrink);
    }
    fit.reqs = BuildBufferRequests(fg, fit.rows, opt);
    auto attempt = AllocateBuffers(fit.reqs, opt.enable_memory_reuse,
                                   fit.budget);
    if (attempt.ok()) {
      fit.alloc = std::move(attempt).value();
      if (shrink > 1) {
        LOG_DEBUG << opt.name << ": tiles shrunk by " << shrink
                  << "x to fit on-chip budget";
      }
      return fit;
    }
    if (attempt.status().code() != StatusCode::kResourceExhausted) {
      return attempt.status();
    }
  }
  return ResourceExhausted(
      "cannot fit on-chip buffers even with 1-row tiles (variant " +
      opt.name + ", budget " + std::to_string(fit.budget) + " B)");
}

// ---- Pass 3: emit. ----

/// Lowers the fused groups, in order, to the instruction stream with its
/// data and double-buffer dependencies.
class Emitter {
 public:
  Emitter(const FusedGraph& fg, const std::vector<std::int64_t>& tile_rows,
          const CompilerOptions& opt, const hw::U280Config& u280,
          accel::Program& prog)
      : g_(fg.dg.graph),
        fg_(fg),
        tile_rows_(tile_rows),
        opt_(opt),
        ch_(AssignChannels(opt, u280)),
        prog_(prog) {}

  void Run() {
    for (const auto& grp : fg_.groups) {
      group_ = grp.id;
      loaded_.clear();
      Instr launch;
      launch.opcode = Opcode::kLaunch;
      launch.unit = Unit::kCtrl;
      launch_ = Emit(std::move(launch), "launch." + grp.name);
      for (OpId id : grp.ops) EmitOp(g_.op(id));
    }
    // Serialized read -> compute -> write iteration: chain everything.
    auto& instrs = prog_.instrs;
    if (!opt_.enable_pipeline) {
      for (std::size_t i = 1; i < instrs.size(); ++i) {
        instrs[i].deps.push_back(instrs[i - 1].id);
      }
    }
    prog_.stats.weight_stream_bytes = stream_bytes_[kWeightStream];
    prog_.stats.act_spill_bytes = stream_bytes_[kActStream];
  }

 private:
  // Appends `in` under the next id in the current group.
  InstrId Emit(Instr in, std::string label) {
    in.id = static_cast<InstrId>(prog_.instrs.size());
    in.group = group_;
    in.label = std::move(label);
    prog_.instrs.push_back(std::move(in));
    return prog_.instrs.back().id;
  }

  // The one DMA builder behind Load and Store.
  InstrId Dma(Opcode opcode, Unit unit, OpId op, ValueId v,
              std::uint64_t bytes, Stream s, std::vector<InstrId> deps,
              std::string label) {
    Instr in;
    in.opcode = opcode;
    in.unit = unit;
    in.op = op;
    in.value = v;
    in.bytes = bytes;
    in.channel_first = ch_[s].first;
    in.channel_count = ch_[s].count;
    // A KV-cache read follows the position; a KV write is one row.
    in.seq_scaled = opcode == Opcode::kDmaLoad && s == kKvStream;
    in.deps = std::move(deps);
    stream_bytes_[s] += bytes;
    return Emit(std::move(in), std::move(label));
  }

  // HBM -> on-chip after the group's launch (plus `dep`, if any).
  InstrId Load(OpId op, ValueId v, std::uint64_t bytes, Stream s,
               std::string label, std::optional<InstrId> dep = {}) {
    std::vector<InstrId> deps = {launch_};
    if (dep) deps.push_back(*dep);
    return Dma(Opcode::kDmaLoad, Unit::kDmaIn, op, v, bytes, s,
               std::move(deps), std::move(label));
  }

  // On-chip -> HBM; the serialized variant has one shared AXI master.
  InstrId Store(OpId op, ValueId v, std::uint64_t bytes, Stream s,
                std::vector<InstrId> deps, std::string label) {
    const InstrId id = Dma(Opcode::kDmaStore,
                           opt_.enable_pipeline ? Unit::kDmaOut : Unit::kDmaIn,
                           op, v, bytes, s, std::move(deps), std::move(label));
    store_of_[v] = id;
    return id;
  }

  // `work` carries the unit, compute kind, costs and deps.
  InstrId Compute(const Op& op, Instr work, std::string label) {
    work.opcode = Opcode::kCompute;
    work.op = op.id;
    return Emit(std::move(work), std::move(label));
  }

  // The last store of `v` (activation spill or KV write), if any.
  std::optional<InstrId> StoreOf(ValueId v) const {
    auto it = store_of_.find(v);
    if (it == store_of_.end()) return std::nullopt;
    return it->second;
  }

  // Appends the dependencies on activation `v`: its producers when they
  // run in this group, else a (once per group) load from HBM.
  void InputDeps(ValueId v, std::vector<InstrId>& deps) {
    const auto& val = g_.value(v);
    if (val.kind == ValueKind::kWeight || val.kind == ValueKind::kKvCache) {
      return;  // handled by the caller per op kind
    }
    auto prod = prod_instrs_.find(v);
    if (prod != prod_instrs_.end() && !prod->second.empty() &&
        prog_.instrs[prod->second.front()].group == group_) {
      deps.insert(deps.end(), prod->second.begin(), prod->second.end());
      return;
    }
    auto [it, fresh] = loaded_.emplace(v, 0);
    if (fresh) {
      it->second = Load(-1, v, val.bytes(), kActStream, "load." + val.name,
                        StoreOf(v));
    }
    deps.push_back(it->second);
  }

  void EmitOp(const Op& op) {
    switch (op.kind) {
      case OpKind::kMatMul: EmitMatMul(op); break;
      case OpKind::kEmbedLookup: EmitEmbed(op); break;
      case OpKind::kRmsNorm: EmitRmsNorm(op); break;
      case OpKind::kAttScores:
      case OpKind::kAttMix: EmitAttention(op); break;
      case OpKind::kKvWrite: EmitKvWrite(op); break;
      default: EmitElementwise(op); break;
    }
    // Store outputs that escape the group.
    for (ValueId out : op.outputs) {
      const auto& val = g_.value(out);
      const bool escapes =
          (val.kind == ValueKind::kActivation && !fg_.internal[out]) ||
          val.kind == ValueKind::kOutput;
      if (!escapes) continue;
      Store(op.id, out, val.bytes(), kActStream, prod_instrs_[out],
            "store." + val.name);
    }
  }

  // Weight tiles stream through the tile buffers; tile t reuses the
  // buffer of tile t - n_buf, so its load waits for that compute.
  void EmitMatMul(const Op& op) {
    const std::int64_t rows = tile_rows_[op.id];
    const std::int64_t n_tiles = (op.m + rows - 1) / rows;
    const int n_buf = opt_.enable_pipeline ? 2 : 1;
    const std::uint64_t row_bytes = WeightRowBytes(op.k, opt_.int8_weights);
    prog_.tiles.push_back(accel::TileInfo{
        op.id, rows, n_tiles, static_cast<std::uint64_t>(rows) * row_bytes,
        n_buf});

    std::vector<InstrId> x_deps;
    InputDeps(op.inputs[1], x_deps);
    std::vector<InstrId> computes;
    for (std::int64_t t = 0; t < n_tiles; ++t) {
      const std::int64_t r0 = t * rows;
      const std::int64_t r1 = std::min<std::int64_t>(op.m, r0 + rows);
      const std::uint64_t bytes = static_cast<std::uint64_t>(r1 - r0) *
                                  row_bytes;
      const std::string tile = ".t" + std::to_string(t);
      const InstrId ld =
          Load(op.id, op.inputs[0], bytes, kWeightStream,
               "load." + op.name + tile,
               t >= n_buf ? std::optional<InstrId>(computes[t - n_buf])
                          : std::nullopt);
      Instr cp = Work(op, Unit::kMpe);
      cp.row_begin = r0;
      cp.row_end = r1;
      cp.macs = (r1 - r0) * op.k;
      cp.onchip_bytes =
          bytes + static_cast<std::uint64_t>((r1 - r0) + op.k) * 4;
      cp.deps = {ld};
      cp.deps.insert(cp.deps.end(), x_deps.begin(), x_deps.end());
      computes.push_back(Compute(op, std::move(cp), op.name + tile));
    }
    prod_instrs_[op.outputs[0]] = std::move(computes);
  }

  void EmitEmbed(const Op& op) {
    const std::uint64_t row = static_cast<std::uint64_t>(op.m) * 4;
    const InstrId ld = Load(op.id, op.inputs[0], row, kWeightStream,
                            "load.emb_row");
    Instr cp = Work(op, Unit::kSfu);
    cp.onchip_bytes = row * 2;
    cp.deps = {ld};
    prod_instrs_[op.outputs[0]] = {Compute(op, std::move(cp), op.name)};
  }

  // The gain vector (inputs[1]) streams with the weights.
  void EmitRmsNorm(const Op& op) {
    const auto& gain = g_.value(op.inputs[1]);
    const InstrId ld = Load(op.id, op.inputs[1], gain.bytes(), kWeightStream,
                            "load." + gain.name);
    Instr cp = Work(op, Unit::kSfu);
    cp.onchip_bytes = static_cast<std::uint64_t>(op.m) * 4 * 3;
    cp.deps = {ld};
    InputDeps(op.inputs[0], cp.deps);
    prod_instrs_[op.outputs[0]] = {Compute(op, std::move(cp), op.name)};
  }

  // Streams the relevant cache (K for scores, V for mix), worst case;
  // bytes and MACs are rescaled by the position at run time.
  void EmitAttention(const Op& op) {
    const ValueId cache = op.inputs[1];
    const auto& val = g_.value(cache);
    const InstrId ld = Load(op.id, cache, val.bytes(), kKvStream,
                            "stream." + val.name, StoreOf(cache));
    Instr cp = Work(op, Unit::kMpe);
    cp.macs = static_cast<std::int64_t>(op.n_heads) *
              fg_.dg.config.seq_len * op.head_dim;
    cp.seq_scaled = true;
    cp.onchip_bytes = val.bytes();
    cp.deps = {ld};
    InputDeps(op.inputs[0], cp.deps);
    prod_instrs_[op.outputs[0]] = {Compute(op, std::move(cp), op.name)};
  }

  // Writes the k and v rows and stores both cache regions at once.
  void EmitKvWrite(const Op& op) {
    Instr cp = Work(op, Unit::kSfu);
    cp.onchip_bytes = static_cast<std::uint64_t>(op.m) * 4;
    InputDeps(op.inputs[0], cp.deps);
    InputDeps(op.inputs[1], cp.deps);
    const InstrId id = Compute(op, std::move(cp), op.name);
    const InstrId st =
        Store(op.id, op.outputs[0], static_cast<std::uint64_t>(op.m) * 4,
              kKvStream, {id}, "store.kv.l" + std::to_string(op.layer));
    store_of_[op.outputs[1]] = st;
  }

  // SFU elementwise ops: rope/softmax/silu/add/mul.
  void EmitElementwise(const Op& op) {
    Instr cp = Work(op, Unit::kSfu);
    cp.seq_scaled = op.kind == OpKind::kSoftmax;  // scores follow pos
    cp.onchip_bytes = static_cast<std::uint64_t>(op.m) * 4 * 2;
    for (ValueId in : op.inputs) InputDeps(in, cp.deps);
    const InstrId id = Compute(op, std::move(cp), op.name);
    for (ValueId out : op.outputs) prod_instrs_[out] = {id};
  }

  // The compute kind and SFU cost of `op` on `unit`; callers add the
  // rest before handing it to Compute.
  static Instr Work(const Op& op, Unit unit) {
    Instr cp;
    cp.unit = unit;
    cp.compute = ComputeKindFor(op.kind);
    cp.sfu_ops = SfuOpsFor(op);
    return cp;
  }

  const Graph& g_;
  const FusedGraph& fg_;
  const std::vector<std::int64_t>& tile_rows_;
  const CompilerOptions& opt_;
  const ChannelGroups ch_;
  accel::Program& prog_;

  std::int32_t group_ = -1;
  InstrId launch_ = 0;
  std::array<std::uint64_t, kNumStreams> stream_bytes_{};
  // Producer compute instrs per value (all tiles for matmuls).
  std::map<ValueId, std::vector<InstrId>> prod_instrs_;
  // Last HBM store of a value: an activation spill or a KV-cache write.
  std::map<ValueId, InstrId> store_of_;
  // Activation loads already emitted in the current group.
  std::map<ValueId, InstrId> loaded_;
};

// ---- Pass 4: buffers, stats and ledger. ----

accel::ExecConfig ExecConfigFor(const CompilerOptions& opt,
                                const hw::U280Config& u280) {
  accel::ExecConfig ex;
  ex.variant_name = opt.name;
  ex.pipeline = opt.enable_pipeline;
  ex.fusion = opt.enable_fusion;
  ex.memory_reuse = opt.enable_memory_reuse;
  ex.mpe_macs_per_cycle = opt.mpe_macs_per_cycle;
  ex.mpe_fill_cycles = opt.mpe_fill_cycles;
  ex.sfu_lanes = opt.sfu_lanes;
  ex.sfu_fill_cycles = opt.sfu_fill_cycles;
  ex.kernel_launch_cycles = opt.kernel_launch_cycles;
  ex.dma_setup_cycles = u280.hbm.dma_setup_cycles;
  ex.int8_weights = opt.int8_weights;
  return ex;
}

void PlaceBuffers(const TileFit& fit, std::size_t num_groups,
                  accel::Program& prog) {
  prog.buffers.reserve(fit.reqs.size());
  for (std::size_t i = 0; i < fit.reqs.size(); ++i) {
    prog.buffers.push_back(accel::BufferAlloc{
        static_cast<std::int32_t>(i), fit.reqs[i].purpose,
        fit.alloc.placements[i].offset, fit.alloc.placements[i].bytes});
  }
  accel::ProgramStats& s = prog.stats;
  s.num_groups = num_groups;
  s.num_instrs = prog.instrs.size();
  s.onchip_peak_bytes = fit.alloc.peak_bytes;
  s.onchip_budget_bytes = fit.budget;
  for (const auto& ti : prog.tiles) {
    if (s.min_tile_rows == 0 || ti.rows_per_tile < s.min_tile_rows) {
      s.min_tile_rows = ti.rows_per_tile;
    }
  }
}

/// Charges the fabric for the units and buffers (HLS report substitute).
StatusOr<hw::ResourceLedger> ChargeLedger(const CompilerOptions& opt,
                                          const hw::U280Config& u280,
                                          std::uint64_t onchip_peak_bytes) {
  const std::int64_t lanes = opt.mpe_macs_per_cycle;
  const auto mpe = static_cast<std::uint64_t>(lanes);
  const auto sfu = static_cast<std::uint64_t>(opt.sfu_lanes);
  const std::uint64_t dma_engines = opt.enable_pipeline ? 2 : 1;
  // Buffers: URAM blocks first (bulk), BRAM remainder.
  const std::uint64_t uram = std::min<std::uint64_t>(
      u280.fabric.uram_blocks, onchip_peak_bytes / kUramBlockBytes);
  const std::uint64_t bram =
      (onchip_peak_bytes - uram * kUramBlockBytes + kBramBlockBytes - 1) /
      kBramBlockBytes;
  struct Charge {
    hw::Resource resource;
    std::uint64_t amount;
    const char* tag;
  };
  const Charge charges[] = {
      {hw::Resource::kDsp,
       static_cast<std::uint64_t>(opt.int8_weights ? lanes / 2 : lanes * 3),
       "mpe"},
      {hw::Resource::kLut, mpe * 220, "mpe"},
      {hw::Resource::kFf, mpe * 310, "mpe"},
      {hw::Resource::kDsp, sfu * 4, "sfu"},
      {hw::Resource::kLut, sfu * 2800, "sfu"},
      {hw::Resource::kLut, dma_engines * 6200, "dma"},
      {hw::Resource::kFf, dma_engines * 9400, "dma"},
      {hw::Resource::kLut, 4100, "ctrl"},
      {hw::Resource::kUramBlock, uram, "buffers"},
      {hw::Resource::kBramBlock, bram, "buffers"},
  };
  hw::ResourceLedger ledger(u280.fabric);
  for (const Charge& c : charges) {
    SPEEDLLM_RETURN_IF_ERROR(ledger.Charge(c.resource, c.amount, c.tag));
  }
  return ledger;
}

}  // namespace

StatusOr<CompileResult> Compile(const llama::ModelConfig& config,
                                const CompilerOptions& options,
                                const hw::U280Config& u280) {
  SPEEDLLM_ASSIGN_OR_RETURN(FusedGraph fg, BuildAndFuse(config, options));
  SPEEDLLM_ASSIGN_OR_RETURN(TileFit fit, FitTiles(fg, options, u280));

  accel::Program prog;
  prog.model = config;
  prog.exec = ExecConfigFor(options, u280);
  Emitter(fg, fit.rows, options, u280, prog).Run();
  PlaceBuffers(fit, fg.groups.size(), prog);
  prog.dg = std::move(fg.dg);

  SPEEDLLM_ASSIGN_OR_RETURN(
      hw::ResourceLedger ledger,
      ChargeLedger(options, u280, prog.stats.onchip_peak_bytes));
  return CompileResult{std::move(prog), std::move(ledger)};
}

}  // namespace speedllm::compiler
