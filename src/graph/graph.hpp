// SpeedLLM -- operator graph IR for one decode step.
//
// The compiler lowers a Llama2 token-step onto the accelerator from this
// graph. Values are SSA-ish: written by exactly one op (except the
// residual stream and KV cache, which are explicitly modeled as
// read-modify-write). Attention shapes are sized for the worst case
// (seq_len); the executor charges timing by the actual position.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "llama/config.hpp"

namespace speedllm::graph {

using ValueId = std::int32_t;
using OpId = std::int32_t;
inline constexpr ValueId kNoValue = -1;

/// Where a value lives between ops.
enum class ValueKind {
  kWeight,      // model parameter, resident in HBM
  kActivation,  // intermediate produced/consumed within the step
  kKvCache,     // persistent per-layer K/V cache region in HBM
  kOutput,      // logits, copied back to host
};

enum class DType { kF32, kInt8 };

/// A tensor-valued edge in the graph.
struct Value {
  ValueId id = kNoValue;
  std::string name;
  ValueKind kind = ValueKind::kActivation;
  DType dtype = DType::kF32;
  std::int64_t elements = 0;

  std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(elements) *
           (dtype == DType::kF32 ? 4 : 1);
  }
};

enum class OpKind {
  kEmbedLookup,   // out = embedding[token]
  kRmsNorm,       // out = rmsnorm(in) * gain
  kMatMul,        // out[M] = W[M,K] * in[K]
  kRope,          // rotates q and k in place
  kKvWrite,       // appends k,v rows to the cache at pos
  kAttScores,     // unfused: scores[t] = q . k[t] / sqrt(hd)
  kSoftmax,       // unfused: softmax over scores
  kAttMix,        // unfused: out = sum_t scores[t] * v[t]
  kSilu,          // elementwise silu
  kEltAdd,        // residual add
  kEltMul,        // gating multiply
};

std::string_view OpKindName(OpKind k);

/// One operator. Dimensions (m, k) describe matmuls; seq-dependent ops
/// store worst-case sizes and are re-costed at execution time.
struct Op {
  OpId id = -1;
  OpKind kind = OpKind::kMatMul;
  std::string name;
  std::int32_t layer = -1;  // -1 for embed/final ops
  std::vector<ValueId> inputs = {};
  std::vector<ValueId> outputs = {};

  // Matmul geometry: out[m] = W[m, k] * x[k]. The weight value id is
  // always inputs[0] for kMatMul.
  std::int64_t m = 0;
  std::int64_t k = 0;

  // Attention geometry.
  std::int32_t n_heads = 0;
  std::int32_t head_dim = 0;

  /// MAC count for matmuls (m*k), 0 for SFU ops.
  std::int64_t macs() const { return kind == OpKind::kMatMul ? m * k : 0; }
};

/// A topologically-ordered operator list plus its values.
class Graph {
 public:
  ValueId AddValue(std::string name, ValueKind kind, DType dtype,
                   std::int64_t elements);
  OpId AddOp(Op op);

  const std::vector<Value>& values() const { return values_; }
  const std::vector<Op>& ops() const { return ops_; }
  const Value& value(ValueId id) const { return values_[id]; }
  const Op& op(OpId id) const { return ops_[id]; }

  /// Checks topological ordering (every input is a weight, a kv-cache
  /// region, or produced by an earlier op) and single-producer form.
  Status Validate() const;

  /// Op index that produces `v`, or -1 for weights / graph inputs.
  OpId Producer(ValueId v) const;

  /// Last op index that reads `v`, or -1 if never read.
  OpId LastConsumer(ValueId v) const;

 private:
  std::vector<Value> values_;
  std::vector<Op> ops_;
};

/// Weight handles for one layer, so the compiler can map graph weight
/// values back to tensors.
struct LayerValueIds {
  ValueId rms_att, wq, wk, wv, wo;
  ValueId rms_ffn, w1, w2, w3;
  ValueId k_cache, v_cache;
};

/// The complete decode-step graph plus bookkeeping the compiler needs.
struct DecodeGraph {
  Graph graph;
  llama::ModelConfig config;

  ValueId token_embedding = kNoValue;  // weight value [vocab, dim]
  ValueId rms_final = kNoValue;
  ValueId wcls = kNoValue;             // == token_embedding when shared
  ValueId x = kNoValue;                // residual stream in
  ValueId logits = kNoValue;           // graph output
  std::vector<LayerValueIds> layers;
};

/// Builds the per-token decode graph for `config`.
DecodeGraph BuildDecodeGraph(const llama::ModelConfig& config);

}  // namespace speedllm::graph
