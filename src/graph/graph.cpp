#include "graph/graph.hpp"

#include <cassert>

namespace speedllm::graph {

std::string_view OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kEmbedLookup: return "embed";
    case OpKind::kRmsNorm: return "rmsnorm";
    case OpKind::kMatMul: return "matmul";
    case OpKind::kRope: return "rope";
    case OpKind::kKvWrite: return "kv_write";
    case OpKind::kAttScores: return "att_scores";
    case OpKind::kSoftmax: return "softmax";
    case OpKind::kAttMix: return "att_mix";
    case OpKind::kSilu: return "silu";
    case OpKind::kEltAdd: return "add";
    case OpKind::kEltMul: return "mul";
  }
  return "?";
}

ValueId Graph::AddValue(std::string name, ValueKind kind, DType dtype,
                        std::int64_t elements) {
  Value v;
  v.id = static_cast<ValueId>(values_.size());
  v.name = std::move(name);
  v.kind = kind;
  v.dtype = dtype;
  v.elements = elements;
  values_.push_back(std::move(v));
  return values_.back().id;
}

OpId Graph::AddOp(Op op) {
  op.id = static_cast<OpId>(ops_.size());
  ops_.push_back(std::move(op));
  return ops_.back().id;
}

Status Graph::Validate() const {
  std::vector<OpId> producer(values_.size(), -1);
  for (const Op& op : ops_) {
    for (ValueId in : op.inputs) {
      if (in < 0 || in >= static_cast<ValueId>(values_.size())) {
        return Internal("op " + op.name + " reads invalid value id " +
                        std::to_string(in));
      }
      const Value& v = values_[in];
      bool external = v.kind == ValueKind::kWeight ||
                      v.kind == ValueKind::kKvCache;
      if (!external && producer[in] == -1) {
        return Internal("op " + op.name + " reads activation '" + v.name +
                        "' before it is produced (not topologically sorted)");
      }
    }
    for (ValueId out : op.outputs) {
      if (out < 0 || out >= static_cast<ValueId>(values_.size())) {
        return Internal("op " + op.name + " writes invalid value id " +
                        std::to_string(out));
      }
      if (values_[out].kind == ValueKind::kWeight) {
        return Internal("op " + op.name + " writes weight '" +
                        values_[out].name + "'");
      }
      if (values_[out].kind != ValueKind::kKvCache) {
        if (producer[out] != -1) {
          return Internal("value '" + values_[out].name +
                          "' produced twice (ops " +
                          std::to_string(producer[out]) + " and " +
                          std::to_string(op.id) + ")");
        }
        producer[out] = op.id;
      }
    }
  }
  return Status::Ok();
}

OpId Graph::Producer(ValueId v) const {
  for (const Op& op : ops_) {
    for (ValueId out : op.outputs) {
      if (out == v) return op.id;
    }
  }
  return -1;
}

OpId Graph::LastConsumer(ValueId v) const {
  OpId last = -1;
  for (const Op& op : ops_) {
    for (ValueId in : op.inputs) {
      if (in == v) last = op.id;
    }
  }
  return last;
}

namespace {

ValueId AddF32(Graph& g, std::string name, ValueKind kind,
               std::int64_t elements) {
  return g.AddValue(std::move(name), kind, DType::kF32, elements);
}

// Every op enters the decode graph here. Given `out`, the op's one output
// is first made as a fresh activation of op.m floats. Returns the op's
// first output.
ValueId AddOp(Graph& g, Op op, std::string out = {}) {
  if (!out.empty()) {
    op.outputs = {AddF32(g, std::move(out), ValueKind::kActivation, op.m)};
  }
  const ValueId first = op.outputs[0];
  g.AddOp(std::move(op));
  return first;
}

ValueId AddMatMul(Graph& g, std::string name, std::int32_t layer, ValueId w,
                  ValueId in, std::int64_t m, std::int64_t k,
                  std::string out) {
  return AddOp(g,
               {.kind = OpKind::kMatMul, .name = std::move(name),
                .layer = layer, .inputs = {w, in}, .m = m, .k = k},
               std::move(out));
}

// Appends layer `l` (its weights, KV cache, attention and FFN blocks) on
// the residual stream `x`; returns the layer's output residual stream.
ValueId AddLayer(DecodeGraph& dg, std::int32_t l, ValueId x) {
  const llama::ModelConfig& config = dg.config;
  Graph& g = dg.graph;
  const std::int64_t dim = config.dim;
  const std::int64_t hidden = config.hidden_dim;
  const std::int64_t kv_dim = config.kv_dim();
  const std::int64_t seq = config.seq_len;
  const std::int64_t att = static_cast<std::int64_t>(config.n_heads) * seq;
  const std::int32_t heads = config.n_heads;
  const std::int32_t head_dim = config.head_dim();

  std::string p = "l";  // appended, not `"l" + ...` (GCC 12 -Wrestrict)
  p += std::to_string(l);
  p += '.';
  auto weight = [&](const char* name, std::int64_t elements) {
    return AddF32(g, p + name, ValueKind::kWeight, elements);
  };
  LayerValueIds ids;
  ids.rms_att = weight("rms_att", dim);
  ids.wq = weight("wq", dim * dim);
  ids.wk = weight("wk", kv_dim * dim);
  ids.wv = weight("wv", kv_dim * dim);
  ids.wo = weight("wo", dim * dim);
  ids.rms_ffn = weight("rms_ffn", dim);
  ids.w1 = weight("w1", hidden * dim);
  ids.w2 = weight("w2", dim * hidden);
  ids.w3 = weight("w3", hidden * dim);
  ids.k_cache = AddF32(g, p + "k_cache", ValueKind::kKvCache, seq * kv_dim);
  ids.v_cache = AddF32(g, p + "v_cache", ValueKind::kKvCache, seq * kv_dim);
  dg.layers.push_back(ids);

  // Attention block.
  ValueId xb = AddOp(g,
                     {.kind = OpKind::kRmsNorm, .name = p + "rmsnorm.att",
                      .layer = l, .inputs = {x, ids.rms_att}, .m = dim},
                     p + "xb.att");
  ValueId q = AddMatMul(g, p + "matmul.q", l, ids.wq, xb, dim, dim, p + "q");
  ValueId k =
      AddMatMul(g, p + "matmul.k", l, ids.wk, xb, kv_dim, dim, p + "k");
  ValueId v =
      AddMatMul(g, p + "matmul.v", l, ids.wv, xb, kv_dim, dim, p + "v");
  ValueId q_rot = AddF32(g, p + "q.rot", ValueKind::kActivation, dim);
  ValueId k_rot = AddF32(g, p + "k.rot", ValueKind::kActivation, kv_dim);
  AddOp(g, {.kind = OpKind::kRope, .name = p + "rope", .layer = l,
            .inputs = {q, k}, .outputs = {q_rot, k_rot}, .m = dim + kv_dim,
            .head_dim = head_dim});
  AddOp(g, {.kind = OpKind::kKvWrite, .name = p + "kv_write", .layer = l,
            .inputs = {k_rot, v}, .outputs = {ids.k_cache, ids.v_cache},
            .m = 2 * kv_dim});

  // Decomposed attention (the fusion pass may group these three).
  ValueId scores = AddOp(g,
                         {.kind = OpKind::kAttScores, .name = p + "att.scores",
                          .layer = l, .inputs = {q_rot, ids.k_cache},
                          .m = att, .n_heads = heads, .head_dim = head_dim},
                         p + "att.scores");
  ValueId probs = AddOp(g,
                        {.kind = OpKind::kSoftmax, .name = p + "att.softmax",
                         .layer = l, .inputs = {scores}, .m = att,
                         .n_heads = heads},
                        p + "att.probs");
  ValueId att_out = AddOp(g,
                          {.kind = OpKind::kAttMix, .name = p + "att.mix",
                           .layer = l, .inputs = {probs, ids.v_cache},
                           .m = dim, .n_heads = heads, .head_dim = head_dim},
                          p + "att.out");
  ValueId xo =
      AddMatMul(g, p + "matmul.o", l, ids.wo, att_out, dim, dim, p + "xo");
  ValueId x_att = AddOp(g,
                        {.kind = OpKind::kEltAdd, .name = p + "residual.att",
                         .layer = l, .inputs = {x, xo}, .m = dim},
                        p + "x.att");

  // FFN block.
  ValueId xb2 = AddOp(g,
                      {.kind = OpKind::kRmsNorm, .name = p + "rmsnorm.ffn",
                       .layer = l, .inputs = {x_att, ids.rms_ffn}, .m = dim},
                      p + "xb.ffn");
  ValueId hb =
      AddMatMul(g, p + "matmul.w1", l, ids.w1, xb2, hidden, dim, p + "hb");
  ValueId hb3 =
      AddMatMul(g, p + "matmul.w3", l, ids.w3, xb2, hidden, dim, p + "hb3");
  ValueId hs = AddOp(g,
                     {.kind = OpKind::kSilu, .name = p + "silu", .layer = l,
                      .inputs = {hb}, .m = hidden},
                     p + "h.silu");
  ValueId hg = AddOp(g,
                     {.kind = OpKind::kEltMul, .name = p + "gate", .layer = l,
                      .inputs = {hs, hb3}, .m = hidden},
                     p + "h.gated");
  ValueId xo2 =
      AddMatMul(g, p + "matmul.w2", l, ids.w2, hg, dim, hidden, p + "xo2");
  return AddOp(g,
               {.kind = OpKind::kEltAdd, .name = p + "residual.ffn",
                .layer = l, .inputs = {x_att, xo2}, .m = dim},
               p + "x.ffn");
}

}  // namespace

DecodeGraph BuildDecodeGraph(const llama::ModelConfig& config) {
  assert(config.Validate().ok());
  DecodeGraph dg;
  dg.config = config;
  Graph& g = dg.graph;
  const std::int64_t dim = config.dim;
  const std::int64_t vocab = config.vocab_size;

  dg.token_embedding = AddF32(g, "tok_emb", ValueKind::kWeight, vocab * dim);
  dg.rms_final = AddF32(g, "rms_final", ValueKind::kWeight, dim);
  dg.wcls = config.shared_classifier
                ? dg.token_embedding
                : AddF32(g, "wcls", ValueKind::kWeight, vocab * dim);

  // Embedding lookup produces the initial residual stream.
  ValueId x = AddOp(g,
                    {.kind = OpKind::kEmbedLookup, .name = "embed",
                     .inputs = {dg.token_embedding}, .m = dim},
                    "x.embed");
  dg.layers.reserve(config.n_layers);
  for (std::int32_t l = 0; l < config.n_layers; ++l) x = AddLayer(dg, l, x);

  // Final norm + classifier.
  ValueId xf = AddOp(g,
                     {.kind = OpKind::kRmsNorm, .name = "rmsnorm.final",
                      .inputs = {x, dg.rms_final}, .m = dim},
                     "x.final");
  dg.logits = g.AddValue("logits", ValueKind::kOutput, DType::kF32, vocab);
  AddOp(g, {.kind = OpKind::kMatMul, .name = "matmul.cls",
            .inputs = {dg.wcls, xf}, .outputs = {dg.logits}, .m = vocab,
            .k = dim});
  dg.x = x;
  return dg;
}

}  // namespace speedllm::graph
