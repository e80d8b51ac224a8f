#include "llama/kernels.hpp"

#include <cassert>
#include <cmath>

namespace speedllm::llama {

void MatMul(std::span<float> out, std::span<const float> w,
            std::span<const float> x, std::int64_t d, std::int64_t n,
            ThreadPool* pool) {
  assert(out.size() == static_cast<std::size_t>(d));
  assert(w.size() == static_cast<std::size_t>(d * n));
  assert(x.size() == static_cast<std::size_t>(n));
  const float* xv = x.data();
  // Four rows per step: four independent accumulator chains share each
  // x[j] load. Every row is still one left-to-right fp32 sum, so the
  // result is bit-identical to the one-row loop.
  auto rows = [&](std::int64_t begin, std::int64_t end) {
    std::int64_t i = begin;
    for (; i + 4 <= end; i += 4) {
      const float* w0 = w.data() + i * n;
      const float* w1 = w0 + n;
      const float* w2 = w1 + n;
      const float* w3 = w2 + n;
      float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
      for (std::int64_t j = 0; j < n; ++j) {
        const float xj = xv[j];
        acc0 += w0[j] * xj;
        acc1 += w1[j] * xj;
        acc2 += w2[j] * xj;
        acc3 += w3[j] * xj;
      }
      out[i] = acc0;
      out[i + 1] = acc1;
      out[i + 2] = acc2;
      out[i + 3] = acc3;
    }
    for (; i < end; ++i) {
      const float* wrow = w.data() + i * n;
      float acc = 0.0f;
      for (std::int64_t j = 0; j < n; ++j) acc += wrow[j] * xv[j];
      out[i] = acc;
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(d, rows);
  } else {
    rows(0, d);
  }
}

void RmsNorm(std::span<float> out, std::span<const float> x,
             std::span<const float> weight) {
  assert(out.size() == x.size() && x.size() == weight.size());
  double ss = 0.0;
  for (float v : x) ss += static_cast<double>(v) * v;
  float inv_rms = 1.0f / std::sqrt(static_cast<float>(ss / x.size()) + 1e-5f);
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = weight[i] * (inv_rms * x[i]);
  }
}

void Softmax(std::span<float> x) {
  if (x.empty()) return;
  float max_val = x[0];
  for (float v : x) max_val = std::max(max_val, v);
  float sum = 0.0f;
  for (float& v : x) {
    v = std::exp(v - max_val);
    sum += v;
  }
  float inv = 1.0f / sum;
  for (float& v : x) v *= inv;
}

void Silu(std::span<float> x) {
  for (float& v : x) {
    v = v / (1.0f + std::exp(-v)) ;
  }
}

void AddInPlace(std::span<float> out, std::span<const float> a) {
  assert(out.size() == a.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] += a[i];
}

void MulInPlace(std::span<float> out, std::span<const float> a) {
  assert(out.size() == a.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] *= a[i];
}

void Rope(std::span<float> q, std::span<float> k, std::int32_t pos,
          std::int32_t head_dim) {
  assert(head_dim % 2 == 0);
  // llama2.c: iterate over the flattened vector; rotation frequency
  // depends on the index within the head.
  auto rotate = [&](std::span<float> v) {
    for (std::size_t i = 0; i + 1 < v.size(); i += 2) {
      std::int32_t head_idx = static_cast<std::int32_t>(i) % head_dim;
      float freq = 1.0f / std::pow(10000.0f,
                                   static_cast<float>(head_idx) /
                                       static_cast<float>(head_dim));
      float val = static_cast<float>(pos) * freq;
      float fcr = std::cos(val);
      float fci = std::sin(val);
      float v0 = v[i], v1 = v[i + 1];
      v[i] = v0 * fcr - v1 * fci;
      v[i + 1] = v0 * fci + v1 * fcr;
    }
  };
  rotate(q);
  rotate(k);
}

void AttentionHead(std::span<float> out, std::span<const float> q,
                   const float* k_cache, const float* v_cache,
                   std::int32_t pos, std::int32_t head_dim,
                   std::int64_t stride, std::span<float> scores_scratch) {
  assert(out.size() == static_cast<std::size_t>(head_dim));
  assert(q.size() == static_cast<std::size_t>(head_dim));
  assert(scores_scratch.size() >= static_cast<std::size_t>(pos + 1));
  float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  std::span<float> scores = scores_scratch.subspan(0, pos + 1);
  for (std::int32_t t = 0; t <= pos; ++t) {
    const float* krow = k_cache + static_cast<std::int64_t>(t) * stride;
    float acc = 0.0f;
    for (std::int32_t i = 0; i < head_dim; ++i) acc += q[i] * krow[i];
    scores[t] = acc * scale;
  }
  Softmax(scores);
  for (std::int32_t i = 0; i < head_dim; ++i) out[i] = 0.0f;
  for (std::int32_t t = 0; t <= pos; ++t) {
    const float* vrow = v_cache + static_cast<std::int64_t>(t) * stride;
    float s = scores[t];
    for (std::int32_t i = 0; i < head_dim; ++i) out[i] += s * vrow[i];
  }
}

}  // namespace speedllm::llama
