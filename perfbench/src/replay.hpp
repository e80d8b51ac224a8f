// perfbench -- per-layer metrics of the traced run.
//
// Standalone replays drive the inner layers with the workload's own
// inputs, taken from the public outcomes of a pass: the (token, pos)
// stream through accel::Executor::Forward and llama::ReferenceModel, the
// logits through llama::Sampler, the model's MatMul and attention shapes
// through the llama:: kernels, the sequence lifecycle through
// serving::KvBlockPool, and the workload's event count through
// sim::Engine. Every replayed call is wrapped in a span; the layer
// metrics are read back from those spans, from the spans of the traced
// passes, and from the passes' reports.
#pragma once

#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Host-time ratios measured by the traced run's extra passes.
struct OverheadRatios {
  /// Untraced over traced host_tokens_per_s (medians).
  double trace = 0.0;
  /// Workload's telemetry setting over telemetry off, host time of the
  /// timed region (0 for paper-15m, which has no telemetry).
  double record = 0.0;
};

/// Runs the replays (recording their spans into `spans`) and returns
/// every per-layer metric, in report order. `traced` are the passes that
/// ran with spans on. Replay failures are appended to `errors`.
Metrics LayerMetrics(const Inputs& inputs, const std::vector<PassResult>& traced,
                     const OverheadRatios& ratios, SpanRecorder& spans,
                     std::vector<std::string>* errors);

}  // namespace perfbench
