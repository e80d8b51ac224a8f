// perfbench -- in-memory host-time spans recorded around calls into each
// layer's public functions.
//
// Spans live only in the benchmark's own files: the program under test is
// not instrumented. A span keeps its name, start, end, the span that was
// open when it began (its parent) and the request it served (-1 for
// none). The recorder holds every span in memory; WriteJson writes them
// out once, when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded call. Times are nanoseconds since the recorder started.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;      ///< index of the enclosing span, or -1
  std::int64_t request_id = -1;  ///< request the call served, or -1
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Append-only span store with a stack of open spans. Disabled recorders
/// record nothing, so the same call sites serve traced and untraced runs.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled = false);

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when disabled. `name` must outlive the recorder (a literal).
  std::int32_t Begin(const char* name, std::int64_t request_id = -1);
  /// Closes span `index` (a no-op for -1).
  void End(std::int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in nanoseconds of every span named `name`.
  std::vector<double> DurationsNs(const std::string& name) const;
  /// Summed self time per span name, nanoseconds.
  std::map<std::string, std::int64_t> SelfTimeByName() const;

  /// Writes `header` (a JSON object literal) and every span to `path` as
  /// {"provenance": header, "spans": [[name, start, end, parent, req]...]}.
  /// Returns false when the file cannot be written.
  bool WriteJson(const std::string& path, const std::string& header) const;

 private:
  std::int64_t NowNs() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name,
             std::int64_t request_id = -1)
      : recorder_(recorder), index_(recorder.Begin(name, request_id)) {}
  ~ScopedSpan() { recorder_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  std::int32_t index_;
};

}  // namespace perfbench
