#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals, clipped to the
    // parent's own interval.
    std::int64_t covered = 0;
    std::int64_t cursor = span.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, span.end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = (span.end_ns - span.start_ns) - covered;
  }
  return self;
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

std::int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::int32_t SpanRecorder::Begin(const char* name, std::int64_t request_id) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request_id = request_id;
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  // Read the clock last so the span's own bookkeeping is not inside it.
  spans_.back().start_ns = NowNs();
  return index;
}

void SpanRecorder::End(std::int32_t index) {
  if (index < 0) return;
  const std::int64_t now = NowNs();
  spans_[static_cast<std::size_t>(index)].end_ns = now;
  // Spans close innermost first; tolerate an out-of-order close by
  // dropping everything above the closed span.
  auto it = std::find(open_.begin(), open_.end(), index);
  if (it != open_.end()) open_.erase(it, open_.end());
}

std::vector<double> SpanRecorder::DurationsNs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns));
    }
  }
  return out;
}

std::map<std::string, std::int64_t> SpanRecorder::SelfTimeByName() const {
  const std::vector<std::int64_t> self = SelfTimesNs(spans_);
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += self[i];
  }
  return out;
}

bool SpanRecorder::WriteJson(const std::string& path,
                             const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"provenance\": %s,\n\"spans\": [", header.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n[\"%s\", %lld, %lld, %d, %lld]", i == 0 ? "" : ",",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.request_id));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
