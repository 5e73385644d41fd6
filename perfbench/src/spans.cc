#include "spans.h"

#include <fstream>

namespace perfbench {

SpanLog& Spans() {
  static SpanLog log;
  return log;
}

uint32_t SpanLog::Begin(const char* name) {
  SpanRecord span;
  span.name = name;
  span.parent = open_;
  span.job = job_;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
                      .count();
  spans_.push_back(span);
  open_ = static_cast<uint32_t>(spans_.size() - 1);
  return open_;
}

void SpanLog::End(uint32_t index) {
  SpanRecord& span = spans_[index];
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
                    .count();
  open_ = span.parent;
}

std::map<std::string, SpanTotals> SpanLog::Totals(size_t from, size_t to) const {
  std::vector<int64_t> self_ns(to, 0);
  for (size_t i = from; i < to; ++i) {
    const SpanRecord& span = spans_[i];
    const int64_t duration = span.end_ns - span.start_ns;
    self_ns[i] += duration;
    if (span.parent != kNoParent && span.parent >= from) {
      self_ns[span.parent] -= duration;
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = from; i < to; ++i) {
    SpanTotals& entry = totals[spans_[i].name];
    entry.self_s += static_cast<double>(self_ns[i]) * 1e-9;
    entry.total_s += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
    ++entry.calls;
  }
  return totals;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    out << "{\"name\":\"" << span.name << "\",\"id\":" << i << ",\"parent\":";
    if (span.parent == kNoParent) {
      out << "null";
    } else {
      out << span.parent;
    }
    out << ",\"job\":" << span.job << ",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << "}\n";
  }
  return out.good();
}

}  // namespace perfbench
