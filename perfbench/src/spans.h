// Span recording for the traced run (--trace 1).
//
// The benchmark wraps each call it makes into a simulator module in a span
// named "<layer>.<call>", e.g. "asm.Assemble" or "snap.RestoreSnapshot". A
// span records its name, start and end (steady clock), the span that was open
// when it began (its parent) and the id of the guest run or trial it belongs
// to. Spans stay in memory while the workload runs and are written out at the
// end. A span's self time is its duration minus the durations of its direct
// children, so the self times of all spans under a root add up to the root's
// duration exactly.
//
// With recording disabled (--trace 0, and the untraced rounds of a traced
// run) a ScopedSpan costs one branch.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

struct SpanRecord {
  const char* name = "";  // "<layer>.<call>", a string literal
  uint32_t parent = 0;    // index into the log, or kNoParent
  uint64_t job = 0;       // guest run or trial the span belongs to
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct SpanTotals {
  double self_s = 0.0;
  double total_s = 0.0;
  uint64_t calls = 0;
};

class SpanLog {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_job(uint64_t job) { job_ = job; }

  uint32_t Begin(const char* name);
  void End(uint32_t index);

  size_t size() const { return spans_.size(); }

  // Self time, inclusive time and call count per span name, over the spans
  // recorded in [from, to).
  std::map<std::string, SpanTotals> Totals(size_t from, size_t to) const;

  // One JSON object per line: name, id, parent, job, start_ns, end_ns.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  uint32_t open_ = kNoParent;
  uint64_t job_ = 0;
  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
};

// The process-wide log (the benchmark is single-threaded).
SpanLog& Spans();

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : index_(Spans().enabled() ? Spans().Begin(name) : SpanLog::kNoParent) {}
  ~ScopedSpan() {
    if (index_ != SpanLog::kNoParent) {
      Spans().End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
