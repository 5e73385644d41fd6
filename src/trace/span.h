// Causal span tracing: turns the flat trace-event stream into linked,
// cycle-exact service spans.
//
// A span covers one Metal-mode service episode: it opens when the core
// delivers a trap/interrupt or commits an menter, and closes at the matching
// mexit. Spans carry two links:
//   * parent — the span that was open (stacked) when this one began, so
//     nested entries (an mroutine calling another via menter) stay connected;
//   * cause  — the span whose *failure or completion* produced this one.
//     A machine check aborts the open span and opens a recovery span whose
//     cause is the aborted span; a recovery mexit that resumes into MRAM
//     (scrub-and-retry, docs/robustness.md) opens a retry span whose cause is
//     the recovery span. A double-faulting pagefault therefore leaves a
//     three-link chain: trap -> machine check -> scrub-retry.
//
// The sink also aggregates per-event-class service latency histograms
// (trace/histogram.h): trap entry->resume per exception cause, interrupt
// delivery, menter calls, machine-check recovery, scrub-retry and — when a
// watchdog budget is configured — the per-span margin left under that
// budget. Everything is computed from committed trace events only, so fast
// (StepFast) and per-cycle runs produce identical spans and histograms, and
// SaveState/RestoreState make a restored run's statistics byte-identical.
#ifndef MSIM_TRACE_SPAN_H_
#define MSIM_TRACE_SPAN_H_

#include <array>
#include <cstdint>
#include <ostream>
#include <vector>

#include "cpu/trap.h"
#include "support/result.h"
#include "trace/histogram.h"
#include "trace/trace.h"

namespace msim {

class JsonWriter;
class MetricRegistry;
class SnapWriter;
class SnapReader;

enum class SpanClass : uint8_t {
  kMenter = 0,     // explicit menter instruction (fast or slow path)
  kTrap,           // exception delivery (including interception)
  kInterrupt,      // interrupt delivery
  kMachineCheck,   // machine-check recovery episode
  kScrubRetry,     // retried mroutine after a recovery mexit into MRAM
  kCount,
};

const char* SpanClassName(SpanClass cls);

struct Span {
  uint64_t id = 0;       // 1-based, sequential in open order
  uint64_t parent = 0;   // enclosing open span at open time (0 = none)
  uint64_t cause = 0;    // causal predecessor span (0 = none)
  SpanClass cls = SpanClass::kMenter;
  // Class-specific code: menter/trap/interrupt carry the delivery code
  // (entry, ExcCause, irq line); machine check the McheckKind; scrub-retry
  // the MRAM resume address.
  uint32_t code = 0;
  uint32_t entry = 0;    // mroutine entry number (kNoEntry when unknown)
  uint64_t begin_cycle = 0;
  uint64_t end_cycle = 0;
  bool closed = false;
  bool aborted = false;  // ended by a machine check instead of mexit

  static constexpr uint32_t kNoEntry = 0xFFFFFFFF;
  uint64_t cycles() const { return end_cycle - begin_cycle; }
};

class SpanSink : public TraceSink {
 public:
  // Keeps the most recent `retain` completed spans for export; aggregate
  // counters and histograms cover the whole run regardless.
  explicit SpanSink(size_t retain = 4096);

  void OnEvent(const TraceEvent& event) override;

  // Closes (as aborted) any span still open when the simulation stopped.
  // Call with Core::cycle() after the run, before exporting.
  void Finalize(uint64_t final_cycle);

  // Enables watchdog-margin recording: every closed Metal span records
  // `budget - cycles` (clamped at 0) into watchdog_margin(). 0 disables.
  void SetWatchdogBudget(uint64_t cycles) { watchdog_budget_ = cycles; }

  // Registers span counters (component "span") and latency histograms
  // (component "latency") so they appear in --stats-json / --trace-stats.
  void RegisterMetrics(MetricRegistry& registry);

  // Retained completed spans, oldest first.
  std::vector<Span> Spans() const;
  uint64_t opened() const { return opened_; }
  uint64_t closed() const { return closed_; }
  uint64_t aborted() const { return aborted_; }
  uint64_t retained_dropped() const { return retained_dropped_; }
  size_t open_depth() const { return open_.size(); }

  const Histogram& trap_latency(ExcCause cause) const {
    return trap_latency_[static_cast<uint32_t>(cause) % kNumExcCauses];
  }
  const Histogram& interrupt_latency() const { return interrupt_latency_; }
  const Histogram& menter_latency() const { return menter_latency_; }
  const Histogram& machine_check_latency() const { return machine_check_latency_; }
  const Histogram& scrub_retry_latency() const { return scrub_retry_latency_; }
  const Histogram& watchdog_margin() const { return watchdog_margin_; }

  // Appends {"opened": ..., "closed": ..., "aborted": ..., "spans": [...]}
  // members (the retained spans with their links) to an open object.
  void AppendJson(JsonWriter& json) const;

  // Checkpoint/restore (src/snap): counters, histograms and the open-span
  // stack. The retained completed-span ring is bounded export state and is
  // not serialized; a restored run's Chrome trace holds only the spans that
  // completed after the restore point.
  void SaveState(SnapWriter& w) const;
  Status RestoreState(SnapReader& r);

 private:
  void Open(SpanClass cls, uint32_t code, uint32_t entry, uint64_t cycle, uint64_t cause);
  void Close(uint64_t cycle, bool aborted);
  void Retain(const Span& span);
  void RecordLatency(const Span& span);

  std::vector<Span> open_;   // stack, innermost last
  std::vector<Span> done_;   // ring of retained completed spans
  size_t retain_;
  size_t done_next_ = 0;
  uint64_t next_id_ = 1;
  uint64_t opened_ = 0;
  uint64_t closed_ = 0;
  uint64_t aborted_ = 0;
  uint64_t retained_dropped_ = 0;
  uint64_t watchdog_budget_ = 0;

  std::array<Histogram, kNumExcCauses> trap_latency_{};
  Histogram interrupt_latency_;
  Histogram menter_latency_;
  Histogram machine_check_latency_;
  Histogram scrub_retry_latency_;
  Histogram watchdog_margin_;
};

// Writes Chrome trace_event JSON ({"traceEvents": [...]}) that loads in
// Perfetto / chrome://tracing, with simulated cycles as microseconds:
// complete ("X") slices come from the spans (nesting preserved), flow arrows
// (ph "s"/"f") connect each span to its causal predecessor, and the events
// other than menter/mexit/trap/interrupt render as instants.
void ExportChromeTrace(const std::vector<TraceEvent>& events, const std::vector<Span>& spans,
                       std::ostream& out);

}  // namespace msim

#endif  // MSIM_TRACE_SPAN_H_
