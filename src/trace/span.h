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
// budget.
//
// The same spans give the per-mroutine profile. A span's cycles go to its
// entry when it closes or aborts; a Metal retire goes to the innermost open
// span's entry or, with none open, to the entry of the span that closed last
// (the slow-path mexit retires after its own exit event). Machine-check and
// scrub-retry spans carry no entry, so they land in the "(other)" row. A span
// covers exactly the cycles CoreStats counts as Metal cycles (after the
// entering event, up to and including the exiting one), so the profile sums
// to CoreStats.metal_cycles and metal_instret when the sink sees the whole
// run.
//
// Everything is computed from committed trace events only, so fast
// (StepFast) and per-cycle runs produce identical spans, histograms and
// profiles, and the checkpoint sections make a restored run's statistics
// byte-identical.
#ifndef MSIM_TRACE_SPAN_H_
#define MSIM_TRACE_SPAN_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <ostream>
#include <vector>

#include "cpu/trap.h"
#include "isa/isa.h"
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
  // One row of the per-mroutine profile.
  struct EntryProfile {
    uint64_t enters = 0;       // menter invocations (fast or slow path)
    uint64_t trap_enters = 0;  // deliveries via exception/interrupt/intercept
    uint64_t instret = 0;      // Metal instructions retired under this entry
    uint64_t cycles = 0;       // Metal cycles attributed to this entry

    uint64_t total_enters() const { return enters + trap_enters; }
  };

  // Keeps the most recent `retain` completed spans for export; aggregate
  // counters, histograms and the profile cover the whole run regardless.
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

  // Per-mroutine profile: one row per entry, then the (other) row for Metal
  // activity tied to no entry (machine-check and scrub-retry spans, retires
  // seen before any span).
  const std::array<EntryProfile, kMaxMroutines + 1>& entries() const { return rows_; }
  const EntryProfile& other() const { return rows_[kMaxMroutines]; }
  EntryProfile total() const;  // sum of all rows: the run's Metal totals
  uint64_t normal_instret() const { return normal_instret_; }
  uint64_t chain_folds() const { return chain_folds_; }

  // Paper-style breakdown (normal vs. Metal vs. per-entry), skipping entries
  // that were never entered. `total_cycles` scales the %cycles column.
  void WriteProfileText(std::ostream& out, uint64_t total_cycles) const;

  // Appends {"entries": [...], "totals": {...}} members to an open object.
  void AppendProfileJson(JsonWriter& json, uint64_t total_cycles) const;

  // Checkpoint/restore (src/snap), one method pair per snapshot section.
  // "spans": counters, histograms, the open-span stack and the retained
  // spans (a payload that predates the retained list restores an empty one).
  void SaveState(SnapWriter& w) const;
  Status RestoreState(SnapReader& r);
  // "profiler": the profile rows plus the innermost open span's entry and
  // start and the last closed span's entry. Restored without "spans", it
  // reopens that span so the rest of the episode is still charged.
  void SaveProfileState(SnapWriter& w) const;
  Status RestoreProfileState(SnapReader& r);

 private:
  // The one field list behind SaveState and RestoreState (snap/snapstream.h).
  template <typename Self, typename Io>
  static Status TransferState(Self& self, Io& io);

  void Open(SpanClass cls, uint32_t code, uint32_t entry, uint64_t cycle, uint64_t cause);
  void Close(uint64_t cycle, bool aborted);
  void Retain(const Span& span);
  void RecordLatency(const Span& span);
  EntryProfile& Row(uint32_t entry) { return rows_[std::min<uint32_t>(entry, kMaxMroutines)]; }

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

  std::array<EntryProfile, kMaxMroutines + 1> rows_{};
  uint64_t normal_instret_ = 0;
  uint64_t chain_folds_ = 0;
  uint32_t last_entry_ = Span::kNoEntry;  // entry of the span that closed last
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
