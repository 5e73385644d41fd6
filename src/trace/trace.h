// Structured event tracing for the simulator.
//
// Components emit typed TraceEvents through a Tracer — a thin, non-owning
// emitter that stamps the current simulated cycle and forwards to an attached
// TraceSink. With no sink attached, emission is a single branch. Every
// observer of what the core committed reads this one stream (kRetire events
// carry the retired instructions). Sinks:
//   * RingBufferSink keeps the most recent N events of the kinds it records
//     (drop-oldest); filtered to kFlightKinds it is the flight recorder,
//   * TeeSink fans one event stream out to several sinks,
//   * SpanSink (trace/span.h) links transitions into service spans and
//     aggregates their latencies and the per-mroutine profile; its
//     ExportChromeTrace writes the Chrome trace_event JSON file.
#ifndef MSIM_TRACE_TRACE_H_
#define MSIM_TRACE_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/result.h"

namespace msim {

class JsonWriter;
class SnapWriter;
class SnapReader;

enum class TraceEventKind : uint8_t {
  kRetire = 0,     // pc, arg0 = raw instruction word
  kMenter,         // pc = menter pc, arg0 = entry, arg1 = handler address
  kMexit,          // pc = mexit pc, arg0 = resume address, arg1 = exit flags
                   //   (bit 0: Metal mode retained — MRAM resume; bit 1:
                   //    machine-check recovery exit, i.e. scrub-and-retry)
  kChainFold,      // pc, arg0 = enters, arg1 = exits folded into one op
  kTrap,           // pc = epc, arg0 = cause, arg1 = entry
  kInterrupt,      // pc = epc, arg0 = mcause (top bit set), arg1 = entry
  kIntercept,      // pc = intercepted pc, arg0 = raw word, arg1 = entry
  kICacheMiss,     // pc = paddr
  kDCacheMiss,     // pc = paddr
  kTlbMiss,        // pc = vaddr, arg0 = access type (AccessType)
  kMramAccess,     // pc = address/offset, arg0: 0 = fetch, 1 = load, 2 = store
  kStall,          // pc, arg0 = stall kind (0 = load-use)
  kFlush,          // pc = redirect target
  kFaultInject,    // pc = location, arg0 = FaultTarget, arg1 = xor mask
  kMachineCheck,   // pc = epc, arg0 = McheckKind, arg1 = info word
  kCount,
};

// Stable lowercase name for exporters ("retire", "menter", ...).
const char* TraceEventKindName(TraceEventKind kind);

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kRetire;
  bool metal = false;  // emitted while the committed mode was Metal
  uint64_t cycle = 0;
  uint32_t pc = 0;     // primary address (pc or memory address)
  uint32_t arg0 = 0;   // kind-specific, see TraceEventKind
  uint32_t arg1 = 0;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnEvent(const TraceEvent& event) = 0;
};

// Bit of `kind` in a RingBufferSink kind filter.
constexpr uint32_t KindBit(TraceEventKind kind) { return 1u << static_cast<uint32_t>(kind); }

// Bounded recorder: keeps the most recent `capacity` events of the kinds in
// its filter, oldest first (drop-oldest). Unfiltered, it feeds the Chrome
// trace export and the crash dump's "trace" window. Filtered to kFlightKinds
// it is the flight recorder: the small "what led up to this" window of
// architectural events embedded in crash dumps. The filter is fixed at
// construction.
class RingBufferSink : public TraceSink {
 public:
  static constexpr uint32_t kAllKinds = ~0u;

  explicit RingBufferSink(size_t capacity = 1 << 20, uint32_t kinds = kAllKinds);

  bool Records(TraceEventKind kind) const { return (kinds_ & KindBit(kind)) != 0; }
  void OnEvent(const TraceEvent& event) override;

  // Events in emission order (oldest first).
  std::vector<TraceEvent> Events() const;
  uint64_t dropped() const { return dropped_; }  // recorded minus retained
  uint64_t total() const { return total_; }      // events recorded

  // Appends capacity/total/dropped and an "events" array to an open object.
  void AppendJson(JsonWriter& json) const;

  // Checkpoint/restore (src/snap): the retained window rides in snapshots so
  // a restored run's crash-dump windows match the straight run's byte for
  // byte even when part of a window predates the restore point. A restore
  // takes its capacity from the snapshot, up to 2^24 events, or up to
  // kMaxFlightCapacity for a filtered ring.
  void SaveState(SnapWriter& w) const;
  Status RestoreState(SnapReader& r);

 private:
  // The one field list behind SaveState and RestoreState (snap/snapstream.h).
  template <typename Self, typename Io>
  static Status TransferState(Self& self, Io& io);

  std::vector<TraceEvent> buffer_;
  size_t capacity_;
  uint32_t kinds_;
  size_t next_ = 0;
  uint64_t total_ = 0;
  uint64_t dropped_ = 0;
};

// The flight recorder's filter: retires, transitions (menter/mexit/chain
// folds), trap/interrupt/intercept deliveries, fault injections and machine
// checks. Cache/TLB misses, MRAM accesses, stalls and flushes are high-rate
// microarchitectural noise and are left out.
constexpr uint32_t kFlightKinds =
    KindBit(TraceEventKind::kRetire) | KindBit(TraceEventKind::kMenter) |
    KindBit(TraceEventKind::kMexit) | KindBit(TraceEventKind::kChainFold) |
    KindBit(TraceEventKind::kTrap) | KindBit(TraceEventKind::kInterrupt) |
    KindBit(TraceEventKind::kIntercept) | KindBit(TraceEventKind::kFaultInject) |
    KindBit(TraceEventKind::kMachineCheck);
constexpr size_t kFlightCapacity = 256;
constexpr uint64_t kMaxFlightCapacity = 1u << 20;

// Writes one event as a JSON object ({"cycle", "kind", "pc", "arg0", "arg1",
// "metal"}); the crash dump's windows are arrays of these.
void WriteTraceEventJson(JsonWriter& json, const TraceEvent& event);

// Forwards every event to each attached sink (non-owning).
class TeeSink : public TraceSink {
 public:
  void Add(TraceSink* sink) {
    if (sink != nullptr) {
      sinks_.push_back(sink);
    }
  }
  void OnEvent(const TraceEvent& event) override {
    for (TraceSink* sink : sinks_) {
      sink->OnEvent(event);
    }
  }

 private:
  std::vector<TraceSink*> sinks_;
};

// The emitter embedded in instrumented components. Non-owning: the sink and
// the cycle counter belong to the caller (Core wires both). Components hold a
// Tracer* and call Emit unconditionally; a null sink makes it a no-op.
class Tracer {
 public:
  void Attach(TraceSink* sink, const uint64_t* cycle) {
    sink_ = sink;
    cycle_ = cycle;
  }
  void Detach() { sink_ = nullptr; }
  bool enabled() const { return sink_ != nullptr; }
  TraceSink* sink() const { return sink_; }

  void Emit(TraceEventKind kind, uint32_t pc, uint32_t arg0 = 0, uint32_t arg1 = 0,
            bool metal = false) {
    if (sink_ == nullptr) {
      return;
    }
    TraceEvent event;
    event.kind = kind;
    event.metal = metal;
    event.cycle = cycle_ != nullptr ? *cycle_ : 0;
    event.pc = pc;
    event.arg0 = arg0;
    event.arg1 = arg1;
    sink_->OnEvent(event);
  }

 private:
  TraceSink* sink_ = nullptr;
  const uint64_t* cycle_ = nullptr;
};

}  // namespace msim

#endif  // MSIM_TRACE_TRACE_H_
