#include "trace/trace.h"

#include <algorithm>

#include "snap/snapstream.h"
#include "support/strings.h"
#include "trace/json.h"

namespace msim {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kRetire:
      return "retire";
    case TraceEventKind::kMenter:
      return "menter";
    case TraceEventKind::kMexit:
      return "mexit";
    case TraceEventKind::kChainFold:
      return "chain_fold";
    case TraceEventKind::kTrap:
      return "trap";
    case TraceEventKind::kInterrupt:
      return "interrupt";
    case TraceEventKind::kIntercept:
      return "intercept";
    case TraceEventKind::kICacheMiss:
      return "icache_miss";
    case TraceEventKind::kDCacheMiss:
      return "dcache_miss";
    case TraceEventKind::kTlbMiss:
      return "tlb_miss";
    case TraceEventKind::kMramAccess:
      return "mram_access";
    case TraceEventKind::kStall:
      return "stall";
    case TraceEventKind::kFlush:
      return "flush";
    case TraceEventKind::kFaultInject:
      return "fault_inject";
    case TraceEventKind::kMachineCheck:
      return "machine_check";
    case TraceEventKind::kCount:
      break;
  }
  return "unknown";
}

RingBufferSink::RingBufferSink(size_t capacity, uint32_t kinds)
    : capacity_(capacity == 0 ? 1 : capacity), kinds_(kinds) {
  buffer_.reserve(std::min<size_t>(capacity_, 4096));
}

void RingBufferSink::OnEvent(const TraceEvent& event) {
  if (!Records(event.kind)) {
    return;
  }
  ++total_;
  if (buffer_.size() < capacity_) {
    buffer_.push_back(event);
    return;
  }
  buffer_[next_] = event;
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

std::vector<TraceEvent> RingBufferSink::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(buffer_.size());
  for (size_t i = 0; i < buffer_.size(); ++i) {
    out.push_back(buffer_[(next_ + i) % buffer_.size()]);
  }
  return out;
}

void WriteTraceEventJson(JsonWriter& json, const TraceEvent& event) {
  json.BeginObject();
  json.Field("cycle", event.cycle);
  json.Field("kind", TraceEventKindName(event.kind));
  json.Field("pc", event.pc);
  json.Field("arg0", event.arg0);
  json.Field("arg1", event.arg1);
  json.Field("metal", event.metal);
  json.EndObject();
}

void RingBufferSink::AppendJson(JsonWriter& json) const {
  json.Field("capacity", static_cast<uint64_t>(capacity_));
  json.Field("total", total_);
  json.Field("dropped", dropped_);
  json.BeginArray("events");
  for (const TraceEvent& event : Events()) {
    WriteTraceEventJson(json, event);
  }
  json.EndArray();
}

namespace {
// One retained event: kind, metal, cycle, pc, arg0, arg1.
template <typename Io, typename Event>
void TransferEvent(Io& io, Event& event) {
  io.U8As(event.kind);
  if constexpr (Io::kReading) {
    event.kind = static_cast<TraceEventKind>(static_cast<uint8_t>(event.kind) %
                                             static_cast<uint8_t>(TraceEventKind::kCount));
  }
  io.Bool(event.metal);
  io.U64(event.cycle);
  io.U32(event.pc);
  io.U32(event.arg0);
  io.U32(event.arg1);
}
}  // namespace

template <typename Self, typename Io>
Status RingBufferSink::TransferState(Self& self, Io& io) {
  // A filtered ring is a flight recorder, whose capacity --flight-events caps.
  const bool flight = self.kinds_ != kAllKinds;
  const char* what = flight ? "flight recorder" : "trace ring";
  uint64_t capacity = self.capacity_;
  io.U64(capacity);
  if constexpr (Io::kReading) {
    if (capacity == 0 || capacity > (flight ? kMaxFlightCapacity : uint64_t{1} << 24)) {
      return InvalidArgument(StrFormat("%s snapshot: implausible capacity", what));
    }
    self.capacity_ = static_cast<size_t>(capacity);
  }
  io.U64(self.total_);
  io.U64(self.dropped_);
  std::vector<TraceEvent> events;
  if constexpr (!Io::kReading) {
    events = self.Events();
  }
  uint64_t count = events.size();
  io.U64(count);
  if constexpr (Io::kReading) {
    if (count > capacity) {
      return InvalidArgument(StrFormat("%s snapshot: count exceeds capacity", what));
    }
    events.resize(count);
  }
  for (TraceEvent& event : events) {
    TransferEvent(io, event);
  }
  if constexpr (Io::kReading) {
    self.buffer_ = std::move(events);
    self.next_ = 0;
  }
  return io.ToStatus(what);
}

void RingBufferSink::SaveState(SnapWriter& w) const { TransferState(*this, w); }

Status RingBufferSink::RestoreState(SnapReader& r) { return TransferState(*this, r); }

}  // namespace msim
