#include "trace/span.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "snap/snapstream.h"
#include "support/strings.h"
#include "trace/json.h"
#include "trace/metrics.h"

namespace msim {

const char* SpanClassName(SpanClass cls) {
  switch (cls) {
    case SpanClass::kMenter:
      return "menter";
    case SpanClass::kTrap:
      return "trap";
    case SpanClass::kInterrupt:
      return "interrupt";
    case SpanClass::kMachineCheck:
      return "machine_check";
    case SpanClass::kScrubRetry:
      return "scrub_retry";
    case SpanClass::kCount:
      break;
  }
  return "unknown";
}

SpanSink::SpanSink(size_t retain) : retain_(retain == 0 ? 1 : retain) {
  done_.reserve(std::min<size_t>(retain_, 256));
}

void SpanSink::Open(SpanClass cls, uint32_t code, uint32_t entry, uint64_t cycle,
                    uint64_t cause) {
  Span span;
  span.id = next_id_++;
  span.parent = open_.empty() ? 0 : open_.back().id;
  span.cause = cause;
  span.cls = cls;
  span.code = code;
  span.entry = entry;
  span.begin_cycle = cycle;
  open_.push_back(span);
  ++opened_;
  if (cls == SpanClass::kMenter) {
    ++Row(entry).enters;
  } else if (cls == SpanClass::kTrap || cls == SpanClass::kInterrupt) {
    ++Row(entry).trap_enters;
  }
}

void SpanSink::Close(uint64_t cycle, bool aborted) {
  Span span = open_.back();
  open_.pop_back();
  span.end_cycle = cycle;
  span.closed = true;
  span.aborted = aborted;
  Row(span.entry).cycles += span.cycles();
  last_entry_ = span.entry;
  if (aborted) {
    ++aborted_;
  } else {
    ++closed_;
    RecordLatency(span);
  }
  Retain(span);
}

void SpanSink::RecordLatency(const Span& span) {
  const uint64_t cycles = span.cycles();
  switch (span.cls) {
    case SpanClass::kMenter:
      menter_latency_.Record(cycles);
      break;
    case SpanClass::kTrap:
      trap_latency_[span.code % kNumExcCauses].Record(cycles);
      break;
    case SpanClass::kInterrupt:
      interrupt_latency_.Record(cycles);
      break;
    case SpanClass::kMachineCheck:
      machine_check_latency_.Record(cycles);
      break;
    case SpanClass::kScrubRetry:
      scrub_retry_latency_.Record(cycles);
      break;
    case SpanClass::kCount:
      break;
  }
  if (watchdog_budget_ != 0) {
    watchdog_margin_.Record(watchdog_budget_ > cycles ? watchdog_budget_ - cycles : 0);
  }
}

void SpanSink::Retain(const Span& span) {
  if (done_.size() < retain_) {
    done_.push_back(span);
    return;
  }
  done_[done_next_] = span;
  done_next_ = (done_next_ + 1) % retain_;
  ++retained_dropped_;
}

void SpanSink::OnEvent(const TraceEvent& event) {
  switch (event.kind) {
    case TraceEventKind::kMenter:
      Open(SpanClass::kMenter, event.arg0, event.arg0, event.cycle, /*cause=*/0);
      break;
    case TraceEventKind::kTrap:
      Open(SpanClass::kTrap, event.arg0, event.arg1, event.cycle, /*cause=*/0);
      break;
    case TraceEventKind::kInterrupt:
      Open(SpanClass::kInterrupt, event.arg0 & ~kInterruptCauseFlag, event.arg1, event.cycle,
           /*cause=*/0);
      break;
    case TraceEventKind::kMexit: {
      if (open_.empty()) {
        break;  // attached mid-run: exit without a recorded entry
      }
      const uint64_t ended = open_.back().id;
      Close(event.cycle, /*aborted=*/false);
      // arg1 bit 1: this exit ended a machine-check recovery AND resumed into
      // MRAM — the scrub-and-retry path. The retried mroutine runs without a
      // fresh delivery event, so open its span here, caused by the recovery.
      if ((event.arg1 & 2) != 0) {
        Open(SpanClass::kScrubRetry, event.pc, Span::kNoEntry, event.cycle, /*cause=*/ended);
        open_.back().code = event.arg0;  // MRAM resume (retry) address
      }
      break;
    }
    case TraceEventKind::kMachineCheck: {
      // The check aborts whatever was in service; the innermost aborted span
      // is the cause of the recovery episode that now begins.
      uint64_t cause = 0;
      if (!open_.empty()) {
        cause = open_.back().id;
        while (!open_.empty()) {
          Close(event.cycle, /*aborted=*/true);
        }
      }
      Open(SpanClass::kMachineCheck, event.arg0, Span::kNoEntry, event.cycle, cause);
      break;
    }
    case TraceEventKind::kRetire:
      if (!event.metal) {
        ++normal_instret_;
      } else {
        ++Row(open_.empty() ? last_entry_ : open_.back().entry).instret;
      }
      break;
    case TraceEventKind::kChainFold:
      ++chain_folds_;
      break;
    default:
      break;  // misses, stalls, injections: neither delimit nor count
  }
}

void SpanSink::Finalize(uint64_t final_cycle) {
  while (!open_.empty()) {
    Close(final_cycle, /*aborted=*/true);
  }
}

void SpanSink::RegisterMetrics(MetricRegistry& registry) {
  registry.Register("span", "opened", &opened_, "service spans opened");
  registry.Register("span", "closed", &closed_, "spans closed by mexit");
  registry.Register("span", "aborted", &aborted_, "spans ended by machine check or end of run");
  registry.RegisterHistogram("latency", "menter", &menter_latency_,
                             "menter->mexit service cycles");
  for (uint32_t cause = 1; cause < kNumExcCauses; ++cause) {
    registry.RegisterHistogram(
        "latency", StrFormat("trap_%s", ExcCauseName(static_cast<ExcCause>(cause))),
        &trap_latency_[cause], "trap entry->resume service cycles");
  }
  registry.RegisterHistogram("latency", "interrupt", &interrupt_latency_,
                             "interrupt delivery->resume service cycles");
  registry.RegisterHistogram("latency", "machine_check", &machine_check_latency_,
                             "machine-check recovery cycles");
  registry.RegisterHistogram("latency", "scrub_retry", &scrub_retry_latency_,
                             "retried mroutine service cycles after recovery");
  registry.RegisterHistogram("latency", "watchdog_margin", &watchdog_margin_,
                             "cycles left under the watchdog budget per span");
}

std::vector<Span> SpanSink::Spans() const {
  std::vector<Span> out;
  out.reserve(done_.size());
  for (size_t i = 0; i < done_.size(); ++i) {
    out.push_back(done_[(done_next_ + i) % done_.size()]);
  }
  return out;
}

SpanSink::EntryProfile SpanSink::total() const {
  EntryProfile total;
  for (const EntryProfile& row : rows_) {
    total.enters += row.enters;
    total.trap_enters += row.trap_enters;
    total.instret += row.instret;
    total.cycles += row.cycles;
  }
  return total;
}

namespace {
bool Touched(const SpanSink::EntryProfile& row) {
  return row.total_enters() != 0 || row.instret != 0 || row.cycles != 0;
}
}  // namespace

void SpanSink::WriteProfileText(std::ostream& out, uint64_t total_cycles) const {
  char line[160];
  out << "--- per-mroutine profile ---\n";
  std::snprintf(line, sizeof(line), "%-8s %10s %10s %12s %12s %8s\n", "entry", "menters",
                "traps", "instret", "cycles", "%cycles");
  out << line;
  for (uint32_t entry = 0; entry <= kMaxMroutines; ++entry) {
    const EntryProfile& row = rows_[entry];
    if (!Touched(row)) {
      continue;
    }
    const std::string label = entry == kMaxMroutines ? "(other)" : StrFormat("%u", entry);
    const double pct =
        total_cycles != 0 ? 100.0 * static_cast<double>(row.cycles) / total_cycles : 0.0;
    std::snprintf(line, sizeof(line),
                  "%-8s %10" PRIu64 " %10" PRIu64 " %12" PRIu64 " %12" PRIu64 " %7.2f%%\n",
                  label.c_str(), row.enters, row.trap_enters, row.instret, row.cycles, pct);
    out << line;
  }
  const EntryProfile metal = total();
  const uint64_t normal_cycles = total_cycles >= metal.cycles ? total_cycles - metal.cycles : 0;
  std::snprintf(line, sizeof(line),
                "normal: %" PRIu64 " instret / %" PRIu64 " cycles;  Metal: %" PRIu64
                " instret / %" PRIu64 " cycles;  chain folds: %" PRIu64 "\n",
                normal_instret_, normal_cycles, metal.instret, metal.cycles, chain_folds_);
  out << line;
}

void SpanSink::AppendProfileJson(JsonWriter& json, uint64_t total_cycles) const {
  json.BeginArray("entries");
  for (uint32_t entry = 0; entry <= kMaxMroutines; ++entry) {
    const EntryProfile& row = rows_[entry];
    if (!Touched(row)) {
      continue;
    }
    json.BeginObject();
    json.Field("entry", entry == kMaxMroutines ? int64_t{-1} : int64_t{entry});
    json.Field("menters", row.enters);
    json.Field("trap_enters", row.trap_enters);
    json.Field("instret", row.instret);
    json.Field("cycles", row.cycles);
    json.EndObject();
  }
  json.EndArray();
  const EntryProfile metal = total();
  json.BeginObject("totals");
  json.Field("total_cycles", total_cycles);
  json.Field("metal_cycles", metal.cycles);
  json.Field("metal_instret", metal.instret);
  json.Field("normal_instret", normal_instret_);
  json.Field("chain_folds", chain_folds_);
  json.EndObject();
}

namespace {
template <typename Io, typename SpanT>
void TransferSpan(Io& io, SpanT& span) {
  io.U64(span.id);
  io.U64(span.parent);
  io.U64(span.cause);
  io.U8As(span.cls);
  if constexpr (Io::kReading) {
    span.cls = static_cast<SpanClass>(static_cast<uint8_t>(span.cls) %
                                      static_cast<uint8_t>(SpanClass::kCount));
  }
  io.U32(span.code);
  io.U32(span.entry);
  io.U64(span.begin_cycle);
  io.U64(span.end_cycle);
  io.Bool(span.closed);
  io.Bool(span.aborted);
}

// Bytes TransferSpan writes per span.
constexpr uint64_t kSavedSpanBytes = 51;
}  // namespace

template <typename Self, typename Io>
Status SpanSink::TransferState(Self& self, Io& io) {
  for (auto* counter : {&self.next_id_, &self.opened_, &self.closed_, &self.aborted_,
                        &self.retained_dropped_, &self.watchdog_budget_}) {
    io.U64(*counter);
  }
  uint64_t open_count = self.open_.size();
  io.U64(open_count);
  if constexpr (Io::kReading) {
    if (open_count > 1024) {
      return InvalidArgument("span snapshot: implausible open-span depth");
    }
    self.open_.assign(open_count, Span{});
  }
  for (auto& span : self.open_) {
    TransferSpan(io, span);
  }
  for (auto& histogram : self.trap_latency_) {
    MSIM_RETURN_IF_ERROR(TransferComponent(io, histogram));
  }
  for (auto* histogram : {&self.interrupt_latency_, &self.menter_latency_,
                          &self.machine_check_latency_, &self.scrub_retry_latency_,
                          &self.watchdog_margin_}) {
    MSIM_RETURN_IF_ERROR(TransferComponent(io, *histogram));
  }
  // Retained completed spans, oldest first.
  if constexpr (Io::kReading) {
    self.done_.clear();
    self.done_next_ = 0;
    if (io.AtEnd()) {
      return Status::Ok();  // the older format, without retained spans
    }
    uint64_t done_count = 0;
    io.U64(done_count);
    if (done_count > io.remaining() / kSavedSpanBytes) {
      return InvalidArgument("span snapshot: implausible retained-span count");
    }
    for (uint64_t i = 0; i < done_count; ++i) {
      Span span;
      TransferSpan(io, span);
      // Oldest first: a smaller ring keeps the newest `retain_` spans.
      if (done_count - i <= self.retain_) {
        self.done_.push_back(span);
      }
    }
  } else {
    const std::vector<Span> done = self.Spans();
    io.U64(static_cast<uint64_t>(done.size()));
    for (const Span& span : done) {
      TransferSpan(io, span);
    }
  }
  return io.ToStatus("span sink");
}

void SpanSink::SaveState(SnapWriter& w) const { TransferState(*this, w); }

Status SpanSink::RestoreState(SnapReader& r) { return TransferState(*this, r); }

void SpanSink::SaveProfileState(SnapWriter& w) const {
  for (const EntryProfile& row : rows_) {
    w.U64(row.enters);
    w.U64(row.trap_enters);
    w.U64(row.instret);
    w.U64(row.cycles);
  }
  w.U64(normal_instret_);
  w.U64(chain_folds_);
  const Span* current = open_.empty() ? nullptr : &open_.back();
  const bool current_known = current != nullptr && current->entry < kMaxMroutines;
  w.Bool(current != nullptr);
  w.Bool(current_known);
  w.U32(current_known ? current->entry : 0);
  w.U64(current != nullptr ? current->begin_cycle : 0);
  w.Bool(last_entry_ < kMaxMroutines);
  w.U32(last_entry_ < kMaxMroutines ? last_entry_ : 0);
}

Status SpanSink::RestoreProfileState(SnapReader& r) {
  for (EntryProfile& row : rows_) {
    row.enters = r.U64();
    row.trap_enters = r.U64();
    row.instret = r.U64();
    row.cycles = r.U64();
  }
  normal_instret_ = r.U64();
  chain_folds_ = r.U64();
  const bool in_metal = r.Bool();
  const bool current_known = r.Bool();
  const uint32_t current_entry = r.U32();
  const uint64_t span_start = r.U64();
  const bool last_known = r.Bool();
  const uint32_t last_entry = r.U32();
  last_entry_ = last_known ? last_entry : Span::kNoEntry;
  // A "spans" section, restored before or after this one, carries the full
  // open stack; without it, reopen the innermost span the profile charges.
  if (in_metal && open_.empty()) {
    Span span;
    span.id = next_id_++;
    span.entry = current_known ? current_entry : Span::kNoEntry;
    span.begin_cycle = span_start;
    open_.push_back(span);
  }
  return r.ToStatus("mroutine profile");
}

// ---------------------------------------------------------------------------
// Span-aware Chrome trace export
// ---------------------------------------------------------------------------

namespace {

std::string SpanSliceName(const Span& span) {
  switch (span.cls) {
    case SpanClass::kMenter:
      return StrFormat("mroutine %u", span.entry);
    case SpanClass::kTrap:
      return StrFormat("trap %s -> entry %u",
                       ExcCauseName(static_cast<ExcCause>(span.code % kNumExcCauses)),
                       span.entry);
    case SpanClass::kInterrupt:
      return StrFormat("irq %u -> entry %u", span.code, span.entry);
    case SpanClass::kMachineCheck:
      return StrFormat("machine check (%s)",
                       McheckKindName(static_cast<McheckKind>(span.code)));
    case SpanClass::kScrubRetry:
      return StrFormat("scrub-retry @ 0x%08x", span.code);
    case SpanClass::kCount:
      break;
  }
  return "span";
}

void WriteCommonMember(JsonWriter& json, const char* name, const char* phase, uint64_t ts) {
  json.Field("name", name);
  json.Field("ph", phase);
  json.Field("ts", ts);
  json.Field("pid", 0);
  json.Field("tid", 0);
}

}  // namespace

void ExportChromeTrace(const std::vector<TraceEvent>& events, const std::vector<Span>& spans,
                       std::ostream& out) {
  JsonWriter json(out);
  json.BeginObject();
  json.BeginArray("traceEvents");

  json.BeginObject();
  json.Field("name", "process_name");
  json.Field("ph", "M");
  json.Field("pid", 0);
  json.Field("tid", 0);
  json.BeginObject("args");
  json.Field("name", "msim");
  json.EndObject();
  json.EndObject();

  // Complete-event ("X") slices preserve nesting without begin/end pairing,
  // and flow arrows ("s"/"f") draw each cause chain: the arrow starts where
  // the causing span ends and lands where the caused span begins, so a
  // double-trap reads trap -> machine check -> scrub-retry left to right.
  for (const Span& span : spans) {
    json.BeginObject();
    const std::string name = SpanSliceName(span);
    WriteCommonMember(json, name.c_str(), "X", span.begin_cycle);
    json.Field("dur", span.cycles());
    json.BeginObject("args");
    json.Field("span_id", span.id);
    json.Field("class", SpanClassName(span.cls));
    json.Field("code", span.code);
    if (span.parent != 0) {
      json.Field("parent", span.parent);
    }
    if (span.cause != 0) {
      json.Field("cause", span.cause);
    }
    json.Field("aborted", span.aborted);
    json.EndObject();
    json.EndObject();
  }
  for (const Span& span : spans) {
    if (span.cause == 0) {
      continue;
    }
    json.BeginObject();
    WriteCommonMember(json, "cause", "s", span.begin_cycle);
    json.Field("cat", "causal");
    json.Field("id", span.id);
    json.EndObject();
    json.BeginObject();
    WriteCommonMember(json, "cause", "f", span.begin_cycle);
    json.Field("cat", "causal");
    json.Field("id", span.id);
    json.Field("bp", "e");
    json.EndObject();
  }

  // Non-transition events render as instants; the transition events
  // themselves are already covered by the span slices.
  for (const TraceEvent& event : events) {
    switch (event.kind) {
      case TraceEventKind::kMenter:
      case TraceEventKind::kMexit:
      case TraceEventKind::kTrap:
      case TraceEventKind::kInterrupt:
        break;
      default: {
        json.BeginObject();
        WriteCommonMember(json, TraceEventKindName(event.kind), "i", event.cycle);
        json.Field("s", "t");
        json.BeginObject("args");
        json.Field("pc", StrFormat("0x%08x", event.pc));
        json.Field("arg0", event.arg0);
        json.Field("arg1", event.arg1);
        json.Field("metal", event.metal);
        json.EndObject();
        json.EndObject();
        break;
      }
    }
  }
  json.EndArray();
  json.Field("displayTimeUnit", "ms");
  json.EndObject();
}

}  // namespace msim
