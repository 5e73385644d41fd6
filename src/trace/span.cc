#include "trace/span.h"

#include <algorithm>

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
}

void SpanSink::Close(uint64_t cycle, bool aborted) {
  Span span = open_.back();
  open_.pop_back();
  span.end_cycle = cycle;
  span.closed = true;
  span.aborted = aborted;
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
    default:
      break;  // retires, misses, stalls, folds: not span-delimiting
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

void SpanSink::AppendJson(JsonWriter& json) const {
  json.Field("opened", opened_);
  json.Field("closed", closed_);
  json.Field("aborted", aborted_);
  json.Field("retained_dropped", retained_dropped_);
  json.BeginArray("spans");
  for (const Span& span : Spans()) {
    json.BeginObject();
    json.Field("id", span.id);
    json.Field("class", SpanClassName(span.cls));
    json.Field("code", span.code);
    if (span.entry != Span::kNoEntry) {
      json.Field("entry", span.entry);
    }
    json.Field("begin", span.begin_cycle);
    json.Field("end", span.end_cycle);
    if (span.parent != 0) {
      json.Field("parent", span.parent);
    }
    if (span.cause != 0) {
      json.Field("cause", span.cause);
    }
    if (span.aborted) {
      json.Field("aborted", true);
    }
    json.EndObject();
  }
  json.EndArray();
}

namespace {
void SaveSpan(SnapWriter& w, const Span& span) {
  w.U64(span.id);
  w.U64(span.parent);
  w.U64(span.cause);
  w.U8(static_cast<uint8_t>(span.cls));
  w.U32(span.code);
  w.U32(span.entry);
  w.U64(span.begin_cycle);
  w.U64(span.end_cycle);
  w.Bool(span.closed);
  w.Bool(span.aborted);
}

Span RestoreSpan(SnapReader& r) {
  Span span;
  span.id = r.U64();
  span.parent = r.U64();
  span.cause = r.U64();
  span.cls = static_cast<SpanClass>(r.U8() % static_cast<uint8_t>(SpanClass::kCount));
  span.code = r.U32();
  span.entry = r.U32();
  span.begin_cycle = r.U64();
  span.end_cycle = r.U64();
  span.closed = r.Bool();
  span.aborted = r.Bool();
  return span;
}
}  // namespace

void SpanSink::SaveState(SnapWriter& w) const {
  w.U64(next_id_);
  w.U64(opened_);
  w.U64(closed_);
  w.U64(aborted_);
  w.U64(retained_dropped_);
  w.U64(watchdog_budget_);
  w.U64(static_cast<uint64_t>(open_.size()));
  for (const Span& span : open_) {
    SaveSpan(w, span);
  }
  for (const Histogram& h : trap_latency_) {
    h.SaveState(w);
  }
  interrupt_latency_.SaveState(w);
  menter_latency_.SaveState(w);
  machine_check_latency_.SaveState(w);
  scrub_retry_latency_.SaveState(w);
  watchdog_margin_.SaveState(w);
}

Status SpanSink::RestoreState(SnapReader& r) {
  next_id_ = r.U64();
  opened_ = r.U64();
  closed_ = r.U64();
  aborted_ = r.U64();
  retained_dropped_ = r.U64();
  watchdog_budget_ = r.U64();
  const uint64_t open_count = r.U64();
  if (open_count > 1024) {
    return InvalidArgument("span snapshot: implausible open-span depth");
  }
  open_.clear();
  for (uint64_t i = 0; i < open_count; ++i) {
    open_.push_back(RestoreSpan(r));
  }
  for (Histogram& h : trap_latency_) {
    MSIM_RETURN_IF_ERROR(h.RestoreState(r));
  }
  MSIM_RETURN_IF_ERROR(interrupt_latency_.RestoreState(r));
  MSIM_RETURN_IF_ERROR(menter_latency_.RestoreState(r));
  MSIM_RETURN_IF_ERROR(machine_check_latency_.RestoreState(r));
  MSIM_RETURN_IF_ERROR(scrub_retry_latency_.RestoreState(r));
  MSIM_RETURN_IF_ERROR(watchdog_margin_.RestoreState(r));
  // The retained ring restarts at restore (export state, not statistics).
  done_.clear();
  done_next_ = 0;
  return r.ToStatus("span sink");
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
