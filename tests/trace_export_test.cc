// Chrome trace_event exporter, the trace ring and the span-derived
// per-mroutine profile.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "fault/fault.h"
#include "tests/sim_test_util.h"
#include "trace/json.h"
#include "trace/span.h"
#include "trace/trace.h"

namespace msim {
namespace {

TraceEvent MakeEvent(TraceEventKind kind, uint64_t cycle, uint32_t pc = 0, uint32_t arg0 = 0,
                     uint32_t arg1 = 0, bool metal = false) {
  TraceEvent event;
  event.kind = kind;
  event.metal = metal;
  event.cycle = cycle;
  event.pc = pc;
  event.arg0 = arg0;
  event.arg1 = arg1;
  return event;
}

// Counts occurrences of `needle` in `text`.
size_t Count(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = 0; (pos = text.find(needle, pos)) != std::string::npos; ++pos) {
    ++count;
  }
  return count;
}

// Runs `events` through a SpanSink and exports them with its spans.
std::string Export(const std::vector<TraceEvent>& events, uint64_t final_cycle) {
  SpanSink spans;
  for (const TraceEvent& event : events) {
    spans.OnEvent(event);
  }
  spans.Finalize(final_cycle);
  std::ostringstream out;
  ExportChromeTrace(events, spans.Spans(), out);
  return out.str();
}

TEST(ChromeTraceExportTest, EmptyStreamIsValidJson) {
  std::ostringstream out;
  ExportChromeTrace({}, {}, out);
  EXPECT_TRUE(JsonLooksValid(out.str())) << out.str();
  EXPECT_NE(out.str().find("traceEvents"), std::string::npos);
}

TEST(ChromeTraceExportTest, SlicesAndInstantsAreValidJson) {
  std::vector<TraceEvent> events;
  events.push_back(MakeEvent(TraceEventKind::kRetire, 1, 0x1000, 0x13));
  events.push_back(MakeEvent(TraceEventKind::kMenter, 3, 0x1004, 2, 0xffff0000));
  events.push_back(MakeEvent(TraceEventKind::kRetire, 4, 0xffff0000, 0x13, 0, true));
  events.push_back(MakeEvent(TraceEventKind::kMexit, 7, 0xffff0004, 0x1008, 0, true));
  events.push_back(MakeEvent(TraceEventKind::kTrap, 9, 0x1008, 8, 5));
  events.push_back(MakeEvent(TraceEventKind::kMexit, 12, 0xffff0100, 0x100c, 0, true));
  const std::string json = Export(events, 12);
  EXPECT_TRUE(JsonLooksValid(json)) << json;
  EXPECT_NE(json.find("\"mroutine 2\""), std::string::npos);
  EXPECT_NE(json.find("-> entry 5\""), std::string::npos);
  EXPECT_NE(json.find("\"retire\""), std::string::npos);
  // One complete slice per service span, and the transition events are not
  // repeated as instants.
  EXPECT_EQ(Count(json, "\"ph\":\"X\""), 2u);
  EXPECT_EQ(Count(json, "\"ph\":\"i\""), 2u);
  EXPECT_EQ(json.find("\"mexit\""), std::string::npos);
}

TEST(ChromeTraceExportTest, UnbalancedSliceClosedAtLastCycle) {
  std::vector<TraceEvent> events;
  events.push_back(MakeEvent(TraceEventKind::kMenter, 2, 0x1000, 1, 0xffff0000));
  events.push_back(MakeEvent(TraceEventKind::kRetire, 10, 0xffff0000, 0x13, 0, true));
  const std::string json = Export(events, 10);
  EXPECT_TRUE(JsonLooksValid(json)) << json;
  // The span still open when tracing stopped ends at the final cycle.
  EXPECT_NE(json.find("\"ph\":\"X\",\"ts\":2,\"pid\":0,\"tid\":0,\"dur\":8"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"aborted\":true"), std::string::npos);
}

TEST(ChromeTraceExportTest, FullSystemTraceIsValidWithMonotonicTimestamps) {
  MetalSystem system;
  system.AddMcode(R"(
      .mentry 1, work
    work:
      addi a0, a0, 1
      mexit
  )");
  ASSERT_OK(system.LoadProgramSource(R"(
    _start:
      li t0, 4
    loop:
      menter 1
      addi t0, t0, -1
      bnez t0, loop
      halt a0
  )"));
  RingBufferSink ring;
  SpanSink spans;
  TeeSink tee;
  tee.Add(&ring);
  tee.Add(&spans);
  system.SetTraceSink(&tee);
  MustHalt(system, 4);
  system.SetTraceSink(nullptr);
  spans.Finalize(system.core().cycle());

  const std::vector<TraceEvent> events = ring.Events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(ring.dropped(), 0u);
  // Emission order is non-decreasing in cycle, so exported "ts" values are
  // monotonic too.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].cycle, events[i - 1].cycle) << "event " << i;
  }
  std::ostringstream out;
  ExportChromeTrace(events, spans.Spans(), out);
  EXPECT_TRUE(JsonLooksValid(out.str()));
  EXPECT_EQ(Count(out.str(), "\"mroutine 1\""), 4u);

  uint64_t retires = 0;
  uint64_t menters = 0;
  uint64_t mexits = 0;
  for (const TraceEvent& event : events) {
    retires += event.kind == TraceEventKind::kRetire;
    menters += event.kind == TraceEventKind::kMenter;
    mexits += event.kind == TraceEventKind::kMexit;
  }
  EXPECT_EQ(retires, system.core().stats().instret);
  EXPECT_EQ(menters, system.core().stats().menters);
  EXPECT_EQ(mexits, system.core().stats().mexits);
}

TEST(RingBufferSinkTest, DropsOldestBeyondCapacity) {
  RingBufferSink ring(4);
  for (uint64_t i = 0; i < 10; ++i) {
    ring.OnEvent(MakeEvent(TraceEventKind::kRetire, i));
  }
  EXPECT_EQ(ring.total(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  const std::vector<TraceEvent> events = ring.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().cycle, 6u);
  EXPECT_EQ(events.back().cycle, 9u);
}

// Profile attribution must agree with the core's own metal_cycles counter,
// with both the decode-replacement fast path and the slow path.
class MroutineProfilerAttributionTest : public ::testing::TestWithParam<bool> {};

TEST_P(MroutineProfilerAttributionTest, TwoMroutineCyclesSumToCoreStats) {
  CoreConfig config;
  config.fast_transition = GetParam();
  MetalSystem system(config);
  system.AddMcode(R"(
      .mentry 1, short_work
    short_work:
      addi a0, a0, 1
      mexit

      .mentry 2, long_work
    long_work:
      addi a1, a1, 1
      addi a1, a1, 1
      addi a1, a1, 1
      addi a1, a1, 1
      mexit
  )");
  ASSERT_OK(system.LoadProgramSource(R"(
    _start:
      li t0, 6
    loop:
      menter 1
      menter 2
      addi t0, t0, -1
      bnez t0, loop
      halt a0
  )"));
  SpanSink profiler;
  system.SetTraceSink(&profiler);
  MustHalt(system, 6);
  system.SetTraceSink(nullptr);
  profiler.Finalize(system.core().cycle());

  const CoreStats& stats = system.core().stats();
  EXPECT_EQ(profiler.total().cycles, stats.metal_cycles);
  EXPECT_EQ(profiler.total().instret, stats.metal_instret);
  EXPECT_EQ(profiler.normal_instret(), stats.instret - stats.metal_instret);
  EXPECT_EQ(profiler.other().cycles, 0u);

  const auto& entries = profiler.entries();
  EXPECT_EQ(entries[1].enters, 6u);
  EXPECT_EQ(entries[2].enters, 6u);
  EXPECT_EQ(entries[1].trap_enters, 0u);
  // Entry 2's body is longer, so it accounts for more instructions and at
  // least as many cycles. With fast transitions the decode-replaced mexit is
  // folded away and never retires as its own instruction; the slow path
  // executes it like a jump and it retires in Metal mode.
  if (GetParam()) {
    EXPECT_EQ(entries[1].instret, 6u);   // 6 * addi
    EXPECT_EQ(entries[2].instret, 24u);  // 6 * 4 addi
  } else {
    EXPECT_EQ(entries[1].instret, 12u);  // 6 * (addi + mexit)
    EXPECT_EQ(entries[2].instret, 30u);  // 6 * (4 addi + mexit)
  }
  EXPECT_GE(entries[2].cycles, entries[1].cycles);
  EXPECT_EQ(entries[1].cycles + entries[2].cycles, stats.metal_cycles);
  for (uint32_t entry = 3; entry < kMaxMroutines; ++entry) {
    EXPECT_EQ(entries[entry].total_enters(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(FastAndSlow, MroutineProfilerAttributionTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "FastTransitions" : "SlowTransitions";
                         });

TEST(MroutineProfilerTest, TrapDeliveryCountedAsTrapEnter) {
  MetalSystem system;
  system.AddMcode(R"(
      .mentry 4, on_break
    on_break:
      addi a0, a0, 1
      mexit                # default m31 = pc + 4 resumes after the ebreak
  )");
  system.DelegateException(ExcCause::kBreakpoint, 4);
  ASSERT_OK(system.LoadProgramSource(R"(
    _start:
      ebreak
      ebreak
      halt a0
  )"));
  SpanSink profiler;
  system.SetTraceSink(&profiler);
  MustHalt(system, 2);
  system.SetTraceSink(nullptr);
  profiler.Finalize(system.core().cycle());

  const auto& entries = profiler.entries();
  EXPECT_EQ(entries[4].trap_enters, 2u);
  EXPECT_EQ(entries[4].enters, 0u);
  EXPECT_EQ(profiler.total().cycles, system.core().stats().metal_cycles);
  EXPECT_EQ(profiler.total().instret, system.core().stats().metal_instret);
}

std::string ReadTestData(const std::string& name) {
  std::ifstream in(std::string(MSIM_TEST_DATA_DIR) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// A parity machine check in the middle of an mroutine, recovered by scrub and
// retry: the aborted call, the recovery and the retried call must together
// account for every Metal cycle and retire. The recovery and the retry carry
// no entry and land in (other).
TEST(MroutineProfilerTest, ScrubAndRetryRunSumsToCoreStats) {
  MetalSystem system;
  system.AddMcode(ReadTestData("campaign_mcode.s"));
  system.DelegateException(ExcCause::kMachineCheck, 2);
  ASSERT_OK(system.LoadProgramSource(ReadTestData("campaign_guest.s")));
  FaultEngine engine(/*seed=*/0);
  ASSERT_OK(engine.AddSpec("mram-code@30:at=8,bit=14"));
  system.core().SetFaultEngine(&engine);
  SpanSink profiler;
  system.SetTraceSink(&profiler);
  MustHalt(system, 60);
  system.SetTraceSink(nullptr);
  profiler.Finalize(system.core().cycle());

  const CoreStats& stats = system.core().stats();
  ASSERT_EQ(stats.machine_checks, 1u);
  EXPECT_EQ(stats.metal_cycles, 71u);
  EXPECT_EQ(profiler.total().cycles, stats.metal_cycles);
  EXPECT_EQ(profiler.total().instret, stats.metal_instret);
  EXPECT_EQ(profiler.normal_instret(), stats.instret - stats.metal_instret);
  // Recovery [48,56] plus retry [56,61].
  EXPECT_EQ(profiler.other().cycles, 13u);
  EXPECT_EQ(profiler.entries()[1].enters, 12u);
  EXPECT_EQ(profiler.entries()[2].total_enters(), 0u);
}

TEST(MroutineProfilerTest, JsonAndTextReports) {
  SpanSink profiler;
  profiler.OnEvent(MakeEvent(TraceEventKind::kMenter, 10, 0x1000, 3, 0xffff0000));
  profiler.OnEvent(MakeEvent(TraceEventKind::kRetire, 11, 0xffff0000, 0x13, 0, true));
  profiler.OnEvent(MakeEvent(TraceEventKind::kMexit, 15, 0xffff0004, 0x1004, 0, true));
  profiler.Finalize(20);

  EXPECT_EQ(profiler.entries()[3].cycles, 5u);
  EXPECT_EQ(profiler.entries()[3].instret, 1u);

  std::ostringstream json_out;
  JsonWriter json(json_out);
  json.BeginObject();
  profiler.AppendProfileJson(json, 20);
  json.EndObject();
  EXPECT_TRUE(JsonLooksValid(json_out.str())) << json_out.str();
  EXPECT_NE(json_out.str().find("\"entry\":3"), std::string::npos);

  std::ostringstream text;
  profiler.WriteProfileText(text, 20);
  EXPECT_NE(text.str().find("3"), std::string::npos);
  EXPECT_NE(text.str().find("%cycles"), std::string::npos);
}

}  // namespace
}  // namespace msim
