// The retired-instruction stream (kRetire trace events): program order,
// Metal-mode attribution, and agreement with the instret counter — plus the
// other structured events (trace/trace.h) fed from the same pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "isa/decode.h"
#include "tests/sim_test_util.h"
#include "trace/trace.h"

namespace msim {
namespace {

TEST(RetireTraceTest, EventsArriveInProgramOrder) {
  Core core;
  ASSERT_OK(core.LoadProgram(MustAssemble(R"(
    _start:
      li t0, 3
    loop:
      addi t0, t0, -1
      bnez t0, loop
      la t1, word
      lw t2, 0(t1)
      sw t2, 4(t1)
      halt zero
    .data
    word: .word 5, 0
  )")));
  RingBufferSink retires = RetireRing();
  core.SetTraceSink(&retires);
  MustHalt(core, 0);
  const std::vector<TraceEvent> events = retires.Events();
  ASSERT_EQ(events.size(), core.stats().instret);
  // Cycles are non-decreasing and pcs follow the executed path.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].cycle, events[i - 1].cycle);
  }
  EXPECT_EQ(events.front().pc, 0x1000u);
  EXPECT_EQ(DecodeInstr(events.back().arg0).kind, InstrKind::kHalt);
  // The loop body retires exactly 3 times (bnez at 0x1008).
  int loop_branches = 0;
  for (const auto& event : events) {
    if (event.pc == 0x1008) {
      ++loop_branches;
    }
  }
  EXPECT_EQ(loop_branches, 3);
  // Loads and stores (MEM-retired) appear in order with ALU ops.
  std::vector<InstrKind> kinds;
  for (const auto& event : events) {
    kinds.push_back(DecodeInstr(event.arg0).kind);
  }
  const auto lw_it = std::find(kinds.begin(), kinds.end(), InstrKind::kLw);
  const auto sw_it = std::find(kinds.begin(), kinds.end(), InstrKind::kSw);
  ASSERT_NE(lw_it, kinds.end());
  ASSERT_NE(sw_it, kinds.end());
  EXPECT_LT(lw_it - kinds.begin(), sw_it - kinds.begin());
}

TEST(RetireTraceTest, MetalInstructionsAttributed) {
  Core core;
  MustLoadMcodeRaw(core, R"(
      .mentry 1, work
    work:
      addi a0, a0, 1
      addi a0, a0, 1
      mexit
  )");
  ASSERT_OK(core.LoadProgram(MustAssemble(R"(
    _start:
      menter 1
      halt a0
  )")));
  RingBufferSink retires = RetireRing();
  core.SetTraceSink(&retires);
  MustHalt(core, 2);
  uint64_t metal_events = 0;
  uint64_t normal_events = 0;
  for (const TraceEvent& event : retires.Events()) {
    (event.metal ? metal_events : normal_events) += 1;
  }
  EXPECT_EQ(metal_events, core.stats().metal_instret);
  EXPECT_EQ(metal_events + normal_events, core.stats().instret);
  EXPECT_GE(metal_events, 2u);  // the two mroutine addis
}

TEST(RetireTraceTest, SquashedInstructionsNeverRetire) {
  // Instructions after a taken branch must not appear in the trace.
  Core core;
  ASSERT_OK(core.LoadProgram(MustAssemble(R"(
    _start:
      j over
      li s1, 99          # must never retire
    over:
      halt zero
  )")));
  RingBufferSink retires = RetireRing();
  core.SetTraceSink(&retires);
  MustHalt(core, 0);
  for (const TraceEvent& event : retires.Events()) {
    EXPECT_NE(event.pc, 0x1004u);
  }
  EXPECT_EQ(retires.total(), core.stats().instret);
}

std::vector<TraceEvent> EventsOfKind(const std::vector<TraceEvent>& events,
                                     TraceEventKind kind) {
  std::vector<TraceEvent> matching;
  for (const TraceEvent& event : events) {
    if (event.kind == kind) {
      matching.push_back(event);
    }
  }
  return matching;
}

TEST(StructuredTraceTest, MenterMexitChainEmitsPairedEvents) {
  Core core;
  MustLoadMcodeRaw(core, R"(
      .mentry 1, work
    work:
      addi a0, a0, 1
      mexit
  )");
  ASSERT_OK(core.LoadProgram(MustAssemble(R"(
    _start:
      li t0, 3
    loop:
      menter 1
      addi t0, t0, -1
      bnez t0, loop
      halt a0
  )")));
  RingBufferSink ring;
  core.SetTraceSink(&ring);
  MustHalt(core, 3);
  core.SetTraceSink(nullptr);

  const std::vector<TraceEvent> events = ring.Events();
  const std::vector<TraceEvent> menters = EventsOfKind(events, TraceEventKind::kMenter);
  const std::vector<TraceEvent> mexits = EventsOfKind(events, TraceEventKind::kMexit);
  ASSERT_EQ(menters.size(), 3u);
  ASSERT_EQ(mexits.size(), 3u);
  for (const TraceEvent& event : menters) {
    EXPECT_EQ(event.arg0, 1u);                     // entry number
    EXPECT_EQ(event.arg1, core.metal().EntryAddress(1));  // handler address
    EXPECT_EQ(event.pc, 0x1004u);                  // the menter site
  }
  for (const TraceEvent& event : mexits) {
    EXPECT_TRUE(event.metal);
    EXPECT_EQ(event.arg0, 0x1008u);  // resume address (after the menter)
  }
  // Enter always precedes its exit in emission order.
  const auto first_menter = std::find_if(events.begin(), events.end(), [](const TraceEvent& e) {
    return e.kind == TraceEventKind::kMenter;
  });
  const auto first_mexit = std::find_if(events.begin(), events.end(), [](const TraceEvent& e) {
    return e.kind == TraceEventKind::kMexit;
  });
  EXPECT_LT(first_menter - events.begin(), first_mexit - events.begin());
}

TEST(StructuredTraceTest, EmptyMroutineFoldsIntoOneChainEvent) {
  // An empty mroutine (menter straight into mexit) is folded by the decode
  // stage into a single zero-bubble op: the enter and exit events carry the
  // same cycle and a kChainFold event records the fold.
  Core core;
  MustLoadMcodeRaw(core, R"(
      .mentry 1, empty
    empty:
      mexit
  )");
  ASSERT_OK(core.LoadProgram(MustAssemble(R"(
    _start:
      menter 1
      halt zero
  )")));
  RingBufferSink ring;
  core.SetTraceSink(&ring);
  MustHalt(core, 0);
  core.SetTraceSink(nullptr);

  const std::vector<TraceEvent> events = ring.Events();
  const std::vector<TraceEvent> menters = EventsOfKind(events, TraceEventKind::kMenter);
  const std::vector<TraceEvent> mexits = EventsOfKind(events, TraceEventKind::kMexit);
  const std::vector<TraceEvent> folds = EventsOfKind(events, TraceEventKind::kChainFold);
  ASSERT_EQ(menters.size(), 1u);
  ASSERT_EQ(mexits.size(), 1u);
  ASSERT_EQ(folds.size(), 1u);
  EXPECT_EQ(menters[0].cycle, mexits[0].cycle);  // zero-bubble round trip
  EXPECT_EQ(folds[0].arg0, 1u);                  // enters folded
  EXPECT_EQ(folds[0].arg1, 1u);                  // exits folded
  EXPECT_EQ(core.stats().fast_replacements, 2u);
}

TEST(StructuredTraceTest, SlowTransitionsEmitSameEventsAcrossCycles) {
  CoreConfig config;
  config.fast_transition = false;
  Core core(config);
  MustLoadMcodeRaw(core, R"(
      .mentry 1, empty
    empty:
      mexit
  )");
  ASSERT_OK(core.LoadProgram(MustAssemble(R"(
    _start:
      menter 1
      halt zero
  )")));
  RingBufferSink ring;
  core.SetTraceSink(&ring);
  MustHalt(core, 0);
  core.SetTraceSink(nullptr);

  const std::vector<TraceEvent> events = ring.Events();
  const std::vector<TraceEvent> menters = EventsOfKind(events, TraceEventKind::kMenter);
  const std::vector<TraceEvent> mexits = EventsOfKind(events, TraceEventKind::kMexit);
  ASSERT_EQ(menters.size(), 1u);
  ASSERT_EQ(mexits.size(), 1u);
  EXPECT_LT(menters[0].cycle, mexits[0].cycle);  // slow path costs cycles
  EXPECT_TRUE(EventsOfKind(events, TraceEventKind::kChainFold).empty());
}

TEST(StructuredTraceTest, InterceptEmitsEventPerTakenInterception) {
  MetalSystem system;
  system.AddMcode(R"(
      .mentry 1, arm
    arm:
      li t0, 0x80000023      # intercept stores -> slot 0, entry 2
      li t1, 2
      mintset t0, t1
      mexit
      .mentry 2, emulate_store
    emulate_store:
      wmr m10, t0
      wmr m11, t1
      mopr t0, 0             # rs1 value
      mopr t1, 2             # immediate
      add t0, t0, t1
      mopr t1, 1             # rs2 value
      psw t1, 0(t0)
      rmr t0, m10
      rmr t1, m11
      mexit
  )");
  ASSERT_OK(system.LoadProgramSource(R"(
    _start:
      menter 1
      la t0, slot
      li t1, 7
      sw t1, 0(t0)           # intercepted
      sw t1, 4(t0)           # intercepted
      lw a0, 0(t0)
      halt a0
    .data
    slot: .word 0, 0
  )"));
  RingBufferSink ring;
  system.SetTraceSink(&ring);
  MustHalt(system, 7);
  system.SetTraceSink(nullptr);

  const std::vector<TraceEvent> events = ring.Events();
  const std::vector<TraceEvent> intercepts = EventsOfKind(events, TraceEventKind::kIntercept);
  ASSERT_EQ(intercepts.size(), system.core().stats().intercepts);
  ASSERT_EQ(intercepts.size(), 2u);
  // arg0 carries the raw intercepted instruction word (an sw).
  EXPECT_EQ(DecodeInstr(intercepts[0].arg0).kind, InstrKind::kSw);
  // Trap-style delivery to the handling mroutine follows each interception.
  const std::vector<TraceEvent> traps = EventsOfKind(events, TraceEventKind::kTrap);
  EXPECT_GE(traps.size(), 2u);
}

TEST(StructuredTraceTest, NoSinkMeansNoObservableSideEffects) {
  // Two identical runs, one with a sink attached: architectural results and
  // stats must match exactly (the tracer is observe-only).
  auto run = [](bool attach) {
    Core core;
    EXPECT_OK(core.LoadProgram(MustAssemble(R"(
      _start:
        li t0, 10
      loop:
        addi t0, t0, -1
        bnez t0, loop
        halt t0
    )")));
    RingBufferSink ring;
    if (attach) {
      core.SetTraceSink(&ring);
    }
    MustHalt(core, 0);
    return core.stats().cycles;
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace msim
