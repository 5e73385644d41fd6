// The flight recorder (a RingBufferSink filtered to kFlightKinds): event
// filtering, drop-oldest ring behaviour, JSON export, checkpoint/restore
// byte-identity, and the pinned bytes of the "ring" and "flight" snapshot
// sections.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "snap/snapstream.h"
#include "support/strings.h"
#include "tests/sim_test_util.h"
#include "trace/json.h"
#include "trace/trace.h"

namespace msim {
namespace {

TraceEvent Event(TraceEventKind kind, uint64_t cycle, uint32_t pc = 0) {
  TraceEvent event;
  event.kind = kind;
  event.cycle = cycle;
  event.pc = pc;
  return event;
}

TEST(FlightRecorderTest, RecordsArchitecturalEventsOnly) {
  // Retires and transitions matter for post-mortem reconstruction;
  // micro-architectural noise (cache misses, stalls) does not.
  RingBufferSink flight(8, kFlightKinds);
  EXPECT_TRUE(flight.Records(TraceEventKind::kRetire));
  EXPECT_TRUE(flight.Records(TraceEventKind::kMenter));
  EXPECT_TRUE(flight.Records(TraceEventKind::kMexit));
  EXPECT_TRUE(flight.Records(TraceEventKind::kTrap));
  EXPECT_TRUE(flight.Records(TraceEventKind::kInterrupt));
  EXPECT_TRUE(flight.Records(TraceEventKind::kFaultInject));
  EXPECT_TRUE(flight.Records(TraceEventKind::kMachineCheck));
  EXPECT_FALSE(flight.Records(TraceEventKind::kICacheMiss));
  EXPECT_FALSE(flight.Records(TraceEventKind::kDCacheMiss));
  EXPECT_FALSE(flight.Records(TraceEventKind::kTlbMiss));
  EXPECT_FALSE(flight.Records(TraceEventKind::kStall));
  EXPECT_FALSE(flight.Records(TraceEventKind::kFlush));
  EXPECT_FALSE(flight.Records(TraceEventKind::kMramAccess));

  flight.OnEvent(Event(TraceEventKind::kRetire, 1));
  flight.OnEvent(Event(TraceEventKind::kStall, 2));
  flight.OnEvent(Event(TraceEventKind::kICacheMiss, 3));
  EXPECT_EQ(flight.total(), 1u);
  ASSERT_EQ(flight.Events().size(), 1u);
  EXPECT_EQ(flight.Events()[0].kind, TraceEventKind::kRetire);
}

TEST(FlightRecorderTest, RingKeepsMostRecentInOrder) {
  RingBufferSink flight(4, kFlightKinds);
  for (uint64_t c = 1; c <= 10; ++c) {
    flight.OnEvent(Event(TraceEventKind::kRetire, c, static_cast<uint32_t>(c * 4)));
  }
  EXPECT_EQ(flight.total(), 10u);
  EXPECT_EQ(flight.dropped(), 6u);
  const std::vector<TraceEvent> events = flight.Events();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].cycle, 7 + i);  // oldest-first: cycles 7..10
  }
}

TEST(FlightRecorderTest, AppendJsonIsValid) {
  RingBufferSink flight(4, kFlightKinds);
  flight.OnEvent(Event(TraceEventKind::kTrap, 12, 0x2000));
  std::ostringstream out;
  JsonWriter json(out);
  json.BeginObject();
  flight.AppendJson(json);
  json.EndObject();
  EXPECT_TRUE(JsonLooksValid(out.str())) << out.str();
  EXPECT_NE(out.str().find("\"kind\":\"trap\""), std::string::npos);
  EXPECT_NE(out.str().find("\"capacity\":4"), std::string::npos);
}

TEST(FlightRecorderTest, SaveRestoreIsByteIdentical) {
  RingBufferSink flight(4, kFlightKinds);
  for (uint64_t c = 1; c <= 7; ++c) {
    flight.OnEvent(Event(TraceEventKind::kRetire, c));
  }
  SnapWriter w;
  flight.SaveState(w);
  const std::vector<uint8_t> bytes = w.TakeBytes();
  RingBufferSink restored(1, kFlightKinds);  // capacity comes from the snapshot
  SnapReader r(bytes);
  ASSERT_OK(restored.RestoreState(r));

  EXPECT_EQ(restored.total(), flight.total());
  EXPECT_EQ(restored.dropped(), flight.dropped());
  const auto dump = [](const RingBufferSink& f) {
    std::ostringstream out;
    JsonWriter json(out);
    json.BeginObject();
    f.AppendJson(json);
    json.EndObject();
    return out.str();
  };
  EXPECT_EQ(dump(restored), dump(flight));

  // The restored ring keeps rolling correctly.
  restored.OnEvent(Event(TraceEventKind::kRetire, 8));
  const std::vector<TraceEvent> events = restored.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().cycle, 5u);
  EXPECT_EQ(events.back().cycle, 8u);
}

TEST(FlightRecorderTest, RestoreRejectsImplausibleState) {
  {
    SnapWriter w;
    w.U64(0);  // capacity 0
    const std::vector<uint8_t> bytes = w.TakeBytes();
    RingBufferSink flight(kFlightCapacity, kFlightKinds);
    SnapReader r(bytes);
    EXPECT_FALSE(flight.RestoreState(r).ok());
  }
  {
    SnapWriter w;
    w.U64(2);   // capacity
    w.U64(9);   // total
    w.U64(0);   // dropped
    w.U64(5);   // count > capacity
    const std::vector<uint8_t> bytes = w.TakeBytes();
    RingBufferSink flight(kFlightCapacity, kFlightKinds);
    SnapReader r(bytes);
    EXPECT_FALSE(flight.RestoreState(r).ok());
  }
}

TEST(FlightRecorderTest, RestoreCapacityBoundsMatchEachRing) {
  const auto restores = [](RingBufferSink ring, uint64_t capacity) {
    SnapWriter w;
    w.U64(capacity);
    w.U64(0);  // total
    w.U64(0);  // dropped
    w.U64(0);  // count
    const std::vector<uint8_t> bytes = w.TakeBytes();
    SnapReader r(bytes);
    return ring.RestoreState(r).ok();
  };
  // The flight recorder keeps --flight-events' 1..2^20 range; the unfiltered
  // ring accepts up to 2^24 events.
  EXPECT_TRUE(restores(RingBufferSink(4, kFlightKinds), kMaxFlightCapacity));
  EXPECT_FALSE(restores(RingBufferSink(4, kFlightKinds), kMaxFlightCapacity + 1));
  EXPECT_TRUE(restores(RingBufferSink(4), uint64_t{1} << 24));
  EXPECT_FALSE(restores(RingBufferSink(4), (uint64_t{1} << 24) + 1));
}

// The six events both pinned-format tests below feed in, in order: two of
// them (the icache miss and the stall) are kinds the flight recorder filters.
std::vector<TraceEvent> SixEvents() {
  const auto make = [](TraceEventKind kind, uint64_t cycle, uint32_t pc, uint32_t arg0,
                       uint32_t arg1, bool metal) {
    TraceEvent event;
    event.kind = kind;
    event.cycle = cycle;
    event.pc = pc;
    event.arg0 = arg0;
    event.arg1 = arg1;
    event.metal = metal;
    return event;
  };
  return {
      make(TraceEventKind::kRetire, 0x11, 0x1000, 0x00a00293, 0, false),
      make(TraceEventKind::kICacheMiss, 0x12, 0x1004, 0, 0, false),
      make(TraceEventKind::kMenter, 0x13, 0x1004, 2, 0xf0000040, false),
      make(TraceEventKind::kStall, 0x14, 0xf0000040, 0, 0, true),
      make(TraceEventKind::kMexit, 0x15, 0xf0000044, 0x1008, 1, true),
      make(TraceEventKind::kRetire, 0x16, 0x1008, 0xfe029ee3, 0, false),
  };
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  std::string out;
  for (const uint8_t byte : bytes) {
    out += StrFormat("%02x", byte);
  }
  return out;
}

// Header fields, then one 22-byte record per retained event (kind, metal,
// cycle, pc, arg0, arg1), all little-endian.
constexpr const char* kRingSectionHex =
    "0400000000000000" "0600000000000000" "0200000000000000" "0400000000000000"
    "01" "00" "1300000000000000" "04100000" "02000000" "400000f0"
    "0b" "01" "1400000000000000" "400000f0" "00000000" "00000000"
    "02" "01" "1500000000000000" "440000f0" "08100000" "01000000"
    "00" "00" "1600000000000000" "08100000" "e39e02fe" "00000000";

constexpr const char* kFlightSectionHex =
    "0300000000000000" "0400000000000000" "0100000000000000" "0300000000000000"
    "01" "00" "1300000000000000" "04100000" "02000000" "400000f0"
    "02" "01" "1500000000000000" "440000f0" "08100000" "01000000"
    "00" "00" "1600000000000000" "08100000" "e39e02fe" "00000000";

TEST(RingBufferSinkTest, RingSectionBytesArePinned) {
  // The "ring" checkpoint section: checkpoints written by earlier builds must
  // keep restoring, so its bytes may not drift.
  RingBufferSink ring(4);
  for (const TraceEvent& event : SixEvents()) {
    ring.OnEvent(event);
  }
  SnapWriter w;
  ring.SaveState(w);
  EXPECT_EQ(Hex(w.bytes()), kRingSectionHex);
}

TEST(FlightRecorderTest, FlightSectionBytesArePinned) {
  // The "flight" checkpoint section: same format as "ring", over the
  // architectural events only.
  RingBufferSink flight(3, kFlightKinds);
  for (const TraceEvent& event : SixEvents()) {
    flight.OnEvent(event);
  }
  SnapWriter w;
  flight.SaveState(w);
  EXPECT_EQ(Hex(w.bytes()), kFlightSectionHex);
}

}  // namespace
}  // namespace msim
