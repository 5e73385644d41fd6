#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "dev/console.h"
#include "dev/intc.h"
#include "dev/nic.h"
#include "dev/timer.h"
#include "mem/bus.h"
#include "mem/cache.h"
#include "mem/mram.h"
#include "mem/phys_mem.h"
#include "snap/snapstream.h"
#include "tests/sim_test_util.h"

namespace msim {
namespace {

TEST(PhysicalMemoryTest, ReadWriteWidths) {
  PhysicalMemory mem(4096);
  EXPECT_TRUE(mem.Write32(0, 0xDEADBEEF));
  EXPECT_EQ(mem.Read32(0), 0xDEADBEEFu);
  EXPECT_EQ(mem.Read8(0), 0xEF);   // little-endian
  EXPECT_EQ(mem.Read8(3), 0xDE);
  EXPECT_EQ(mem.Read16(0), 0xBEEF);
  EXPECT_TRUE(mem.Write8(1, 0x11));
  EXPECT_EQ(mem.Read32(0), 0xDEAD11EFu);
  EXPECT_TRUE(mem.Write16(2, 0x2233));
  EXPECT_EQ(mem.Read32(0), 0x223311EFu);
}

TEST(PhysicalMemoryTest, OutOfRange) {
  PhysicalMemory mem(16);
  EXPECT_FALSE(mem.Read32(13).has_value());
  EXPECT_FALSE(mem.Read32(16).has_value());
  EXPECT_TRUE(mem.Read32(12).has_value());
  EXPECT_FALSE(mem.Write32(0xFFFFFFFE, 1));  // overflow guard
  EXPECT_FALSE(mem.Read8(16).has_value());
}

TEST(PhysicalMemoryTest, LoadSection) {
  PhysicalMemory mem(64);
  Section section;
  section.base = 8;
  section.bytes = {1, 2, 3, 4};
  ASSERT_OK(mem.LoadSection(section));
  EXPECT_EQ(mem.Read32(8), 0x04030201u);
  section.base = 62;
  EXPECT_FALSE(mem.LoadSection(section).ok());
}

// --- Dirty-page tracking (docs/performance.md "DRAM cost model") -----------

constexpr uint32_t kPage = PhysicalMemory::kPageSize;

std::vector<uint8_t> SavedImage(const PhysicalMemory& mem) {
  SnapWriter w;
  mem.SaveState(w);
  return w.TakeBytes();
}

// The page indices a saved image carries, in order.
std::vector<uint32_t> SavedPages(const PhysicalMemory& mem) {
  const std::vector<uint8_t> image = SavedImage(mem);
  SnapReader r(image);
  r.U32();  // size
  r.U64();  // write generation
  r.U32();  // page size
  std::vector<uint32_t> pages(r.U32());
  for (uint32_t& page : pages) {
    page = r.U32();
    r.Bytes();
  }
  EXPECT_TRUE(r.ok() && r.AtEnd());
  return pages;
}

// Restores `image` into a fresh memory of `size` bytes.
void ExpectRestoresTo(const std::vector<uint8_t>& image, uint32_t size, PhysicalMemory& into) {
  SnapReader r(image);
  ASSERT_OK(into.RestoreState(r));
  EXPECT_EQ(SavedImage(into), image);
  EXPECT_EQ(into.size(), size);
}

TEST(PhysicalMemoryTest, OwnsItsMappingAndIsNotCopyable) {
  static_assert(!std::is_copy_constructible_v<PhysicalMemory>);
  static_assert(!std::is_copy_assignable_v<PhysicalMemory>);
  PhysicalMemory empty(0);
  EXPECT_FALSE(empty.Read8(0).has_value());
  EXPECT_TRUE(SavedPages(empty).empty());
}

// The process's virtual size in KiB, from /proc/self/status.
uint64_t VmSizeKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::stoull(line.substr(7));
    }
  }
  return 0;
}

TEST(PhysicalMemoryTest, ReleasesItsMappingOnDestruction) {
  // 64 written 16 MiB memories would add 1 GiB of address space if the
  // mapping leaked.
  const uint64_t before = VmSizeKib();
  ASSERT_GT(before, 0u);
  for (int i = 0; i < 64; ++i) {
    PhysicalMemory mem(16u << 20);
    ASSERT_TRUE(mem.Write32((16u << 20) - 4, 1));
  }
  EXPECT_LT(VmSizeKib(), before + 16 * 1024);
}

TEST(PhysicalMemoryTest, PageZeroedAgainIsLeftOutOfTheImage) {
  // Same non-zero page 0 and the same number of writes, so the same write
  // generation; only `dirtied` ever wrote page 5, and wrote it back to zero.
  Section code;
  code.base = 0x40;
  code.bytes = {1, 2, 3, 4};
  PhysicalMemory dirtied(16 * kPage);
  ASSERT_OK(dirtied.LoadSection(code));
  ASSERT_TRUE(dirtied.Write32(5 * kPage + 8, 0xDEADBEEF));
  ASSERT_TRUE(dirtied.Write32(5 * kPage + 8, 0));
  PhysicalMemory untouched(16 * kPage);
  ASSERT_OK(untouched.LoadSection(code));
  ASSERT_TRUE(untouched.Write32(0x40, 0x04030201));
  ASSERT_TRUE(untouched.Write32(0x40, 0x04030201));
  EXPECT_EQ(dirtied.write_generation(), untouched.write_generation());
  EXPECT_EQ(SavedPages(dirtied), std::vector<uint32_t>{0});
  EXPECT_EQ(SavedImage(dirtied), SavedImage(untouched));
}

TEST(PhysicalMemoryTest, StraddlingWritesSaveBothPages) {
  PhysicalMemory word(4 * kPage);
  ASSERT_TRUE(word.Write32(kPage - 2, 0xAABBCCDD));  // DD CC | BB AA
  EXPECT_EQ(SavedPages(word), (std::vector<uint32_t>{0, 1}));
  PhysicalMemory half(4 * kPage);
  ASSERT_TRUE(half.Write16(3 * kPage - 1, 0x1122));  // 22 | 11
  EXPECT_EQ(SavedPages(half), (std::vector<uint32_t>{2, 3}));

  PhysicalMemory restored(4 * kPage);
  ExpectRestoresTo(SavedImage(word), 4 * kPage, restored);
  EXPECT_EQ(restored.Read32(kPage - 2), 0xAABBCCDDu);
  ExpectRestoresTo(SavedImage(half), 4 * kPage, restored);
  EXPECT_EQ(restored.Read16(3 * kPage - 1), 0x1122u);
  EXPECT_EQ(restored.Read32(kPage - 2), 0u);  // the earlier restore is gone
}

TEST(PhysicalMemoryTest, LoadSectionSavesEveryPageItCovers) {
  PhysicalMemory mem(8 * kPage);
  Section section;
  section.base = kPage - 96;                  // tail of page 0
  section.bytes.assign(2 * kPage + 200, 0x5A);  // pages 1 and 2, head of page 3
  ASSERT_OK(mem.LoadSection(section));
  EXPECT_EQ(SavedPages(mem), (std::vector<uint32_t>{0, 1, 2, 3}));
  PhysicalMemory restored(8 * kPage);
  ExpectRestoresTo(SavedImage(mem), 8 * kPage, restored);
  EXPECT_EQ(restored.Read8(section.base), 0x5A);
  EXPECT_EQ(restored.Read8(section.end() - 1), 0x5A);
  EXPECT_EQ(restored.Read8(section.end()), 0);
}

TEST(PhysicalMemoryTest, PartialLastPage) {
  const uint32_t size = 2 * kPage + 100;
  PhysicalMemory mem(size);
  EXPECT_FALSE(mem.Write32(size - 3, 1));
  ASSERT_TRUE(mem.Write32(size - 4, 0x01020304));
  EXPECT_EQ(SavedPages(mem), std::vector<uint32_t>{2});
  // The last page is saved with only the bytes that exist.
  const std::vector<uint8_t> image = SavedImage(mem);
  SnapReader r(image);
  EXPECT_EQ(r.U32(), size);
  r.U64();
  EXPECT_EQ(r.U32(), kPage);
  EXPECT_EQ(r.U32(), 1u);
  EXPECT_EQ(r.U32(), 2u);
  EXPECT_EQ(r.Bytes().size(), 100u);

  PhysicalMemory restored(size);
  ExpectRestoresTo(image, size, restored);
  EXPECT_EQ(restored.Read32(size - 4), 0x01020304u);
  restored.Clear();
  EXPECT_EQ(restored.Read32(size - 4), 0u);
  EXPECT_TRUE(SavedPages(restored).empty());
  PhysicalMemory other_size(size + 4);
  SnapReader mismatched(image);
  EXPECT_FALSE(other_size.RestoreState(mismatched).ok());
}

TEST(PhysicalMemoryTest, LargestSizeTracksItsLastPage) {
  // A 4 GiB - 1 mapping is only reserved; the write touches one page.
  PhysicalMemory mem(0xFFFFFFFFu);
  ASSERT_TRUE(mem.Write8(0xFFFFFFFEu, 9));
  EXPECT_EQ(SavedPages(mem), std::vector<uint32_t>{0xFFFFFu});
  mem.Clear();
  EXPECT_EQ(mem.Read8(0xFFFFFFFEu), 0);
}

TEST(PhysicalMemoryTest, ClearZeroesEveryWrittenPage) {
  PhysicalMemory mem(64 * kPage);
  for (uint32_t page = 0; page < 64; page += 7) {
    ASSERT_TRUE(mem.Write8(page * kPage + page, static_cast<uint8_t>(page + 1)));
  }
  EXPECT_EQ(SavedPages(mem).size(), 10u);
  const uint64_t generation = mem.write_generation();
  mem.Clear();
  EXPECT_GT(mem.write_generation(), generation);
  for (uint32_t page = 0; page < 64; page += 7) {
    EXPECT_EQ(mem.Read8(page * kPage + page), 0);
  }
  EXPECT_TRUE(SavedPages(mem).empty());
}

TEST(BusTest, RoutesDramAndDevices) {
  Bus bus(4096);
  ConsoleDevice console;
  ASSERT_OK(bus.AttachDevice(ConsoleDevice::kDefaultBase, &console));
  EXPECT_TRUE(bus.Write32(0, 7));
  EXPECT_EQ(bus.Read32(0), 7u);
  EXPECT_TRUE(bus.Write32(ConsoleDevice::kDefaultBase, 'A'));
  EXPECT_TRUE(bus.Write32(ConsoleDevice::kDefaultBase, 'B'));
  EXPECT_EQ(console.output(), "AB");
}

TEST(BusTest, UnmappedMmioFails) {
  Bus bus(4096);
  EXPECT_FALSE(bus.Read32(0xF0000000).has_value());
  EXPECT_FALSE(bus.Write32(0xF0000000, 1));
}

TEST(BusTest, RejectsOverlappingDevices) {
  Bus bus(4096);
  ConsoleDevice a;
  ConsoleDevice b;
  ASSERT_OK(bus.AttachDevice(0xF0000000, &a));
  EXPECT_FALSE(bus.AttachDevice(0xF0000800, &b).ok());
  EXPECT_OK(bus.AttachDevice(0xF0001000, &b));
}

TEST(BusTest, SubWordMmioRejected) {
  Bus bus(4096);
  ConsoleDevice console;
  ASSERT_OK(bus.AttachDevice(0xF0000000, &console));
  EXPECT_FALSE(bus.Read8(0xF0000000).has_value());
  EXPECT_FALSE(bus.Write16(0xF0000000, 1));
}

TEST(CacheTest, HitAfterMiss) {
  Cache cache(4, 16, 1, 20);
  EXPECT_EQ(cache.Access(0x100), 20u);  // cold miss
  EXPECT_EQ(cache.Access(0x100), 1u);   // hit
  EXPECT_EQ(cache.Access(0x104), 1u);   // same line
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CacheTest, ConflictEviction) {
  Cache cache(4, 16, 1, 20);
  // 4 lines x 16 bytes: addresses 0 and 64 share index 0.
  EXPECT_EQ(cache.Access(0), 20u);
  EXPECT_EQ(cache.Access(64), 20u);  // evicts 0
  EXPECT_EQ(cache.Access(0), 20u);   // miss again
}

TEST(CacheTest, ProbeDoesNotModify) {
  Cache cache(4, 16, 1, 20);
  EXPECT_FALSE(cache.Probe(0x40));
  cache.Access(0x40);
  EXPECT_TRUE(cache.Probe(0x40));
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CacheTest, InvalidateAll) {
  Cache cache(4, 16, 1, 20);
  cache.Access(0);
  cache.InvalidateAll();
  EXPECT_EQ(cache.Access(0), 20u);
}

TEST(MramTest, CodeFetch) {
  Mram mram;
  EXPECT_TRUE(mram.WriteCodeWord(0, 0x12345678));
  EXPECT_EQ(mram.FetchWord(kMramCodeBase), 0x12345678u);
  EXPECT_FALSE(mram.FetchWord(kMramCodeBase - 4).has_value());
  EXPECT_FALSE(mram.FetchWord(kMramCodeBase + kMramCodeSize).has_value());
  EXPECT_FALSE(mram.FetchWord(kMramCodeBase + 2).has_value());  // misaligned
}

TEST(MramTest, DataSegment) {
  Mram mram;
  EXPECT_TRUE(mram.WriteData32(0, 0xAABBCCDD));
  EXPECT_EQ(mram.ReadData32(0), 0xAABBCCDDu);
  EXPECT_TRUE(mram.WriteData32(kMramDataSize - 4, 1));
  EXPECT_FALSE(mram.WriteData32(kMramDataSize, 1));
  EXPECT_FALSE(mram.ReadData32(kMramDataSize - 2).has_value());
}

TEST(MramTest, InCodeRange) {
  EXPECT_TRUE(Mram::InCodeRange(kMramCodeBase));
  EXPECT_TRUE(Mram::InCodeRange(kMramCodeBase + kMramCodeSize - 4));
  EXPECT_FALSE(Mram::InCodeRange(kMramCodeBase - 1));
  EXPECT_FALSE(Mram::InCodeRange(0x1000));
}

TEST(IntcTest, RaiseAckViaRegisters) {
  InterruptController intc;
  intc.Raise(3);
  EXPECT_EQ(intc.Read32(0), 8u);
  intc.Write32(4, 0x10);  // software raise line 4
  EXPECT_EQ(intc.pending(), 0x18u);
  intc.Write32(8, 0x08);  // W1C ack line 3
  EXPECT_EQ(intc.pending(), 0x10u);
}

TEST(TimerTest, OneShotFires) {
  InterruptController intc;
  TimerDevice timer;
  timer.Write32(4, 10);  // compare
  timer.Write32(8, 1);   // enable
  for (uint64_t cycle = 1; cycle < 10; ++cycle) {
    timer.Tick(cycle, intc);
    EXPECT_EQ(intc.pending(), 0u) << cycle;
  }
  timer.Tick(10, intc);
  EXPECT_EQ(intc.pending(), 1u << kIrqTimer);
  intc.Clear(kIrqTimer);
  timer.Tick(11, intc);
  EXPECT_EQ(intc.pending(), 0u);  // one-shot
}

TEST(TimerTest, PeriodicRearms) {
  InterruptController intc;
  TimerDevice timer;
  timer.Write32(12, 10);  // interval
  timer.Write32(4, 10);
  timer.Write32(8, 1);
  int fires = 0;
  for (uint64_t cycle = 1; cycle <= 35; ++cycle) {
    timer.Tick(cycle, intc);
    if (intc.pending() != 0) {
      ++fires;
      intc.Clear(kIrqTimer);
    }
  }
  EXPECT_EQ(fires, 3);
}

TEST(NicTest, PacketDeliveryAndDrain) {
  InterruptController intc;
  NicDevice nic;
  nic.SchedulePacket(5, {1, 2, 3, 4, 5});
  nic.Tick(4, intc);
  EXPECT_EQ(nic.rx_queued(), 0u);
  nic.Tick(5, intc);
  EXPECT_EQ(nic.rx_queued(), 1u);
  EXPECT_EQ(intc.pending(), 1u << kIrqNic);
  EXPECT_EQ(nic.Read32(4), 5u);           // length
  EXPECT_EQ(nic.Read32(8), 0x04030201u);  // first word
  EXPECT_EQ(nic.Read32(8), 0x00000005u);  // tail word, zero-padded
  EXPECT_EQ(nic.rx_queued(), 0u);
}

TEST(NicTest, OrderedByArrival) {
  InterruptController intc;
  NicDevice nic;
  nic.SchedulePacket(20, {2});
  nic.SchedulePacket(10, {1});
  nic.Tick(30, intc);
  EXPECT_EQ(nic.rx_queued(), 2u);
  EXPECT_EQ(nic.Read32(8) & 0xFF, 1u);
  EXPECT_EQ(nic.Read32(8) & 0xFF, 2u);
}

TEST(NicTest, DropHead) {
  InterruptController intc;
  NicDevice nic;
  nic.SchedulePacket(0, {9});
  nic.Tick(1, intc);
  nic.Write32(12, 1);
  EXPECT_EQ(nic.rx_queued(), 0u);
}

TEST(ConsoleTest, ExitCodeLatch) {
  ConsoleDevice console;
  console.Write32(4, 55);
  EXPECT_EQ(console.Read32(4), 55u);
}

}  // namespace
}  // namespace msim
