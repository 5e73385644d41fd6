// Guest programs of the benchmark, generated from the workload seed.
//
// The seed picks data values only. Every guest's control flow is independent
// of its data, so its simulated cycles and instret are the same for every
// seed and are pinned in workloads.cc; the expected halt code (a checksum of
// the data) is computed here by a host-side reference model of the loop.
#ifndef PERFBENCH_GUESTS_H_
#define PERFBENCH_GUESTS_H_

#include <cstdint>
#include <string>

namespace perfbench {

// SplitMix64, kept local so that inputs do not change when the simulator's
// own generator does.
class SeedStream {
 public:
  explicit SeedStream(uint64_t seed) : state_(seed) {}
  uint64_t Next64();
  uint32_t Next32() { return static_cast<uint32_t>(Next64() >> 32); }

 private:
  uint64_t state_;
};

struct GuestSource {
  std::string source;
  uint32_t exit_code = 0;  // host reference result
};

// native_loops: an ALU loop, a copy loop inside the 4 KiB dcache, and a
// strided store/load sweep over a 256 KiB buffer (64 dcache sizes).
GuestSource AluLoopGuest(SeedStream& seeds);
GuestSource CopyLoopGuest(SeedStream& seeds);
GuestSource StrideSweepGuest(SeedStream& seeds);

// metal_guests. Syscall numbers, page-table and timer addresses are fixed;
// the seed picks the data the guests compute on.
GuestSource SyscallGuest(SeedStream& seeds);    // kenter/kexit loop (privilege)
GuestSource PageStrideGuest(SeedStream& seeds);  // strides more pages than the TLB (cpt)
GuestSource StmGuest();                          // fixed transactions; conflicts come from the host
GuestSource TimerUliGuest(SeedStream& seeds);    // timer-driven user-level interrupts (uli)

// Data pages of PageStrideGuest, mapped by the workload.
inline constexpr uint32_t kPageStrideBase = 0x00800000;
inline constexpr uint32_t kPageStridePages = 64;
// STM shared array and TL2 metadata.
inline constexpr uint32_t kStmShared = 0x00600000;
inline constexpr uint32_t kStmWords = 8;
inline constexpr uint32_t kStmTransactions = 75;
inline constexpr uint32_t kStmClock = 0x00700000;
inline constexpr uint32_t kStmVtbl = 0x00704000;
inline constexpr uint32_t kStmVtblWords = 1024;

// checkpoint_resume: fills a 2 MiB buffer with eight interleaved arithmetic
// sequences, so the DRAM image grows to 2 MiB of live pages during the run.
struct DenseFill {
  static constexpr uint32_t kBase = 0x00200000;
  static constexpr uint32_t kWords = 512 * 1024;
  uint32_t lanes[8] = {};
  uint32_t step = 0;
  // The value the guest leaves in word `index` of the buffer.
  uint32_t WordAt(uint32_t index) const;
};
GuestSource DenseFillGuest(SeedStream& seeds, DenseFill& fill);

}  // namespace perfbench

#endif  // PERFBENCH_GUESTS_H_
