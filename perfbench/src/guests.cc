#include "guests.h"

#include <utility>
#include <vector>

#include "support/strings.h"

namespace perfbench {

using msim::StrFormat;

uint64_t SeedStream::Next64() {
  state_ += 0x9E3779B97F4A7C15ull;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

constexpr uint32_t kAluIterations = 100000;
constexpr uint32_t kCopyWords = 256;  // two 1 KiB buffers: the copy stays in the dcache
constexpr uint32_t kCopyPasses = 160;
constexpr uint32_t kSweepLines = 4096;  // 256 KiB buffer, one access per 64 B line
constexpr uint32_t kSweepPasses = 2;
constexpr uint32_t kSyscalls = 4000;
constexpr uint32_t kPageRounds = 30;
constexpr uint32_t kUliWork = 56000;
constexpr uint32_t kUliInterval = 1000;

}  // namespace

GuestSource AluLoopGuest(SeedStream& seeds) {
  uint32_t a = seeds.Next32();
  uint32_t b = seeds.Next32();
  GuestSource guest;
  guest.source = StrFormat(R"(
  _start:
    li a0, 0x%08x
    li a1, 0x%08x
    li t0, %u
  loop:
    add a0, a0, a1
    xor a1, a1, a0
    slli t1, a0, 3
    srli t2, a1, 5
    xor a0, a0, t2
    add a1, a1, t1
    addi t0, t0, -1
    bnez t0, loop
    xor a0, a0, a1
    halt a0
)",
                           a, b, kAluIterations);
  for (uint32_t i = 0; i < kAluIterations; ++i) {
    a += b;
    b ^= a;
    const uint32_t t1 = a << 3;
    const uint32_t t2 = b >> 5;
    a ^= t2;
    b += t1;
  }
  guest.exit_code = a ^ b;
  return guest;
}

GuestSource CopyLoopGuest(SeedStream& seeds) {
  std::vector<uint32_t> from(kCopyWords);
  std::string words;
  for (uint32_t i = 0; i < kCopyWords; ++i) {
    from[i] = seeds.Next32();
    words += StrFormat("%s0x%08x", i % 8 == 0 ? "\n    .word " : ", ", from[i]);
  }
  GuestSource guest;
  guest.source = StrFormat(R"(
  _start:
    la t3, buf_a
    la t4, buf_b
    li s0, %u
    li s2, 0
  pass:
    mv t5, t3
    mv t6, t4
    li t0, %u
  copy:
    lw a0, 0(t5)
    add a0, a0, s0
    sw a0, 0(t6)
    add s2, s2, a0
    addi t5, t5, 4
    addi t6, t6, 4
    addi t0, t0, -1
    bnez t0, copy
    mv t1, t3
    mv t3, t4
    mv t4, t1
    addi s0, s0, -1
    bnez s0, pass
    halt s2
    .data
  buf_a:%s
  buf_b:
    .space %u
)",
                           kCopyPasses, kCopyWords, words.c_str(), kCopyWords * 4);
  std::vector<uint32_t> to(kCopyWords, 0);
  uint32_t sum = 0;
  for (uint32_t pass = kCopyPasses; pass > 0; --pass) {
    for (uint32_t i = 0; i < kCopyWords; ++i) {
      to[i] = from[i] + pass;
      sum += to[i];
    }
    std::swap(from, to);
  }
  guest.exit_code = sum;
  return guest;
}

GuestSource StrideSweepGuest(SeedStream& seeds) {
  uint32_t step = seeds.Next32();
  GuestSource guest;
  guest.source = StrFormat(R"(
  _start:
    li s0, %u
    li s1, 0x%08x
    li s2, 0
  pass:
    la t5, buf
    li t0, %u
  sweep:
    lw a0, 0(t5)
    add a0, a0, s1
    sw a0, 0(t5)
    sh a0, 32(t5)
    lbu a1, 33(t5)
    add s1, s1, a1
    add s2, s2, a0
    addi t5, t5, 64
    addi t0, t0, -1
    bnez t0, sweep
    addi s0, s0, -1
    bnez s0, pass
    halt s2
    .data
  buf:
    .space %u
)",
                           kSweepPasses, step, kSweepLines, kSweepLines * 64);
  std::vector<uint32_t> lines(kSweepLines, 0);
  uint32_t sum = 0;
  for (uint32_t pass = 0; pass < kSweepPasses; ++pass) {
    for (uint32_t& word : lines) {
      word += step;
      step += (word >> 8) & 0xFF;
      sum += word;
    }
  }
  guest.exit_code = sum;
  return guest;
}

GuestSource SyscallGuest(SeedStream& seeds) {
  uint32_t value = seeds.Next32();
  const uint32_t key = seeds.Next32() & 0x7FF;
  GuestSource guest;
  guest.source = StrFormat(R"(
  _start:
    li s0, %u
    li a1, 0x%08x
  loop:
    li a0, 0             # syscall 0: sys_mix(a1)
    menter 8             # kenter; the kernel returns here through kexit
    addi s0, s0, -1
    bnez s0, loop
    halt a1
  sys_mix:
    slli t2, a1, 5
    xor a1, a1, t2
    srli t2, a1, 3
    add a1, a1, t2
    addi a1, a1, %u
    menter 9             # kexit
    halt zero
  kfault:
    li a0, 0xEE
    halt a0
    .data
  syscall_table:
    .word sys_mix
)",
                           kSyscalls, value, key);
  for (uint32_t i = 0; i < kSyscalls; ++i) {
    value ^= value << 5;
    value += value >> 3;
    value += key;
  }
  guest.exit_code = value;
  return guest;
}

GuestSource PageStrideGuest(SeedStream& seeds) {
  uint32_t step = seeds.Next32();
  // Fixed, not seeded: the offset picks the dcache line and so the timing.
  const uint32_t offset = 0x340;
  GuestSource guest;
  guest.source = StrFormat(R"(
  _start:
    li s0, %u
    li s1, 0x%08x
    li s2, 0
    li t2, 4096
  round:
    li t0, 0x%08x
    li t3, %u
  touch:
    lw t1, %u(t0)
    add t1, t1, s1
    sw t1, %u(t0)
    add s2, s2, t1
    srli t4, s1, 3
    add s1, s1, t4
    addi s1, s1, 1
    add t0, t0, t2
    addi t3, t3, -1
    bnez t3, touch
    addi s0, s0, -1
    bnez s0, round
    halt s2
)",
                           kPageRounds, step, kPageStrideBase, kPageStridePages, offset,
                           offset);
  std::vector<uint32_t> pages(kPageStridePages, 0);
  uint32_t sum = 0;
  for (uint32_t round = 0; round < kPageRounds; ++round) {
    for (uint32_t& word : pages) {
      word += step;
      sum += word;
      step += (step >> 3) + 1;
    }
  }
  guest.exit_code = sum;
  return guest;
}

GuestSource StmGuest() {
  GuestSource guest;
  guest.source = StrFormat(R"(
  _start:
    li s0, %u            # transactions to commit
  next_tx:
    la a0, on_abort
    menter 24            # tstart
    li s1, %u            # words per transaction
    li t5, 0x%08x
  rmw:
    lw t6, 0(t5)
    addi t6, t6, 1
    sw t6, 0(t5)
    addi t5, t5, 4
    addi s1, s1, -1
    bnez s1, rmw
    menter 27            # tcommit
    addi s0, s0, -1
    bnez s0, next_tx
    halt zero
  on_abort:
    j next_tx
)",
                           kStmTransactions, kStmWords, kStmShared);
  guest.exit_code = 0;
  return guest;
}

GuestSource TimerUliGuest(SeedStream& seeds) {
  uint32_t a = seeds.Next32();
  uint32_t b = seeds.Next32();
  GuestSource guest;
  guest.source = StrFormat(R"(
  _start:
    li sp, 0x9000
    li a0, 0             # timer line
    la a1, tick
    li a2, 1             # privilege 0 (we run at m0 == 0) may take it directly
    menter 34            # uli_register
    bnez a0, fail
    li t0, 0xF0001004    # timer COMPARE
    li t1, %u
    sw t1, 0(t0)
    li t0, 0xF000100C    # timer INTERVAL: periodic
    li t1, %u
    sw t1, 0(t0)
    li t0, 0xF0001008    # timer CTRL: enable
    li t1, 1
    sw t1, 0(t0)
    li a3, 0x%08x
    li a4, 0x%08x
    li s0, %u
  work:
    add a3, a3, a4
    xor a4, a4, a3
    slli t3, a3, 2
    add a4, a4, t3
    addi s0, s0, -1
    bnez s0, work
    li t0, 0xF0001008
    sw zero, 0(t0)       # timer off
    xor a0, a3, a4
    halt a0
  tick:                  # user-level handler, entered straight from the dispatcher
    addi sp, sp, -8
    sw t0, 0(sp)
    sw t1, 4(sp)
    la t0, ticks
    lw t1, 0(t0)
    addi t1, t1, 1
    sw t1, 0(t0)
    li t0, 0xF0000008
    li t1, 1
    sw t1, 0(t0)         # ack the timer line
    lw t0, 0(sp)
    lw t1, 4(sp)
    addi sp, sp, 8
    menter 33            # uli_ret
    halt zero
  fail:
    li a0, 0xE1
    halt a0
    .data
  ticks:
    .word 0
)",
                           kUliInterval, kUliInterval, a, b, kUliWork);
  for (uint32_t i = 0; i < kUliWork; ++i) {
    a += b;
    b ^= a;
    b += a << 2;
  }
  guest.exit_code = a ^ b;
  return guest;
}

uint32_t DenseFill::WordAt(uint32_t index) const {
  return lanes[index % 8] + (index / 8) * step;
}

GuestSource DenseFillGuest(SeedStream& seeds, DenseFill& fill) {
  for (uint32_t& lane : fill.lanes) {
    lane = seeds.Next32() | 1;  // odd, so no word of the image is zero
  }
  fill.step = (seeds.Next32() & ~1u) | 2;  // an even step keeps every lane odd
  const uint32_t* lanes = fill.lanes;
  GuestSource guest;
  guest.source = StrFormat(R"(
  _start:
    li t5, 0x%08x
    li t0, %u
    li s1, 0x%08x
    li a0, 0x%08x
    li a1, 0x%08x
    li a2, 0x%08x
    li a3, 0x%08x
    li a4, 0x%08x
    li a5, 0x%08x
    li a6, 0x%08x
    li a7, 0x%08x
  fill:
    sw a0, 0(t5)
    sw a1, 4(t5)
    sw a2, 8(t5)
    sw a3, 12(t5)
    sw a4, 16(t5)
    sw a5, 20(t5)
    sw a6, 24(t5)
    sw a7, 28(t5)
    add a0, a0, s1
    add a1, a1, s1
    add a2, a2, s1
    add a3, a3, s1
    add a4, a4, s1
    add a5, a5, s1
    add a6, a6, s1
    add a7, a7, s1
    addi t5, t5, 32
    addi t0, t0, -1
    bnez t0, fill
    xor a0, a0, a1
    xor a0, a0, a2
    xor a0, a0, a3
    xor a0, a0, a4
    xor a0, a0, a5
    xor a0, a0, a6
    xor a0, a0, a7
    halt a0
)",
                           DenseFill::kBase, DenseFill::kWords / 8, fill.step, lanes[0],
                           lanes[1], lanes[2], lanes[3], lanes[4], lanes[5], lanes[6], lanes[7]);
  guest.exit_code = 0;
  for (uint32_t lane = 0; lane < 8; ++lane) {
    guest.exit_code ^= fill.WordAt(DenseFill::kWords + lane);  // the registers after the loop
  }
  return guest;
}

}  // namespace perfbench
