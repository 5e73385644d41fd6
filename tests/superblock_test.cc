// Superblock translation tier (cpu/superblock.h, docs/performance.md).
//
// The tier is "invisible by construction", one rung above the predecode
// cache: N cycles through chained trace execution must leave machine state
// byte-identical to N Core::StepCycle calls. The tests mirror
// predecode_test.cc's structure — digest matrices at awkward sync points, an
// invalidation matrix against every coherence source, and snapshot round
// trips — with the superblock cache's own counters checked on the side so
// none of the parity checks can pass vacuously with the tier idle.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/core.h"
#include "cpu/creg.h"
#include "cpu/superblock.h"
#include "fault/fault.h"
#include "metal/system.h"
#include "snap/snapshot.h"
#include "snap/snapstream.h"
#include "tests/sim_test_util.h"

namespace msim {
namespace {

// Identical geometry everywhere so SaveState streams (and digests) compare;
// only the stepping mode varies.
CoreConfig PerCycleConfig() {
  CoreConfig config;
  config.fast_step = false;
  return config;
}

// ALU/branch loops interleaved with loads and stores: traces build over the
// inner loop, chain on its back edge, and exit at every memory access.
constexpr const char* kMixedProgram = R"(
  _start:
    la s2, counter
    li s0, 400
    li s1, 0
  outer:
    li t0, 9
  inner:
    addi s1, s1, 3
    xor s1, s1, t0
    addi t0, t0, -1
    bne t0, zero, inner
    lw t1, 0(s2)
    addi t1, t1, 1
    sw t1, 0(s2)
    addi s0, s0, -1
    bne s0, zero, outer
    lw a0, 0(s2)
    halt a0
    .data
  counter:
    .word 0
)";

// Accumulates into MRAM data with mld/mst (same mroutine as predecode_test):
// MRAM activity alongside hot DRAM traces.
constexpr const char* kCounterMcode = R"(
    .mentry 1, count_add
  count_add:
    mld t0, 0(zero)
    add t0, t0, a0
    mst t0, 0(zero)
    mv a0, t0
    mexit
)";

// The spin loop keeps a hot DRAM trace alive between mroutine invocations
// (the taken back edge drains the pipeline, so the tier builds and chains
// there); `menter` itself is never part of a trace, and the return from
// Metal mode continues per cycle until the next refill point.
constexpr const char* kLongCounterProgram = R"(
  _start:
    li s0, 400
    li s1, 0
  loop:
    li t3, 8
  spin:
    addi t3, t3, -1
    bne t3, zero, spin
    li a0, 7
    menter 1
    mv s1, a0
    addi s0, s0, -1
    bne s0, zero, loop
    halt s1
)";

// ---------------------------------------------------------------------------
// Byte-exactness: traced vs per-cycle stepping.
// ---------------------------------------------------------------------------

TEST(SuperblockTest, ByteExactAgainstPerCycleAtManySyncPoints) {
  struct Case {
    const char* name;
    const char* program;
    const char* mcode;  // nullptr: no mroutines
  };
  const Case kCases[] = {
      {"mixed", kMixedProgram, nullptr},
      {"menter-loop", kLongCounterProgram, kCounterMcode},
  };
  for (const Case& test_case : kCases) {
    SCOPED_TRACE(test_case.name);
    Core traced;  // defaults: fast_step on
    Core percycle(PerCycleConfig());
    const Program program = MustAssemble(test_case.program);
    for (Core* core : {&traced, &percycle}) {
      if (test_case.mcode != nullptr) {
        MustLoadMcodeRaw(*core, test_case.mcode);
      }
      ASSERT_OK(core->LoadProgram(program));
    }
    RingBufferSink a = RetireRing(), b = RetireRing();
    traced.SetTraceSink(&a);
    percycle.SetTraceSink(&b);

    // Deliberately awkward chunk sizes so sync points land mid-trace, on
    // chained back edges and inside the two-cycle refill. fast_step does not
    // join CoreConfigHash, so the digests are comparable.
    const uint64_t kChunks[] = {1, 2, 3, 7, 64, 129, 1000, 4096, 977, 50000};
    uint64_t at = 0;
    for (const uint64_t chunk : kChunks) {
      traced.Run(chunk);
      percycle.Run(chunk);
      at += chunk;
      ASSERT_EQ(traced.cycle(), percycle.cycle()) << "after " << at << " cycles";
      ASSERT_EQ(traced.StateDigest(/*include_dram=*/true),
                percycle.StateDigest(/*include_dram=*/true))
          << "trace tier diverged from per-cycle by cycle " << at;
    }
    const RunResult rt = traced.Run(2'000'000);
    const RunResult rp = percycle.Run(2'000'000);
    EXPECT_EQ(rt.reason, RunResult::Reason::kHalted);
    EXPECT_EQ(rp.reason, RunResult::Reason::kHalted);
    EXPECT_EQ(rt.exit_code, rp.exit_code);
    EXPECT_EQ(traced.StateDigest(true), percycle.StateDigest(true));
    ExpectSameRetires(a.Events(), b.Events());

    // The parity above actually exercised the tier: traces built, executed,
    // chained on the loop's back edge, and retired part of the run.
    const SuperblockStats& stats = traced.superblocks().stats();
    EXPECT_GT(stats.builds, 0u);
    EXPECT_GT(stats.executions, 0u);
    EXPECT_GT(stats.chains, 0u);
    EXPECT_GT(stats.instructions, 0u);
    EXPECT_LE(stats.instructions, traced.stats().instret);
    // And the control core never ran it.
    EXPECT_EQ(percycle.superblocks().stats().executions, 0u);
  }
}

// Counts timer interrupts in MRAM data[0] (same handler as interrupt_test).
constexpr const char* kTimerHandler = R"(
    .mentry 1, irq
  irq:
    wmr m10, t0
    wmr m11, t1
    mld t0, 0(zero)
    addi t0, t0, 1
    mst t0, 0(zero)
    li t0, 0xF0000008
    li t1, 1
    psw t1, 0(t0)
    rmr t0, m10
    rmr t1, m11
    mexit
)";

TEST(SuperblockTest, ByteExactWithTimerInterruptsAcrossHorizons) {
  // Satellite regression for the horizon audit: a chained trace must never
  // commit a cycle at or past the device-event horizon computed at StepFast
  // entry, so every interrupt is taken at exactly the cycle the per-cycle
  // core takes it.
  auto boot = [](Core& core) {
    MustLoadMcodeRaw(core, kTimerHandler);
    ASSERT_OK(core.LoadProgram(MustAssemble(R"(
      _start:
        li t2, 30000
      loop:
        addi t2, t2, -1
        bne t2, zero, loop
        halt zero
    )")));
    core.metal().DelegateIrq(1);
    core.metal().WriteCreg(kCrIenable, 1u << kIrqTimer);
    core.timer().Write32(12, 700);  // interval
    core.timer().Write32(4, 700);   // compare
    core.timer().Write32(8, 1);     // enable
  };
  Core traced;
  Core percycle(PerCycleConfig());
  boot(traced);
  boot(percycle);

  const uint64_t kChunks[] = {500, 333, 1024, 10000, 50000};
  for (const uint64_t chunk : kChunks) {
    traced.Run(chunk);
    percycle.Run(chunk);
    ASSERT_EQ(traced.cycle(), percycle.cycle());
    ASSERT_EQ(traced.StateDigest(true), percycle.StateDigest(true))
        << "diverged by cycle " << traced.cycle();
  }
  const RunResult rt = traced.Run(2'000'000);
  const RunResult rp = percycle.Run(2'000'000);
  EXPECT_EQ(rt.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(rp.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(traced.stats().interrupts, percycle.stats().interrupts);
  EXPECT_GE(traced.stats().interrupts, 10u);
  EXPECT_EQ(traced.StateDigest(true), percycle.StateDigest(true));
  EXPECT_GT(traced.superblocks().stats().chains, 0u);
}

TEST(SuperblockTest, TracesAreBoundedByMaxLen) {
  // A loop body longer than kSuperblockMaxLen: the trace at the loop head
  // stops at exactly the bound, and the rest of the body runs per cycle.
  std::string source = "_start:\n  li t0, 50\nloop:\n";
  for (uint32_t i = 0; i < 2 * kSuperblockMaxLen; ++i) {
    source += "  addi a0, a0, 1\n";
  }
  source += "  addi t0, t0, -1\n  bnez t0, loop\n  halt zero\n";
  const Program program = MustAssemble(source);
  Core traced;
  Core percycle(PerCycleConfig());
  ASSERT_OK(traced.LoadProgram(program));
  ASSERT_OK(percycle.LoadProgram(program));
  MustHalt(traced, 0);
  MustHalt(percycle, 0);
  EXPECT_EQ(traced.StateDigest(true), percycle.StateDigest(true));

  const Superblock* head = traced.superblocks().Lookup(program.symbols.at("loop"));
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->exec_len, kSuperblockMaxLen);
  for (const SbSegment& seg : head->segs) {
    EXPECT_LE(seg.exec_len, kSuperblockMaxLen);
  }
  EXPECT_GT(traced.superblocks().stats().executions, 0u);
}

// ---------------------------------------------------------------------------
// Invalidation matrix: every coherence source vs a no-trace reference.
// ---------------------------------------------------------------------------

// Patches its own inner loop after three iterations: the stored word must
// take effect on the very next fetch, killing the trace built over it.
constexpr const char* kSelfModifyingProgram = R"(
  _start:
    la t0, slot
    la t1, patch
    lw t1, 0(t1)
    li s0, 6
    li s1, 0
  loop:
  slot:
    addi s1, s1, 1
    addi s0, s0, -1
    beq s0, zero, done
    li t2, 3
    bne s0, t2, loop
    sw t1, 0(t0)
    j loop
  done:
    halt s1
  patch:
    addi s1, s1, 5
)";

TEST(SuperblockInvalidationTest, SelfModifyingStoreKillsAffectedTrace) {
  Core traced;  // defaults
  Core percycle(PerCycleConfig());
  ASSERT_OK(traced.LoadProgram(MustAssemble(kSelfModifyingProgram)));
  ASSERT_OK(percycle.LoadProgram(MustAssemble(kSelfModifyingProgram)));
  RingBufferSink a = RetireRing(), b = RetireRing();
  traced.SetTraceSink(&a);
  percycle.SetTraceSink(&b);
  // 3 iterations of +1, then the patched +5 for the remaining 3.
  MustHalt(traced, 18);
  MustHalt(percycle, 18);
  ExpectSameRetires(a.Events(), b.Events());
  // The store bumped the DRAM write generation; the per-fetch raw-word
  // revalidation must have caught the stale slot and killed its trace.
  EXPECT_GT(traced.superblocks().stats().executions, 0u);
  EXPECT_GT(traced.superblocks().stats().invalidations, 0u);
}

// A store *inside* the straight line that targets a word a couple of slots
// AHEAD of it in the same trace. With memory slots the sw executes on
// the trace fast path as a pending MemOp; the very next trace fetch of the
// patched word must see the store's bytes (the pending-store fetch-merge
// path), detect the raw-word mismatch, and exit + invalidate before the
// cycle commits. The branch warms the trace first so the store really does
// land mid-trace, not on a cold build.
constexpr const char* kStoreAheadProgram = R"(
  _start:
    la t0, target
    la t1, patch
    lw t1, 0(t1)
    li s0, 8
    li s1, 0
  loop:
    addi s1, s1, 1
    li t2, 4
    bne s0, t2, target
    sw t1, 0(t0)
  target:
    addi s1, s1, 2
    addi s0, s0, -1
    bne s0, zero, loop
    halt s1
  patch:
    addi s1, s1, 9
)";

TEST(SuperblockInvalidationTest, StoreIntoExecutingTraceAheadOfPcIsByteExact) {
  Core traced;  // defaults
  Core percycle(PerCycleConfig());
  const Program program = MustAssemble(kStoreAheadProgram);
  RingBufferSink a = RetireRing(), b = RetireRing();
  traced.SetTraceSink(&a);
  percycle.SetTraceSink(&b);
  std::vector<RunResult> results;
  for (Core* core : {&traced, &percycle}) {
    ASSERT_OK(core->LoadProgram(program));
    results.push_back(core->Run(100000));
  }
  // The per-cycle machine defines whether the patched word is visible on the
  // patching iteration itself; the traced run must agree byte-for-byte
  // rather than match a hand-computed constant.
  for (const RunResult& r : results) {
    EXPECT_EQ(r.reason, RunResult::Reason::kHalted);
    EXPECT_EQ(r.exit_code, results[0].exit_code);
  }
  ExpectSameRetires(a.Events(), b.Events());
  EXPECT_GT(traced.superblocks().stats().executions, 0u);
  EXPECT_GT(traced.superblocks().stats().mem_fast_hits, 0u);
  EXPECT_GT(traced.superblocks().stats().invalidations, 0u);
}

// TLB eviction between trace executions: an mroutine drops the data page's
// mapping, so the next trace entry reaches its lw slot with ProbeTranslate
// missing — the memory slot must force a slow exit (uncommitted) and replay
// per-cycle, where the architectural TLB miss fires and the delegated
// handler refills. Byte-exact against the per-cycle reference.
constexpr const char* kTlbEvictMcode = R"(
    .mentry 10, tlb_miss
  tlb_miss:
    rcr t0, 2            # MBADVADDR
    li t1, -4096
    and t1, t0, t1       # frame = page base (identity)
    ori t1, t1, 0x38     # R|W|X
    tlbwr t0, t1
    mexit                # retry the faulting access
    .mentry 11, evict
  evict:
    tlbinv t0            # caller leaves the vaddr to evict in t0
    mexit
)";

constexpr const char* kTlbEvictProgram = R"(
  _start:
    la t6, buf
    li s0, 120
    li s1, 0
  loop:
    li t3, 6
  spin:
    lw t1, 0(t6)
    addi t1, t1, 1
    sw t1, 0(t6)
    addi s1, s1, 1
    addi t3, t3, -1
    bne t3, zero, spin
    mv t0, t6
    menter 11            # evict the data page mid-run
    addi s0, s0, -1
    bne s0, zero, loop
    lw a0, 0(t6)
    halt a0
    .data
  buf:
    .word 0
)";

TEST(SuperblockInvalidationTest, TlbEvictionForcesMidTraceSlowExit) {
  MetalSystem traced;
  MetalSystem percycle(PerCycleConfig());
  RingBufferSink a = RetireRing(), b = RetireRing();
  RingBufferSink* streams[] = {&a, &b};
  MetalSystem* systems[] = {&traced, &percycle};
  std::vector<RunResult> results;
  for (int i = 0; i < 2; ++i) {
    MetalSystem& s = *systems[i];
    s.AddMcode(kTlbEvictMcode);
    ASSERT_OK(s.LoadProgramSource(kTlbEvictProgram));
    ASSERT_OK(s.Boot());
    Core& core = s.core();
    core.metal().Delegate(ExcCause::kTlbMissLoad, 10);
    core.metal().Delegate(ExcCause::kTlbMissStore, 10);
    core.metal().Delegate(ExcCause::kTlbMissFetch, 10);
    core.metal().WriteCreg(kCrPgEnable, 1);
    core.SetTraceSink(streams[i]);
    results.push_back(s.Run(5'000'000));
  }
  for (const RunResult& r : results) {
    EXPECT_EQ(r.reason, RunResult::Reason::kHalted);
    EXPECT_EQ(r.exit_code, results[0].exit_code);
  }
  ExpectSameRetires(a.Events(), b.Events());
  // The hot spin loop's memory slots ran the fast path between evictions and
  // hit the missing-translation slow exit right after each one.
  EXPECT_GT(traced.core().superblocks().stats().executions, 0u);
  EXPECT_GT(traced.core().superblocks().stats().mem_fast_hits, 0u);
  EXPECT_GT(traced.core().superblocks().stats().mem_slow_exits, 0u);
}

TEST(SuperblockInvalidationTest, MramScrubMatchesNoTraceReference) {
  // Traces never contain MRAM code (the tier only runs outside Metal mode
  // and the build walk stops at the DRAM boundary), so a corruption-scrub
  // episode in the mroutine must leave the DRAM traces untouched AND the
  // retire streams identical with and without the tier.
  CoreConfig traced_config;
  traced_config.mram_parity = false;
  CoreConfig percycle_config = PerCycleConfig();
  percycle_config.mram_parity = false;
  MetalSystem traced(traced_config);
  MetalSystem percycle(percycle_config);
  for (MetalSystem* s : {&traced, &percycle}) {
    s->AddMcode(kCounterMcode);
    ASSERT_OK(s->LoadProgramSource(kLongCounterProgram));
    ASSERT_OK(s->Boot());
  }
  RingBufferSink a = RetireRing(), b = RetireRing();
  traced.core().SetTraceSink(&a);
  percycle.core().SetTraceSink(&b);
  auto drive = [](MetalSystem& s) -> RunResult {
    s.Run(1500);
    // Flip `add t0, t0, a0` (second mroutine word) into `sub`.
    EXPECT_TRUE(s.core().mram().CorruptCodeWord(4, 0xFFFFFFFFu, 1u << 30));
    s.Run(1500);
    EXPECT_GT(s.core().mram().Scrub(), 0u);  // restores + bumps MRAM gen
    return s.Run(2'000'000);
  };
  const RunResult ra = drive(traced);
  const RunResult rb = drive(percycle);
  EXPECT_EQ(ra.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(rb.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(ra.exit_code, rb.exit_code);
  ExpectSameRetires(a.Events(), b.Events());
  EXPECT_GT(traced.core().superblocks().stats().executions, 0u);
}

TEST(SuperblockInvalidationTest, FaultEngineAttachDisablesTraceExecution) {
  // An attached fault engine can flip any word at any cycle, behind every
  // generation counter. StepFast refuses to run at all in that case.
  // Regression for the entry guard: the
  // counters must stay zero and behavior must match the per-cycle reference.
  MetalSystem traced;  // defaults: fast_step on
  MetalSystem reference(PerCycleConfig());
  FaultEngine traced_engine(/*seed=*/7);
  FaultEngine reference_engine(/*seed=*/7);
  ASSERT_OK(traced_engine.AddSpec("mram-data@3000:at=0,bit=3"));
  ASSERT_OK(reference_engine.AddSpec("mram-data@3000:at=0,bit=3"));
  traced.core().SetFaultEngine(&traced_engine);
  reference.core().SetFaultEngine(&reference_engine);
  for (MetalSystem* s : {&traced, &reference}) {
    s->AddMcode(kCounterMcode);
    ASSERT_OK(s->LoadProgramSource(kLongCounterProgram));
  }
  RingBufferSink a = RetireRing(), b = RetireRing();
  traced.core().SetTraceSink(&a);
  reference.core().SetTraceSink(&b);
  const RunResult ra = traced.Run(2'000'000);
  const RunResult rb = reference.Run(2'000'000);
  EXPECT_EQ(ra.reason, rb.reason);
  EXPECT_EQ(ra.exit_code, rb.exit_code);
  ExpectSameRetires(a.Events(), b.Events());
  EXPECT_EQ(traced.core().superblocks().stats().executions, 0u);
  EXPECT_EQ(traced.core().superblocks().stats().builds, 0u);
}

// ---------------------------------------------------------------------------
// Snapshots: restore parity and section round trips.
// ---------------------------------------------------------------------------

TEST(SuperblockSnapshotTest, RestoreMidLoopResumesIdentically) {
  // Core::SaveState deliberately excludes trace state (snapshots are
  // portable across stepping modes); restore invalidates the cache and the
  // tier rebuilds deterministically. The continuation retire stream of the
  // restored machine must equal the uninterrupted one — including into a
  // per-cycle core.
  Core original;  // defaults: fast_step on
  ASSERT_OK(original.LoadProgram(MustAssemble(kMixedProgram)));
  original.Run(1234);  // mid-loop, trace cache warm
  const std::vector<uint8_t> image = SaveSnapshot(original);
  const uint64_t digest_at_save = original.StateDigest(true);

  RingBufferSink rest_of_original = RetireRing();
  original.SetTraceSink(&rest_of_original);
  const RunResult ro = original.Run(2'000'000);
  EXPECT_EQ(ro.reason, RunResult::Reason::kHalted);

  const auto resume = [&](const CoreConfig& config) {
    Core restored(config);
    ASSERT_OK(RestoreSnapshot(restored, image));
    EXPECT_EQ(restored.StateDigest(true), digest_at_save);
    RingBufferSink rest = RetireRing();
    restored.SetTraceSink(&rest);
    const RunResult rr = restored.Run(2'000'000);
    EXPECT_EQ(rr.reason, RunResult::Reason::kHalted);
    EXPECT_EQ(rr.exit_code, ro.exit_code);
    ExpectSameRetires(rest_of_original.Events(), rest.Events());
  };
  resume(CoreConfig{});
  resume(PerCycleConfig());
}

TEST(SuperblockSnapshotTest, SaveRestoreRoundTripIsByteIdentical) {
  // The msim "superblocks" extras section: serializing a warm cache,
  // restoring it into a fresh one and serializing again must reproduce the
  // byte stream — traces (stale ones included, via raw-word re-translation)
  // and counters both.
  Core core;
  ASSERT_OK(core.LoadProgram(MustAssemble(kMixedProgram)));
  core.Run(5000);
  ASSERT_GT(core.superblocks().stats().builds, 0u);

  SnapWriter first;
  core.superblocks().SaveState(first);
  const std::vector<uint8_t> bytes = first.TakeBytes();

  SuperblockCache restored(/*enabled=*/true);
  SnapReader reader(bytes);
  ASSERT_OK(restored.RestoreState(reader));
  SnapWriter second;
  restored.SaveState(second);
  EXPECT_EQ(second.TakeBytes(), bytes);

  // Restoring into a core with the tier disabled keeps the counters (the
  // executor never runs, so --stats-json stays byte-identical) but drops
  // the traces.
  SuperblockCache disabled(/*enabled=*/false);
  SnapReader reader2(bytes);
  ASSERT_OK(disabled.RestoreState(reader2));
  EXPECT_EQ(disabled.stats().builds, core.superblocks().stats().builds);
  EXPECT_EQ(disabled.stats().executions, core.superblocks().stats().executions);
  EXPECT_EQ(disabled.stats().chains, core.superblocks().stats().chains);
  EXPECT_FALSE(disabled.enabled());
}

TEST(SuperblockSnapshotTest, RestoreRejectsCorruptSections) {
  SuperblockCache cache(/*enabled=*/true);
  const auto rejects = [&cache](SnapWriter& w) {
    const std::vector<uint8_t> bytes = w.TakeBytes();
    SnapReader r(bytes);
    return !cache.RestoreState(r).ok();
  };
  // v2 header plus one trace whose segment table starts at `start`.
  const auto trace_header = [](SnapWriter& w, uint32_t start) {
    w.U32(kSuperblockSectionV2);
    w.U32(2);  // version
    w.U32(1);  // live traces
    w.U32(start);
    w.U32(1);  // segments
  };
  {
    // Trace count past the cache geometry.
    SnapWriter w;
    w.U32(kSuperblockSectionV2);
    w.U32(2);
    w.U32(kSuperblockEntries + 1);
    EXPECT_TRUE(rejects(w));
  }
  {
    // Geometry that claims fewer total slots than executable ones.
    SnapWriter w;
    trace_header(w, 0x1000);
    w.U32(0x1000);  // segment start
    w.U32(4);       // exec_len
    w.U32(3);       // len < exec_len
    EXPECT_TRUE(rejects(w));
  }
  {
    // An executable slot whose raw word is not trace-safe (ecall).
    SnapWriter w;
    trace_header(w, 0x1000);
    w.U32(0x1000);      // segment start
    w.U32(2);           // exec_len
    w.U32(2);           // len
    w.U32(0x00000013);  // addi x0, x0, 0 — fine
    w.U32(0x00000073);  // ecall — untranslatable
    EXPECT_TRUE(rejects(w));
  }
  {
    // A well-formed section in the retired v1 format (live count, then
    // start/exec_len/len, raw words and six counters): no longer read.
    SnapWriter w;
    w.U32(1);           // live traces
    w.U32(0x1000);      // start
    w.U32(2);           // exec_len
    w.U32(2);           // len
    w.U32(0x00000013);  // addi x0, x0, 0
    w.U32(0x00000013);
    for (int i = 0; i < 6; ++i) {
      w.U64(0);
    }
    EXPECT_TRUE(rejects(w));
  }
}

}  // namespace
}  // namespace msim
