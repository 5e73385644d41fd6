// Predecode cache + hot-path stepping (docs/performance.md).
//
// Two properties are under test, both "invisible by construction":
//   1. StepFast is cycle- and byte-exact: after the same number of cycles a
//      fast_step core serializes to the identical SaveState stream as a
//      per-cycle core.
//   2. The predecode cache never changes behavior: for every invalidation
//      source in the coherence matrix (mst/loader writes, MRAMSCRUB,
//      fault-engine flips behind the write path, self-modifying DRAM stores,
//      snapshot restore) the retire stream matches a no-cache reference core
//      cycle for cycle.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/core.h"
#include "cpu/creg.h"
#include "fault/fault.h"
#include "metal/system.h"
#include "snap/snapshot.h"
#include "tests/sim_test_util.h"

namespace msim {
namespace {

// A no-cache, per-cycle reference configuration. Both knobs are
// architecturally invisible, so a default core must match it cycle-exactly.
CoreConfig ReferenceConfig() {
  CoreConfig config;
  config.predecode_entries = 0;
  config.fast_step = false;
  return config;
}

// ---------------------------------------------------------------------------
// StepFast byte-exactness.
// ---------------------------------------------------------------------------

// ALU/branch loop interleaved with loads and stores: traces run the inner
// loop, chain on its back edge and carry the loads and stores.
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

TEST(FastStepTest, ByteExactAgainstPerCycleAtManySyncPoints) {
  CoreConfig fast_config;  // defaults: fast_step on, predecode on
  Core fast(fast_config);
  CoreConfig slow_config = fast_config;
  slow_config.fast_step = false;  // same predecode geometry, per-cycle stepping
  Core slow(slow_config);
  const Program program = MustAssemble(kMixedProgram);
  ASSERT_OK(fast.LoadProgram(program));
  ASSERT_OK(slow.LoadProgram(program));

  RingBufferSink fast_retires = RetireRing(), slow_retires = RetireRing();
  fast.SetTraceSink(&fast_retires);
  slow.SetTraceSink(&slow_retires);

  // Deliberately awkward chunk sizes so sync points land inside traces, on
  // taken branches and mid-refill. CoreConfigHash excludes fast_step, so the
  // SaveState streams (and hence digests) are comparable across the pair.
  const uint64_t kChunks[] = {1, 2, 3, 7, 64, 129, 1000, 4096, 977, 50000};
  uint64_t at = 0;
  for (const uint64_t chunk : kChunks) {
    fast.Run(chunk);
    slow.Run(chunk);
    at += chunk;
    ASSERT_EQ(fast.cycle(), slow.cycle()) << "after " << at << " cycles";
    ASSERT_EQ(fast.StateDigest(/*include_dram=*/true),
              slow.StateDigest(/*include_dram=*/true))
        << "state diverged by cycle " << at;
  }
  const RunResult fr = fast.Run(2'000'000);
  const RunResult sr = slow.Run(2'000'000);
  EXPECT_EQ(fr.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(sr.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(fr.exit_code, sr.exit_code);
  EXPECT_EQ(fast.StateDigest(true), slow.StateDigest(true));
  ExpectSameRetires(fast_retires.Events(), slow_retires.Events());
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

TEST(FastStepTest, ByteExactWithTimerInterrupts) {
  // Device events and interrupt delivery exercise the event-horizon exit and
  // the single TickDevices catch-up: the fast core must take every interrupt
  // at exactly the cycle the per-cycle core does.
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
  CoreConfig fast_config;
  Core fast(fast_config);
  CoreConfig slow_config = fast_config;
  slow_config.fast_step = false;
  Core slow(slow_config);
  boot(fast);
  boot(slow);

  const uint64_t kChunks[] = {500, 333, 1024, 10000, 50000};
  for (const uint64_t chunk : kChunks) {
    fast.Run(chunk);
    slow.Run(chunk);
    ASSERT_EQ(fast.cycle(), slow.cycle());
    ASSERT_EQ(fast.StateDigest(true), slow.StateDigest(true))
        << "diverged by cycle " << fast.cycle();
  }
  const RunResult fr = fast.Run(2'000'000);
  const RunResult sr = slow.Run(2'000'000);
  EXPECT_EQ(fr.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(sr.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(fast.stats().interrupts, slow.stats().interrupts);
  EXPECT_GE(fast.stats().interrupts, 10u);
  EXPECT_EQ(fast.StateDigest(true), slow.StateDigest(true));
}

TEST(FastStepTest, RetireBoundedSteppingStopsExactly) {
  // The lockstep pump (snap/diverge) relies on max_retires: a bounded call
  // must never overshoot, and the bounded trajectory must match an unbounded
  // per-cycle run.
  Core fast;  // defaults
  ASSERT_OK(fast.LoadProgram(MustAssemble(kMixedProgram)));
  RingBufferSink retires = RetireRing();
  fast.SetTraceSink(&retires);
  // Pump forward 10 retires at a time using the public StepFast + StepCycle
  // fallback, mirroring RunRetireLockstep's structure.
  while (!fast.halted() && retires.total() < 500) {
    const uint64_t before = retires.total();
    if (fast.StepFast(100000, /*max_retires=*/10) == 0) {
      fast.StepCycle();
    }
    EXPECT_LE(retires.total() - before, 10u);
  }
  Core slow(ReferenceConfig());
  ASSERT_OK(slow.LoadProgram(MustAssemble(kMixedProgram)));
  RingBufferSink slow_retires = RetireRing();
  slow.SetTraceSink(&slow_retires);
  while (!slow.halted() && slow_retires.total() < retires.total()) {
    slow.StepCycle();
  }
  ASSERT_GE(slow_retires.total(), retires.total());
  std::vector<TraceEvent> slow_prefix = slow_retires.Events();
  slow_prefix.resize(retires.total());
  ExpectSameRetires(retires.Events(), slow_prefix);
}

TEST(FastStepTest, SingleCycleLockstepHoldsAtEveryHorizonBoundary) {
  // Horizon audit regression: pump the fast core ONE cycle at a time
  // (StepFast(1) with the StepCycle fallback, exactly the diverge-pump
  // shape) against a per-cycle core, with a short-interval timer so device
  // horizons land on every possible trace phase — mid-trace, on chained
  // back edges, during refills. A trace that commits even one cycle at or
  // past its horizon shows up as a digest mismatch at that exact cycle
  // instead of a smeared end-of-run failure.
  auto boot = [](Core& core) {
    MustLoadMcodeRaw(core, kTimerHandler);
    ASSERT_OK(core.LoadProgram(MustAssemble(R"(
      _start:
        li t2, 3000
      loop:
        addi t2, t2, -1
        bne t2, zero, loop
        halt zero
    )")));
    core.metal().DelegateIrq(1);
    core.metal().WriteCreg(kCrIenable, 1u << kIrqTimer);
    core.timer().Write32(12, 97);  // short, odd interval: all phases hit
    core.timer().Write32(4, 97);
    core.timer().Write32(8, 1);
  };
  Core fast;  // defaults: fast_step on
  CoreConfig slow_config;
  slow_config.fast_step = false;
  Core slow(slow_config);
  boot(fast);
  boot(slow);
  while (!fast.halted() && !slow.halted()) {
    if (fast.StepFast(1) == 0) {
      fast.StepCycle();
    }
    slow.StepCycle();
    ASSERT_EQ(fast.cycle(), slow.cycle());
    // DRAM excluded per cycle to keep the pump cheap; the program never
    // stores, and the final full digest below covers memory anyway.
    ASSERT_EQ(fast.StateDigest(/*include_dram=*/false),
              slow.StateDigest(/*include_dram=*/false))
        << "diverged at cycle " << fast.cycle();
  }
  EXPECT_TRUE(fast.halted());
  EXPECT_TRUE(slow.halted());
  EXPECT_EQ(fast.StateDigest(true), slow.StateDigest(true));
  EXPECT_GE(fast.stats().interrupts, 10u);
}

// ---------------------------------------------------------------------------
// Invalidation matrix: every coherence source vs the no-cache reference.
// ---------------------------------------------------------------------------

// Patches its own inner loop after three iterations: the stored word must
// take effect on the very next fetch, exactly as without the cache.
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

TEST(PredecodeInvalidationTest, SelfModifyingStoreMatchesNoCacheReference) {
  Core cached;  // defaults: predecode on, fast_step on
  Core reference(ReferenceConfig());
  ASSERT_OK(cached.LoadProgram(MustAssemble(kSelfModifyingProgram)));
  ASSERT_OK(reference.LoadProgram(MustAssemble(kSelfModifyingProgram)));
  RingBufferSink a = RetireRing(), b = RetireRing();
  cached.SetTraceSink(&a);
  reference.SetTraceSink(&b);
  // 3 iterations of +1, then the patched +5 for the remaining 3.
  MustHalt(cached, 18);
  MustHalt(reference, 18);
  ExpectSameRetires(a.Events(), b.Events());
  EXPECT_GT(cached.predecode().stats().hits, 0u);
}

// Accumulates into MRAM data with mld/mst: every mst bumps the shared MRAM
// generation, so cached decodes of the mroutine's own code must re-verify.
constexpr const char* kCounterMcode = R"(
    .mentry 1, count_add
  count_add:
    mld t0, 0(zero)
    add t0, t0, a0
    mst t0, 0(zero)
    mv a0, t0
    mexit
)";

constexpr const char* kCounterProgram = R"(
  _start:
    li s0, 10
    li s1, 0
  loop:
    li a0, 7
    menter 1
    mv s1, a0
    addi s0, s0, -1
    bne s0, zero, loop
    halt s1
)";

TEST(PredecodeInvalidationTest, MstGenerationBumpKeepsMramDecodesCoherent) {
  MetalSystem cached;  // defaults
  MetalSystem reference(ReferenceConfig());
  for (MetalSystem* s : {&cached, &reference}) {
    s->AddMcode(kCounterMcode);
    ASSERT_OK(s->LoadProgramSource(kCounterProgram));
  }
  RingBufferSink a = RetireRing(), b = RetireRing();
  cached.core().SetTraceSink(&a);
  reference.core().SetTraceSink(&b);
  MustHalt(cached, 70);
  MustHalt(reference, 70);
  ExpectSameRetires(a.Events(), b.Events());
  // The generation bumps forced re-verification, not silent stale hits:
  // verified hits happened, and the caches agree on the architectural result.
  EXPECT_GT(cached.core().predecode().stats().verified_hits, 0u);
}

// 400 invocations (exit 2800): long enough that mid-run corruption at a few
// thousand cycles lands while the accelerator loop is still hot.
constexpr const char* kLongCounterProgram = R"(
  _start:
    li s0, 400
    li s1, 0
  loop:
    li a0, 7
    menter 1
    mv s1, a0
    addi s0, s0, -1
    bne s0, zero, loop
    halt s1
)";

TEST(PredecodeInvalidationTest, ScrubRestoresCorruptedDecodeIdentically) {
  // With parity off, a bit flipped behind the write path silently decodes to
  // a DIFFERENT valid instruction (add -> sub at bit 30) and gets cached.
  // MRAMSCRUB then restores the word from the shadow copy; the generation
  // bump must invalidate the cached corrupt decode on both machines alike.
  CoreConfig cached_config;
  cached_config.mram_parity = false;
  CoreConfig reference_config = ReferenceConfig();
  reference_config.mram_parity = false;
  MetalSystem cached(cached_config);
  MetalSystem reference(reference_config);
  for (MetalSystem* s : {&cached, &reference}) {
    s->AddMcode(kCounterMcode);
    ASSERT_OK(s->LoadProgramSource(kLongCounterProgram));
    ASSERT_OK(s->Boot());
  }
  RingBufferSink a = RetireRing(), b = RetireRing();
  cached.core().SetTraceSink(&a);
  reference.core().SetTraceSink(&b);

  auto drive = [](MetalSystem& s) -> RunResult {
    s.Run(1500);  // invocations fill the predecode cache
    // Flip `add t0, t0, a0` (second mroutine word) into `sub`.
    EXPECT_TRUE(s.core().mram().CorruptCodeWord(4, 0xFFFFFFFFu, 1u << 30));
    s.Run(1500);  // the corrupted decode is fetched, cached and executed
    EXPECT_GT(s.core().mram().Scrub(), 0u);  // MRAMSCRUB restores + bumps gen
    return s.Run(2'000'000);
  };
  const RunResult ra = drive(cached);
  const RunResult rb = drive(reference);
  EXPECT_EQ(ra.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(rb.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(ra.exit_code, rb.exit_code);
  // The corruption must actually have been observed (sub ran for a while).
  EXPECT_NE(ra.exit_code, 2800u);
  ExpectSameRetires(a.Events(), b.Events());
}

TEST(PredecodeInvalidationTest, FaultEngineMramCodeFlipMatchesReference) {
  CoreConfig cached_config;
  cached_config.mram_parity = false;
  CoreConfig reference_config = ReferenceConfig();
  reference_config.mram_parity = false;
  MetalSystem cached(cached_config);
  MetalSystem reference(reference_config);
  FaultEngine cached_engine(/*seed=*/7);
  FaultEngine reference_engine(/*seed=*/7);
  // Pinned location and bit: add -> sub, mid-run, silently (parity off).
  ASSERT_OK(cached_engine.AddSpec("mram-code@3000:at=4,bit=30"));
  ASSERT_OK(reference_engine.AddSpec("mram-code@3000:at=4,bit=30"));
  cached.core().SetFaultEngine(&cached_engine);
  reference.core().SetFaultEngine(&reference_engine);
  for (MetalSystem* s : {&cached, &reference}) {
    s->AddMcode(kCounterMcode);
    ASSERT_OK(s->LoadProgramSource(kLongCounterProgram));
  }
  RingBufferSink a = RetireRing(), b = RetireRing();
  cached.core().SetTraceSink(&a);
  reference.core().SetTraceSink(&b);
  const RunResult ra = cached.Run(2'000'000);
  const RunResult rb = reference.Run(2'000'000);
  EXPECT_EQ(cached_engine.injections(), 1u);
  EXPECT_EQ(ra.reason, rb.reason);
  EXPECT_EQ(ra.exit_code, rb.exit_code);
  EXPECT_NE(ra.exit_code, 2800u);  // the flip changed the result on both
  ExpectSameRetires(a.Events(), b.Events());
}

TEST(PredecodeInvalidationTest, SnapshotRestoreMidLoopResumesIdentically) {
  // Restore must resume with the saved predecode contents (or an invalidated
  // cache — either way, identical behavior): the continuation retire stream
  // of the restored machine must equal the uninterrupted one.
  Core original;  // defaults: predecode on, fast_step on
  ASSERT_OK(original.LoadProgram(MustAssemble(kMixedProgram)));
  original.Run(1234);  // mid-loop, predecode warm
  const std::vector<uint8_t> image = SaveSnapshot(original);
  const uint64_t digest_at_save = original.StateDigest(true);

  RingBufferSink rest_of_original = RetireRing();
  original.SetTraceSink(&rest_of_original);
  const RunResult ro = original.Run(2'000'000);
  EXPECT_EQ(ro.reason, RunResult::Reason::kHalted);

  // Same config restore.
  Core restored;
  ASSERT_OK(RestoreSnapshot(restored, image));
  EXPECT_EQ(restored.StateDigest(true), digest_at_save);
  RingBufferSink rest_of_restored = RetireRing();
  restored.SetTraceSink(&rest_of_restored);
  const RunResult rr = restored.Run(2'000'000);
  EXPECT_EQ(rr.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(rr.exit_code, ro.exit_code);
  ExpectSameRetires(rest_of_original.Events(), rest_of_restored.Events());

  // A snapshot taken under fast_step restores into a per-cycle core (the
  // config hash deliberately excludes fast_step) and resumes identically.
  CoreConfig slow_config;
  slow_config.fast_step = false;
  Core slow(slow_config);
  ASSERT_OK(RestoreSnapshot(slow, image));
  EXPECT_EQ(slow.StateDigest(true), digest_at_save);
  RingBufferSink rest_of_slow = RetireRing();
  slow.SetTraceSink(&rest_of_slow);
  const RunResult rs = slow.Run(2'000'000);
  EXPECT_EQ(rs.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(rs.exit_code, ro.exit_code);
  ExpectSameRetires(rest_of_original.Events(), rest_of_slow.Events());
}

// ---------------------------------------------------------------------------
// Decode-trap audit: undecodable mroutine words.
// ---------------------------------------------------------------------------

TEST(PredecodeTrapTest, UndecodableMroutineWordTrapsIdenticallyCachedAndNot) {
  // With parity disabled (--no-parity), a word zeroed behind the write path
  // is fetched silently and fails decode. Whether the word enters EX via the
  // decode-stage replacement chain (fast_transition) or via a redirected
  // Metal-frontend fetch, and whether the decode came from the predecode
  // cache or cold, the trap must be the same illegal-instruction exception.
  auto run_one = [](bool predecode_on, bool fast_transition,
                    RingBufferSink* retires, CoreStats* stats) -> RunResult {
    CoreConfig config;
    config.mram_parity = false;
    config.fast_transition = fast_transition;
    if (!predecode_on) {
      config.predecode_entries = 0;
      config.fast_step = false;
    }
    MetalSystem system(config);
    system.AddMcode(kCounterMcode);
    EXPECT_OK(system.LoadProgramSource(kCounterProgram));
    EXPECT_OK(system.Boot());
    // Zero the mroutine's FIRST word (the replacement-chain target).
    EXPECT_TRUE(system.core().mram().CorruptCodeWord(0, 0u, 0u));
    system.core().SetTraceSink(retires);
    const RunResult r = system.Run(100'000);
    *stats = system.core().stats();
    return r;
  };

  for (const bool fast_transition : {true, false}) {
    RingBufferSink cached_retires = RetireRing(), reference_retires = RetireRing();
    CoreStats cached_stats, reference_stats;
    const RunResult cached =
        run_one(/*predecode_on=*/true, fast_transition, &cached_retires, &cached_stats);
    const RunResult reference = run_one(/*predecode_on=*/false, fast_transition,
                                        &reference_retires, &reference_stats);
    // The undelegated illegal-instruction trap from Metal mode must surface
    // the same way on both machines, at the same point in the program.
    EXPECT_EQ(cached.reason, reference.reason) << "fast_transition=" << fast_transition;
    EXPECT_EQ(cached.exit_code, reference.exit_code);
    EXPECT_EQ(cached.fatal_message, reference.fatal_message);
    EXPECT_EQ(cached_stats.exceptions, reference_stats.exceptions);
    EXPECT_EQ(cached_stats.machine_checks, reference_stats.machine_checks);
    ExpectSameRetires(cached_retires.Events(), reference_retires.Events());
  }
}

}  // namespace
}  // namespace msim
