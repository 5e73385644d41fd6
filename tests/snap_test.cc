// Tests for the checkpoint/restore subsystem (src/snap/): the byte-stream
// codec, snapshot container validation, and the round-trip property — a run
// snapshotted at an arbitrary cycle and restored into a fresh machine must be
// indistinguishable from the uninterrupted run (docs/determinism.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/core.h"
#include "metal/system.h"
#include "snap/replay.h"
#include "snap/snapshot.h"
#include "snap/snapstream.h"
#include "support/result.h"
#include "support/rng.h"
#include "tests/sim_test_util.h"

namespace msim {
namespace {

// ---------------------------------------------------------------------------
// SnapWriter / SnapReader.

TEST(SnapStreamTest, RoundTripsAllTypes) {
  SnapWriter w;
  w.U8(0xAB);
  w.U16(0xBEEF);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.Bool(true);
  w.Bool(false);
  w.Bytes(std::vector<uint8_t>{1, 2, 3});
  w.Str("hello");

  SnapReader r(w.bytes());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U16(), 0xBEEF);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  EXPECT_EQ(r.Bytes(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(SnapStreamTest, TruncationIsStickyAndReportsContext) {
  SnapWriter w;
  w.U32(7);
  SnapReader r(w.bytes());
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_EQ(r.U64(), 0u);  // past the end: zero, and ok() flips
  EXPECT_FALSE(r.ok());
  const Status status = r.ToStatus("test payload");
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.message().find("test payload"), std::string::npos);
}

TEST(SnapStreamTest, DigestOnlyModeMatchesBufferedDigest) {
  SnapWriter buffered;
  SnapWriter digest_only(SnapWriter::Mode::kDigestOnly);
  for (SnapWriter* w : {&buffered, &digest_only}) {
    w->U64(0x1122334455667788ull);
    w->Str("digest me");
    w->U8(9);
  }
  EXPECT_EQ(buffered.digest(), digest_only.digest());
  EXPECT_EQ(digest_only.size(), buffered.size());
  EXPECT_TRUE(digest_only.bytes().empty());
}

// ---------------------------------------------------------------------------
// CoreConfig hashing.

TEST(CoreConfigHashTest, EqualConfigsHashEqual) {
  CoreConfig a;
  CoreConfig b;
  EXPECT_EQ(CoreConfigHash(a), CoreConfigHash(b));
}

TEST(CoreConfigHashTest, TimingFieldsChangeTheHash) {
  const CoreConfig base;
  CoreConfig no_fast = base;
  no_fast.fast_transition = false;
  CoreConfig dram = base;
  dram.mroutine_storage = MroutineStorage::kDramCached;
  CoreConfig watchdog = base;
  watchdog.metal_watchdog_cycles = 1000;
  EXPECT_NE(CoreConfigHash(base), CoreConfigHash(no_fast));
  EXPECT_NE(CoreConfigHash(base), CoreConfigHash(dram));
  EXPECT_NE(CoreConfigHash(base), CoreConfigHash(watchdog));
  EXPECT_NE(CoreConfigHash(no_fast), CoreConfigHash(dram));
}

// ---------------------------------------------------------------------------
// Snapshot container validation.

// The bump mroutine keeps a counter in m7, mirrors it to MRAM data, and
// leaves the new value in t0 for the normal-mode caller (GPRs are shared
// across the mode transition).
constexpr const char* kMcode = R"(
    .mentry 1, bump
  bump:
    rmr t0, m7
    addi t0, t0, 1
    wmr m7, t0
    mst t0, 0(zero)
    mexit
)";

// Metal transitions, DRAM stores, a loop and console-free compute: enough
// machinery that a broken field in the snapshot shows up as a different run.
constexpr const char* kProgram = R"(
  _start:
    la t6, scratch
    li s11, 25
  loop:
    menter 1
    sw t0, 0(t6)
    lw t2, 0(t6)
    add s2, s2, t2
    addi s11, s11, -1
    bnez s11, loop
    andi a0, s2, 0x7F
    halt a0
  .data
  scratch:
    .word 0
)";

TEST(SnapshotTest, RejectsBadMagic) {
  MetalSystem system;
  system.AddMcode(kMcode);
  ASSERT_OK(system.LoadProgramSource(kProgram));
  ASSERT_OK(system.Boot());
  std::vector<uint8_t> garbage = {'N', 'O', 'P', 'E', 0, 0, 0, 0, 1, 2, 3};
  const Status status = RestoreSnapshot(system.core(), garbage);
  EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("magic"), std::string::npos);
}

TEST(SnapshotTest, RejectsVersionMismatch) {
  MetalSystem system;
  system.AddMcode(kMcode);
  ASSERT_OK(system.LoadProgramSource(kProgram));
  ASSERT_OK(system.Boot());
  std::vector<uint8_t> image = SaveSnapshot(system.core());
  image[8] = static_cast<uint8_t>(kSnapshotVersion + 1);  // little-endian u32
  const Status status = RestoreSnapshot(system.core(), image);
  EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("version"), std::string::npos);
}

TEST(SnapshotTest, RejectsConfigMismatch) {
  MetalSystem saver;
  saver.AddMcode(kMcode);
  ASSERT_OK(saver.LoadProgramSource(kProgram));
  ASSERT_OK(saver.Boot());
  const std::vector<uint8_t> image = SaveSnapshot(saver.core());

  CoreConfig other_config;
  other_config.fast_transition = false;
  MetalSystem other(other_config);
  other.AddMcode(kMcode);
  ASSERT_OK(other.LoadProgramSource(kProgram));
  ASSERT_OK(other.Boot());
  const Status status = RestoreSnapshot(other.core(), image);
  EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("CoreConfig"), std::string::npos);
}

TEST(SnapshotTest, MetaReportsCycleAndVersion) {
  MetalSystem system;
  system.AddMcode(kMcode);
  ASSERT_OK(system.LoadProgramSource(kProgram));
  ASSERT_OK(system.Boot());
  system.core().Run(37);
  const std::vector<uint8_t> image = SaveSnapshot(system.core());
  const auto meta = ReadSnapshotMeta(image);
  ASSERT_OK(meta.status());
  EXPECT_EQ(meta->version, kSnapshotVersion);
  EXPECT_EQ(meta->cycle, 37u);
  EXPECT_EQ(meta->config_hash, CoreConfigHash(system.core().config()));
}

TEST(SnapshotTest, ExtraSectionsRoundTrip) {
  MetalSystem system;
  system.AddMcode(kMcode);
  ASSERT_OK(system.LoadProgramSource(kProgram));
  ASSERT_OK(system.Boot());
  std::vector<SnapshotSection> extras = {{"custom", {9, 8, 7}}};
  const std::vector<uint8_t> image = SaveSnapshot(system.core(), extras);
  std::vector<SnapshotSection> restored_extras;
  ASSERT_OK(RestoreSnapshot(system.core(), image, &restored_extras));
  ASSERT_EQ(restored_extras.size(), 1u);
  EXPECT_EQ(restored_extras[0].name, "custom");
  EXPECT_EQ(restored_extras[0].payload, (std::vector<uint8_t>{9, 8, 7}));
}

// ---------------------------------------------------------------------------
// The round-trip property.

// Snapshot the reference machine at `snap_cycle`, restore into a fresh
// machine, run both to completion: the restored machine must retire the same
// instruction stream (absolute cycles included) and end in the same state.
void CheckRoundTripAtCycle(const CoreConfig& config, uint64_t snap_cycle) {
  MetalSystem reference(config);
  reference.AddMcode(kMcode);
  ASSERT_OK(reference.LoadProgramSource(kProgram));
  ASSERT_OK(reference.Boot());
  reference.core().Run(snap_cycle);
  ASSERT_FALSE(reference.core().halted()) << "snap cycle beyond program end";
  const std::vector<uint8_t> image = SaveSnapshot(reference.core());

  MetalSystem restored(config);
  restored.AddMcode(kMcode);
  ASSERT_OK(restored.LoadProgramSource(kProgram));
  ASSERT_OK(restored.Boot());
  ASSERT_OK(RestoreSnapshot(restored.core(), image));
  EXPECT_EQ(restored.core().cycle(), snap_cycle);
  EXPECT_EQ(restored.core().StateDigest(true), reference.core().StateDigest(true));

  RingBufferSink ref_retires = RetireRing();
  RingBufferSink res_retires = RetireRing();
  reference.core().SetTraceSink(&ref_retires);
  restored.core().SetTraceSink(&res_retires);
  const RunResult ref_result = reference.core().Run(1'000'000);
  const RunResult res_result = restored.core().Run(1'000'000);

  ASSERT_EQ(ref_result.reason, RunResult::Reason::kHalted) << ref_result.fatal_message;
  EXPECT_EQ(res_result.reason, ref_result.reason);
  EXPECT_EQ(res_result.exit_code, ref_result.exit_code);
  EXPECT_EQ(res_result.instret, ref_result.instret);
  EXPECT_EQ(restored.core().cycle(), reference.core().cycle());
  ExpectSameRetires(ref_retires.Events(), res_retires.Events());
  EXPECT_EQ(restored.core().StateDigest(true), reference.core().StateDigest(true));
  EXPECT_EQ(restored.core().console().output(), reference.core().console().output());
}

TEST(SnapshotRoundTripTest, ResumesBitIdenticallyAtRandomCycles) {
  // Property test: seeded-random snapshot points across the run, under both
  // the default config and DRAM-resident mroutines.
  Rng rng(0xC0FFEE);
  CoreConfig dram;
  dram.mroutine_storage = MroutineStorage::kDramCached;
  for (int i = 0; i < 6; ++i) {
    const uint64_t snap_cycle = rng.Range(1, 200);
    SCOPED_TRACE("snap cycle " + std::to_string(snap_cycle));
    CheckRoundTripAtCycle(CoreConfig{}, snap_cycle);
    CheckRoundTripAtCycle(dram, snap_cycle);
  }
}

TEST(SnapshotRoundTripTest, SparseDramPagesSurvive) {
  MetalSystem system;
  ASSERT_OK(system.LoadProgramSource(R"(
    _start:
      li t0, 0x00300000
      li t1, 0x5AFE5AFE
      sw t1, 0(t0)
      li t0, 0x00000100
      sw t1, 0(t0)
      halt zero
  )"));
  MustHalt(system, 0);
  const std::vector<uint8_t> image = SaveSnapshot(system.core());

  MetalSystem restored;
  ASSERT_OK(restored.LoadProgramSource("_start:\n  halt zero\n"));
  ASSERT_OK(restored.Boot());
  ASSERT_OK(RestoreSnapshot(restored.core(), image));
  EXPECT_EQ(restored.core().StateDigest(true), system.core().StateDigest(true));
}

TEST(SnapshotRoundTripTest, RestoreIntoDirtiedMachineMatchesFreshRestore) {
  // DRAM restore zeroes only the pages the machine wrote before (its dirty
  // bitmap), so a machine that dirtied other pages must end up exactly where
  // a fresh one does.
  MetalSystem reference;
  reference.AddMcode(kMcode);
  ASSERT_OK(reference.LoadProgramSource(kProgram));
  ASSERT_OK(reference.Boot());
  reference.core().Run(60);
  const std::vector<uint8_t> image = SaveSnapshot(reference.core());

  MetalSystem fresh;
  ASSERT_OK(fresh.LoadProgramSource("_start:\n  halt zero\n"));
  ASSERT_OK(fresh.Boot());
  ASSERT_OK(RestoreSnapshot(fresh.core(), image));

  MetalSystem dirtied;
  ASSERT_OK(dirtied.LoadProgramSource(R"(
    _start:
      li t1, 0x5AFE5AFE
      li t0, 0x00300000
      sw t1, 0(t0)
      li t0, 0x00A00FFE
      sh t1, 0(t0)
      li t0, 0x00000200
      sw t1, 0(t0)
      halt zero
  )"));
  MustHalt(dirtied, 0);
  ASSERT_TRUE(dirtied.core().bus().dram().Write32(0x00FFF000, 7));
  ASSERT_OK(RestoreSnapshot(dirtied.core(), image));

  EXPECT_EQ(dirtied.core().StateDigest(true), fresh.core().StateDigest(true));
  EXPECT_EQ(dirtied.core().StateDigest(true), reference.core().StateDigest(true));
  EXPECT_EQ(SaveSnapshot(dirtied.core()), SaveSnapshot(fresh.core()));
  EXPECT_EQ(SaveSnapshot(dirtied.core()), image);
  const PhysicalMemory& dram = dirtied.core().bus().dram();
  EXPECT_EQ(dram.Read32(0x00300000), 0u);
  EXPECT_EQ(dram.Read32(0x00A00FFC), 0u);
  EXPECT_EQ(dram.Read32(0x00A01000), 0u);
  EXPECT_EQ(dram.Read32(0x00FFF000), 0u);
}

// ---------------------------------------------------------------------------
// Snapshot compatibility corpus: checkpoints written by an earlier build
// (`msim run ... --checkpoint-every N`, tests/data/snapcorpus/README.md). Each
// must restore to the pinned digest, re-save to the same bytes and finish the
// run as the straight run does, so a change to the save path that alters the
// format fails here.

struct CorpusCheckpoint {
  const char* file;
  uint64_t state_digest;  // Core::StateDigest(true) right after restore
  uint32_t exit_code;
  uint64_t final_cycle;
};

TEST(SnapshotCorpusTest, EarlierBuildCheckpointsRestoreUnchanged) {
  const CorpusCheckpoint corpus[] = {
      {"memloop-20000.msnap", 0xf572b47570c0e3afull, 0, 52047},
      {"campaign-100.msnap", 0x07997549a23fe7a6ull, 60, 240},
  };
  for (const CorpusCheckpoint& entry : corpus) {
    SCOPED_TRACE(entry.file);
    const auto image =
        ReadFileBytes(std::string(MSIM_TEST_DATA_DIR "/snapcorpus/") + entry.file);
    ASSERT_OK(image.status());
    Core core{CoreConfig{}};
    std::vector<SnapshotSection> extras;
    ASSERT_OK(RestoreSnapshot(core, *image, &extras));
    EXPECT_EQ(core.StateDigest(true), entry.state_digest);
    EXPECT_EQ(SaveSnapshot(core, extras), *image);
    const RunResult result = core.Run(1'000'000);
    EXPECT_EQ(result.reason, RunResult::Reason::kHalted) << result.fatal_message;
    EXPECT_EQ(result.exit_code, entry.exit_code);
    EXPECT_EQ(core.cycle(), entry.final_cycle);
  }
}

// ---------------------------------------------------------------------------
// Replay log.

TEST(ReplayLogTest, SaveRestoreRoundTripsEvents) {
  MetalSystem system;
  ASSERT_OK(system.LoadProgramSource("_start:\n  halt zero\n"));
  ASSERT_OK(system.Boot());
  ReplayLog log;
  log.RecordNicPacket(system, 500, {0xAA, 0xBB});
  log.RecordNicPacket(system, 900, {0x01});

  SnapWriter w;
  log.Save(w);
  ReplayLog loaded;
  SnapReader r(w.bytes());
  ASSERT_OK(loaded.Restore(r));
  ASSERT_EQ(loaded.events().size(), 2u);
  EXPECT_EQ(loaded.events()[0].cycle, 500u);
  EXPECT_EQ(loaded.events()[0].payload, (std::vector<uint8_t>{0xAA, 0xBB}));
  EXPECT_EQ(loaded.events()[1].cycle, 900u);
}

TEST(ReplayLogTest, ReplayReproducesRecordedNicRun) {
  // The recorded run: packets perturb NIC state while the program spins.
  constexpr const char* kSpin = R"(
    _start:
      li s11, 300
    loop:
      addi s11, s11, -1
      bnez s11, loop
      halt zero
  )";
  MetalSystem recorded;
  ASSERT_OK(recorded.LoadProgramSource(kSpin));
  ASSERT_OK(recorded.Boot());
  ReplayLog log;
  log.RecordNicPacket(recorded, 100, {1, 2, 3, 4});
  log.RecordNicPacket(recorded, 400, {5, 6});
  const RunResult want = recorded.Run(10'000);
  ASSERT_EQ(want.reason, RunResult::Reason::kHalted);

  MetalSystem replayed;
  ASSERT_OK(replayed.LoadProgramSource(kSpin));
  const auto got = log.Replay(replayed, 10'000);
  ASSERT_OK(got.status());
  EXPECT_EQ(got->reason, want.reason);
  EXPECT_EQ(got->instret, want.instret);
  EXPECT_EQ(replayed.core().cycle(), recorded.core().cycle());
  EXPECT_EQ(replayed.core().StateDigest(true), recorded.core().StateDigest(true));
}

}  // namespace
}  // namespace msim
