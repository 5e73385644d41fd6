// Tests for the checkpoint/restore subsystem (src/snap/): the byte-stream
// codec, snapshot container validation, and the round-trip property — a run
// snapshotted at an arbitrary cycle and restored into a fresh machine must be
// indistinguishable from the uninterrupted run (docs/determinism.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/core.h"
#include "cpu/creg.h"
#include "cpu/superblock.h"
#include "fault/fault.h"
#include "metal/system.h"
#include "snap/replay.h"
#include "snap/snapshot.h"
#include "snap/snapstream.h"
#include "support/result.h"
#include "support/rng.h"
#include "support/strings.h"
#include "tests/sim_test_util.h"
#include "trace/span.h"
#include "trace/trace.h"

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

// ---------------------------------------------------------------------------
// Format pins for the payloads no other test pins: the "fault" and
// "superblocks" checkpoint sections, the MSIMRPLY replay log, and a core
// section carrying the state both corpus checkpoints leave at defaults. Small
// payloads are pinned as hex, large ones as length plus FNV-1a of the bytes.
// A change to any of these formats must bump kSnapshotVersion (or
// kReplayLogVersion) and update the pin deliberately.

std::string Hex(const std::vector<uint8_t>& bytes) {
  std::string out;
  for (const uint8_t byte : bytes) {
    out += StrFormat("%02x", byte);
  }
  return out;
}

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t hash = kFnvOffsetBasis;
  for (const uint8_t byte : bytes) {
    hash = (hash ^ byte) * kFnvPrime;
  }
  return hash;
}

// Two specs, the first fired (its unpinned mreg and bit drew from the RNG),
// the second still pending.
std::vector<uint8_t> FaultSectionPayload() {
  Core core;
  EXPECT_OK(core.LoadProgram(MustAssemble("_start:\n  j _start\n")));
  core.Run(6);
  FaultEngine engine(/*seed=*/7);
  EXPECT_OK(engine.AddSpec("mreg@5"));
  EXPECT_OK(engine.AddSpec("mram-data@1000:at=0,bit=1"));
  engine.Tick(core);
  EXPECT_EQ(engine.injections(), 1u);
  SnapWriter w;
  engine.SaveState(w);
  return w.TakeBytes();
}

// Spec count, RNG state, fired-flag count, one flag per spec, injections.
constexpr const char* kFaultSectionHex =
    "0200000000000000" "3c74df7d2c6da6da" "0200000000000000" "01" "00" "0100000000000000";

TEST(SnapshotFormatPinTest, FaultSectionBytesArePinned) {
  EXPECT_EQ(Hex(FaultSectionPayload()), kFaultSectionHex);
}

TEST(SnapshotFormatPinTest, FaultSectionRestoresIntoAnEngineWithTheSameSpecs) {
  const std::vector<uint8_t> payload = FaultSectionPayload();
  FaultEngine engine(/*seed=*/99);
  ASSERT_OK(engine.AddSpec("mreg@5"));
  ASSERT_OK(engine.AddSpec("mram-data@1000:at=0,bit=1"));
  SnapReader r(payload);
  ASSERT_OK(engine.RestoreState(r));
  SnapWriter w;
  engine.SaveState(w);
  EXPECT_EQ(w.bytes(), payload);
}

TEST(SnapshotFormatPinTest, FaultSectionRejectsAFiredCountThatIsNotOnePerSpec) {
  // An absurd count must fail as malformed input, not allocate.
  for (const uint64_t num_fired : {uint64_t{1}, uint64_t{3}, uint64_t{1} << 62}) {
    SnapWriter w;
    w.U64(2);   // specs
    w.U64(42);  // RNG state
    w.U64(num_fired);
    FaultEngine engine(/*seed=*/1);
    ASSERT_OK(engine.AddSpec("mreg@5"));
    ASSERT_OK(engine.AddSpec("mram-data@1000:at=0,bit=1"));
    SnapReader r(w.bytes());
    EXPECT_EQ(engine.RestoreState(r).code(), ErrorCode::kInvalidArgument) << num_fired;
  }
}

// A hand-built v2 "superblocks" section: one trace at 0x1000 whose root
// segment's bne links to a grown segment at 0x1020, whose own beq has a
// growth pending (grow_slot 8), plus the ten counters.
std::vector<uint8_t> SuperblockSectionPayload() {
  const Program program = MustAssemble(R"(
    _start:
      addi x1, x1, 1
      addi x2, x2, 1
      bne x1, x3, grown
      addi x4, x4, 1
      addi x5, x5, 1
      addi x6, x6, 1
      addi x7, x7, 1
      addi x8, x8, 1
    grown:
      addi x9, x9, 1
      beq x9, x10, _start
      addi x11, x11, 1
      addi x12, x12, 1
  )");
  const auto word = [&program](uint32_t index) {
    uint32_t value = 0;
    for (uint32_t b = 0; b < 4; ++b) {
      value |= static_cast<uint32_t>(program.text.bytes[4 * index + b]) << (8 * b);
    }
    return value;
  };
  SnapWriter w;
  w.U32(kSuperblockSectionV2);
  w.U32(2);       // section format version
  w.U32(1);       // live traces
  w.U32(0x1000);  // trace start
  w.U32(2);       // segments: (start, exec_len, len)
  w.U32(0x1000);
  w.U32(4);
  w.U32(6);
  w.U32(0x1020);
  w.U32(2);
  w.U32(4);
  for (const uint32_t index : {0u, 1u, 2u, 3u, 4u, 5u, 8u, 9u, 10u, 11u}) {
    w.U32(word(index));  // raw words, segment by segment
  }
  for (uint32_t slot = 0; slot < 10; ++slot) {
    // (taken segment, taken count, not-taken count) per slot.
    const bool linked = slot == 2;
    const bool counting = slot == 7;
    w.U32(linked ? 1u : static_cast<uint32_t>(static_cast<int32_t>(kSbSegUnlinked)));
    w.U32(linked ? 17u : counting ? 9u : 0u);
    w.U32(linked ? 1u : counting ? 1u : 0u);
  }
  w.U8(1);   // grow_pending
  w.U32(7);  // grow_slot: the grown segment's beq
  for (uint64_t counter = 1; counter <= 10; ++counter) {
    w.U64(counter * 11);
  }
  return w.TakeBytes();
}

constexpr const char* kSuperblockSectionHex =
    "ffffffff" "02000000" "01000000"                      // v2 marker, version, live
    "00100000" "02000000"                                  // trace start, segments
    "00100000" "04000000" "06000000"                      // root: 0x1000, exec 4, len 6
    "20100000" "02000000" "04000000"                      // grown: 0x1020, exec 2, len 4
    "93801000" "13011100" "639c3000" "13021200" "93821200"  // root raw words
    "13031300"
    "93841400" "e38ea4fc" "93851500" "13061600"            // grown raw words
    "ffffffff" "00000000" "00000000"                      // slot 0
    "ffffffff" "00000000" "00000000"                      // slot 1
    "01000000" "11000000" "01000000"                      // slot 2: bne -> segment 1
    "ffffffff" "00000000" "00000000"                      // slots 3..6
    "ffffffff" "00000000" "00000000"
    "ffffffff" "00000000" "00000000"
    "ffffffff" "00000000" "00000000"
    "ffffffff" "09000000" "01000000"                      // slot 7: beq, counting
    "ffffffff" "00000000" "00000000"                      // slots 8, 9
    "ffffffff" "00000000" "00000000"
    "01" "07000000"                                        // grow pending at slot 7
    "0b00000000000000" "1600000000000000" "2100000000000000" "2c00000000000000"
    "3700000000000000" "4200000000000000" "4d00000000000000" "5800000000000000"
    "6300000000000000" "6e00000000000000";                // the ten counters

TEST(SnapshotFormatPinTest, SuperblockSectionWithTreeLinkReserializesToPinnedBytes) {
  const std::vector<uint8_t> payload = SuperblockSectionPayload();
  SuperblockCache cache(/*enabled=*/true);
  SnapReader r(payload);
  ASSERT_OK(cache.RestoreState(r));
  const Superblock* sb = cache.Lookup(0x1000);
  ASSERT_NE(sb, nullptr);
  ASSERT_EQ(sb->segs.size(), 2u);
  EXPECT_EQ(sb->slots[2].taken_seg, 1);
  EXPECT_TRUE(sb->grow_pending);
  SnapWriter w;
  cache.SaveState(w);
  EXPECT_EQ(Hex(w.bytes()), kSuperblockSectionHex);
  EXPECT_EQ(w.bytes(), payload);
}

std::vector<uint8_t> ReplayLogPayload() {
  MetalSystem system;
  EXPECT_OK(system.LoadProgramSource("_start:\n  j _start\n"));
  EXPECT_OK(system.Boot());
  system.core().Run(12);
  ReplayLog log;
  log.RecordNicPacket(system, 40, {0xAA, 0xBB, 0xCC});
  EXPECT_OK(log.RecordStmRemoteCommit(system, 0x00100000, 0x00100100, 16, 0x00100040, 0x5A5A));
  SnapWriter w;
  log.Save(w);
  return w.TakeBytes();
}

// Magic, version, event count, then per event kind, cycle and the kind's body.
constexpr const char* kReplayLogHex =
    "4d53494d52504c59" "01000000" "0200000000000000"  // MSIMRPLY, version 1, 2 events
    "01" "2800000000000000" "0300000000000000" "aabbcc"  // NIC packet at 40
    "02" "0c00000000000000"                              // STM remote commit at 12:
    "00001000" "00011000" "10000000" "40001000" "5a5a0000";  // clock, vtbl, words, addr, value

TEST(SnapshotFormatPinTest, ReplayLogBytesArePinned) {
  const std::vector<uint8_t> payload = ReplayLogPayload();
  EXPECT_EQ(Hex(payload), kReplayLogHex);
  ReplayLog loaded;
  SnapReader r(payload);
  ASSERT_OK(loaded.Restore(r));
  SnapWriter w;
  loaded.Save(w);
  EXPECT_EQ(w.bytes(), payload);
}

// A core whose state departs from the defaults wherever the corpus files do
// not: a fatal status with a message, scheduled and queued NIC packets, an
// armed periodic timer, valid TLB entries under paging, enabled intercept
// slots, latched Metal operands and a pending Metal writeback.
void BuildOffDefaultCore(Core& core) {
  ASSERT_OK(core.LoadProgram(MustAssemble("_start:\n  li t0, 5\n  ecall\n")));
  core.Run(200);
  ASSERT_TRUE(core.has_fatal());
  ASSERT_FALSE(core.fatal_status().message().empty());

  core.nic().SchedulePacket(core.cycle() + 50, {1, 2, 3});
  core.nic().SchedulePacket(core.cycle(), {4, 5, 6, 7, 8});
  core.nic().Tick(core.cycle(), core.intc());
  ASSERT_EQ(core.nic().rx_queued(), 1u);

  core.timer().Write32(12, 100);  // interval
  core.timer().Write32(4, 500);   // compare (arms)
  core.timer().Write32(8, 1);     // enable

  core.metal().WriteCreg(kCrPgEnable, 1);
  core.metal().WriteCreg(kCrAsid, 3);
  core.mmu().tlb().Insert(0x00400000, MakePte(0x123, kPteR | kPteW), 3);
  core.mmu().tlb().Insert(0x00800000, MakePte(0x456, kPteR | kPteX, 2, /*global=*/true), 0);
  ASSERT_EQ(core.mmu().tlb().ValidCount(), 2u);

  core.metal().ApplyMintset((1u << 31) | (1u << 24) | (2u << 7) | 0x33, (1u << 8) | 5);
  core.metal().ApplyMintset((1u << 31) | 0x03, (3u << 8) | 9);
  ASSERT_TRUE(core.metal().AnyInterceptEnabled());
  OperandLatch latch;
  latch.rs1_value = 0x11111111;
  latch.rs2_value = 0x22222222;
  latch.imm = -12;
  latch.rd_index = 5;
  latch.rs1_index = 6;
  latch.rs2_index = 7;
  latch.raw = 0x00730333;
  core.metal().LatchOperands(latch);
  core.metal().SetPendingWriteback(0xCAFEF00D);
}

constexpr uint64_t kOffDefaultCoreBytes = 62151;
constexpr uint64_t kOffDefaultCoreFnv = 15556519482198318032ull;

TEST(SnapshotFormatPinTest, OffDefaultCoreSectionIsPinned) {
  Core core;
  BuildOffDefaultCore(core);
  SnapWriter w;
  core.SaveState(w, /*include_dram=*/true);
  EXPECT_EQ(w.size(), kOffDefaultCoreBytes);
  EXPECT_EQ(Fnv1a(w.bytes()), kOffDefaultCoreFnv);

  Core restored;
  SnapReader r(w.bytes());
  ASSERT_OK(restored.RestoreState(r));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(restored.fatal_status().ToString(), core.fatal_status().ToString());
  SnapWriter again;
  restored.SaveState(again, /*include_dram=*/true);
  EXPECT_EQ(again.bytes(), w.bytes());
}

// ---------------------------------------------------------------------------
// Truncation sweep: restoring any strict prefix of a section payload must
// fail with a Status, never crash and never succeed. The one exception is the
// spans section cut exactly before its retained-span list, the documented
// old-format boundary, which restores with an empty list.

template <typename RestoreFn>
void ExpectEveryPrefixRejected(const char* what, const std::vector<uint8_t>& payload,
                               RestoreFn restore, size_t dense_until = SIZE_MAX,
                               size_t stride = 1, size_t exempt = SIZE_MAX) {
  SCOPED_TRACE(what);
  ASSERT_FALSE(payload.empty());
  size_t checked = 0;
  for (size_t len = 0; len < payload.size(); len += len < dense_until ? 1 : stride) {
    if (len == exempt) {
      continue;
    }
    const std::vector<uint8_t> prefix(payload.begin(), payload.begin() + len);
    SnapReader r(prefix);
    const Status status = restore(r);
    EXPECT_FALSE(status.ok()) << "a " << len << "-byte prefix of " << payload.size()
                              << " bytes restored";
    if (status.ok()) {
      return;  // one report per payload
    }
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

// The payload of the "core" section of a snapshot image.
std::vector<uint8_t> CoreSectionOf(const std::vector<uint8_t>& image) {
  SnapReader r(image);
  for (int i = 0; i < 8; ++i) {
    r.U8();  // magic
  }
  r.U32();  // version
  r.U64();  // config hash
  r.U64();  // cycle
  const uint32_t sections = r.U32();
  for (uint32_t i = 0; i < sections; ++i) {
    const std::string name = r.Str();
    std::vector<uint8_t> payload = r.Bytes();
    if (name == "core") {
      return payload;
    }
  }
  ADD_FAILURE() << "no core section";
  return {};
}

TEST(SnapshotTruncationTest, EveryPrefixOfAPinnedSectionIsRejected) {
  ExpectEveryPrefixRejected("fault", FaultSectionPayload(), [](SnapReader& r) {
    FaultEngine engine(/*seed=*/1);
    EXPECT_OK(engine.AddSpec("mreg@5"));
    EXPECT_OK(engine.AddSpec("mram-data@1000:at=0,bit=1"));
    return engine.RestoreState(r);
  });
  SuperblockCache superblocks(/*enabled=*/true);
  ExpectEveryPrefixRejected("superblocks", SuperblockSectionPayload(),
                            [&superblocks](SnapReader& r) { return superblocks.RestoreState(r); });
  ExpectEveryPrefixRejected("replay log", ReplayLogPayload(), [](SnapReader& r) {
    ReplayLog log;
    return log.Restore(r);
  });

  // The observability sections, from sinks that watched a Metal run.
  MetalSystem system;
  system.AddMcode(kMcode);
  ASSERT_OK(system.LoadProgramSource(kProgram));
  ASSERT_OK(system.Boot());
  RingBufferSink ring(64);
  RingBufferSink flight(16, kFlightKinds);
  SpanSink spans;
  spans.SetWatchdogBudget(1000);
  TeeSink tee;
  tee.Add(&ring);
  tee.Add(&flight);
  tee.Add(&spans);
  system.core().SetTraceSink(&tee);
  system.core().Run(150);
  const auto payload_of = [](const auto& sink) {
    SnapWriter w;
    sink.SaveState(w);
    return w.TakeBytes();
  };
  ExpectEveryPrefixRejected("ring", payload_of(ring), [&ring](SnapReader& r) {
    return ring.RestoreState(r);
  });
  ExpectEveryPrefixRejected("flight", payload_of(flight), [&flight](SnapReader& r) {
    return flight.RestoreState(r);
  });
  const std::vector<uint8_t> spans_payload = payload_of(spans);
  const size_t retained = spans.Spans().size();
  ASSERT_GT(retained, 0u);
  const size_t old_format_end = spans_payload.size() - 8 - 51 * retained;
  SpanSink spans_target;
  ExpectEveryPrefixRejected(
      "spans", spans_payload, [&spans_target](SnapReader& r) { return spans_target.RestoreState(r); },
      SIZE_MAX, 1, old_format_end);
  {
    // The exempt boundary really is the old format: it restores, empty.
    const std::vector<uint8_t> old(spans_payload.begin(), spans_payload.begin() + old_format_end);
    SnapReader r(old);
    SpanSink old_target;
    EXPECT_OK(old_target.RestoreState(r));
    EXPECT_TRUE(old_target.Spans().empty());
  }
  SnapWriter profiler;
  spans.SaveProfileState(profiler);
  ExpectEveryPrefixRejected("profiler", profiler.bytes(), [](SnapReader& r) {
    SpanSink target;
    return target.RestoreProfileState(r);
  });
}

TEST(SnapshotTruncationTest, EveryPrefixOfACoreSectionIsRejected) {
  // Every prefix through the scalar block, the predecode cache and the Metal
  // unit, then a stride through MRAM, the devices and DRAM.
  constexpr size_t kDense = 2048;
  constexpr size_t kStride = 97;
  Core target{CoreConfig{}};
  const auto restore = [&target](SnapReader& r) { return target.RestoreState(r); };

  const auto image = ReadFileBytes(MSIM_TEST_DATA_DIR "/snapcorpus/campaign-100.msnap");
  ASSERT_OK(image.status());
  ExpectEveryPrefixRejected("campaign-100.msnap core", CoreSectionOf(*image), restore, kDense,
                            kStride);

  Core core;
  BuildOffDefaultCore(core);
  SnapWriter w;
  core.SaveState(w, /*include_dram=*/true);
  ExpectEveryPrefixRejected("off-default core", w.bytes(), restore, kDense, kStride);
}

}  // namespace
}  // namespace msim
