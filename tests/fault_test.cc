// Tests for the robustness layer (src/fault/): fault-spec parsing, the
// deterministic injection engine, MRAM parity machine checks with
// scrub-and-retry recovery, the Metal-mode watchdog, and crash dumps.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cpu/creg.h"
#include "fault/crash_dump.h"
#include "fault/fault.h"
#include "metal/system.h"
#include "tests/sim_test_util.h"
#include "trace/json.h"
#include "trace/trace.h"

namespace msim {
namespace {

// ---------------------------------------------------------------------------
// Spec parsing.

TEST(FaultSpecTest, ParsesOneShotWithBit) {
  const auto spec = ParseFaultSpec("mram-code@100:bit=3");
  ASSERT_OK(spec.status());
  EXPECT_EQ(spec->target, FaultTarget::kMramCode);
  EXPECT_FALSE(spec->probabilistic);
  EXPECT_EQ(spec->cycle, 100u);
  EXPECT_EQ(spec->mask, 8u);
  EXPECT_EQ(spec->mode, FaultMode::kFlip);
  EXPECT_FALSE(spec->has_at);
}

TEST(FaultSpecTest, ParsesProbabilisticTrigger) {
  const auto spec = ParseFaultSpec("bus@~1000");
  ASSERT_OK(spec.status());
  EXPECT_EQ(spec->target, FaultTarget::kBus);
  EXPECT_TRUE(spec->probabilistic);
  EXPECT_EQ(spec->period, 1000u);
}

TEST(FaultSpecTest, BitsAccumulateAndAtPinsLocation) {
  const auto spec = ParseFaultSpec("mram-data@5:bit=0,bit=4,at=64");
  ASSERT_OK(spec.status());
  EXPECT_EQ(spec->mask, 0x11u);
  EXPECT_TRUE(spec->has_at);
  EXPECT_EQ(spec->at, 64u);
}

TEST(FaultSpecTest, ParsesStuckAtModes) {
  const auto stuck0 = ParseFaultSpec("mreg@50:at=7,mask=255,stuck=0");
  ASSERT_OK(stuck0.status());
  EXPECT_EQ(stuck0->mode, FaultMode::kStuck0);
  const auto stuck1 = ParseFaultSpec("tlb@50:stuck=1");
  ASSERT_OK(stuck1.status());
  EXPECT_EQ(stuck1->mode, FaultMode::kStuck1);
}

TEST(FaultSpecTest, RejectsMalformedSpecs) {
  const char* kBad[] = {
      "mram-code",             // no trigger
      "flux-capacitor@5",      // unknown target
      "mram-code@soon",        // non-numeric trigger
      "mram-code@~0",          // zero period
      "mram-code@5:bit=32",    // bit out of range
      "mram-code@5:stuck=2",   // stuck must be 0|1
      "mram-code@5:color=red", // unknown parameter
      "mram-code@5:bit",       // not KEY=VALUE
  };
  for (const char* text : kBad) {
    const auto spec = ParseFaultSpec(text);
    EXPECT_FALSE(spec.ok()) << "accepted: " << text;
    EXPECT_EQ(spec.status().code(), ErrorCode::kParseError) << text;
    // Every diagnostic names the offending spec.
    EXPECT_NE(spec.status().message().find(text), std::string::npos) << text;
  }
}

TEST(FaultSpecTest, RejectsZeroWidthMask) {
  const auto spec = ParseFaultSpec("mram-code@5:mask=0");
  EXPECT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("mask=0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Strict semantic validation (msim exits 2 on these instead of silently
// running a spec that can never fire).

TEST(FaultValidateTest, TargetCapacitiesMatchTheMachine) {
  const CoreConfig config;
  EXPECT_EQ(FaultTargetCapacity(FaultTarget::kMramCode, config), kMramCodeSize / 4);
  EXPECT_EQ(FaultTargetCapacity(FaultTarget::kMramData, config), kMramDataSize / 4);
  EXPECT_EQ(FaultTargetCapacity(FaultTarget::kMreg, config), 32u);
  EXPECT_EQ(FaultTargetCapacity(FaultTarget::kTlb, config), config.tlb_entries);
  EXPECT_EQ(FaultTargetCapacity(FaultTarget::kICache, config), config.icache_lines);
  EXPECT_EQ(FaultTargetCapacity(FaultTarget::kDCache, config), config.dcache_lines);
  EXPECT_EQ(FaultTargetCapacity(FaultTarget::kBus, config), 1u);
}

TEST(FaultValidateTest, AcceptsInRangeSpecs) {
  const CoreConfig config;
  for (const char* text : {"mram-code@5:at=16380", "mram-data@5:at=8188,bit=31",
                           "mreg@5:at=31", "tlb@~100:at=31", "icache@5:at=63",
                           "dcache@5:at=0", "bus@5:bit=7"}) {
    const auto spec = ParseFaultSpec(text);
    ASSERT_OK(spec.status());
    EXPECT_OK(ValidateFaultSpec(*spec, config, /*max_cycles=*/1000));
  }
}

TEST(FaultValidateTest, RejectsOutOfRangeLocations) {
  const CoreConfig config;
  for (const char* text : {"mram-code@5:at=16384",  // one past the code array
                           "mram-data@5:at=8192",   // one past the data array
                           "mreg@5:at=32", "tlb@5:at=32", "icache@5:at=64",
                           "dcache@5:at=64", "bus@5:at=0"}) {  // bus has no location
    const auto spec = ParseFaultSpec(text);
    ASSERT_OK(spec.status());
    const Status status = ValidateFaultSpec(*spec, config, /*max_cycles=*/1000);
    EXPECT_FALSE(status.ok()) << "accepted: " << text;
    EXPECT_NE(status.message().find(text), std::string::npos) << text;
  }
}

TEST(FaultValidateTest, RejectsUnreachableTriggerCycle) {
  const CoreConfig config;
  const auto spec = ParseFaultSpec("mram-code@1000");
  ASSERT_OK(spec.status());
  EXPECT_FALSE(ValidateFaultSpec(*spec, config, /*max_cycles=*/1000).ok());  // fires at >= 1000
  EXPECT_OK(ValidateFaultSpec(*spec, config, /*max_cycles=*/1001));
  EXPECT_OK(ValidateFaultSpec(*spec, config, /*max_cycles=*/0));  // 0 = no budget
  // Probabilistic triggers have no fixed cycle, so no budget check applies.
  const auto prob = ParseFaultSpec("mram-code@~50");
  ASSERT_OK(prob.status());
  EXPECT_OK(ValidateFaultSpec(*prob, config, /*max_cycles=*/10));
}

TEST(FaultValidateTest, DescribeFaultTargetsCoversEveryTarget) {
  const CoreConfig config;
  const std::string text = DescribeFaultTargets(config);
  for (const char* name : {"mram-code", "mram-data", "mreg", "tlb", "icache", "dcache", "bus"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  EXPECT_NE(text.find("SPEC"), std::string::npos);  // the grammar rides along
}

// ---------------------------------------------------------------------------
// Shared scenarios.

// Counter "accelerator" (entry 1) with state in MRAM data, plus a
// machine-check recovery mroutine (entry 2) that scrubs and retries.
constexpr const char* kCounterMcode = R"(
    .equ D_COUNT, 0
    .equ CR_MEPC, 1
    .equ CR_MRAM_SCRUB, 52
    .mentry 1, count_add
    .mentry 2, recover
  count_add:
    mld t0, D_COUNT(zero)
    add t0, t0, a0
    mst t0, D_COUNT(zero)
    mv a0, t0
    mexit
  recover:
    wcr CR_MRAM_SCRUB, zero
    rcr t0, CR_MEPC
    wmr m31, t0
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
    bnez s0, loop
    halt s1
)";

// Entry 1 spins forever; entry 2 just returns to the interrupted program.
constexpr const char* kSpinMcode = R"(
    .mentry 1, spin
    .mentry 2, bail
  spin:
    j spin
  bail:
    mexit
)";

constexpr const char* kSpinProgram = R"(
  _start:
    menter 1
    li a0, 55
    halt a0
)";

// ---------------------------------------------------------------------------
// Injection engine + parity machine checks.

TEST(FaultEngineTest, DataParityFlipIsScrubbedAndRetried) {
  MetalSystem system;
  system.AddMcode(kCounterMcode);
  system.DelegateException(ExcCause::kMachineCheck, 2);
  ASSERT_OK(system.LoadProgramSource(kCounterProgram));

  FaultEngine engine(/*seed=*/1);
  ASSERT_OK(engine.AddSpec("mram-data@120:at=0,bit=13"));
  system.core().SetFaultEngine(&engine);

  MustHalt(system, 70);
  EXPECT_EQ(engine.injections(), 1u);
  EXPECT_EQ(system.core().stats().machine_checks, 1u);
  EXPECT_GE(system.core().mram().stats().parity_errors, 1u);
  EXPECT_GE(system.core().mram().stats().words_scrubbed, 1u);
}

TEST(FaultEngineTest, CodeParityFlipIsScrubbedAndRetried) {
  MetalSystem system;
  system.AddMcode(kCounterMcode);
  system.DelegateException(ExcCause::kMachineCheck, 2);
  ASSERT_OK(system.LoadProgramSource(kCounterProgram));
  ASSERT_OK(system.Boot());

  // Flip a bit of the accelerator's first instruction, behind the write path.
  const auto entry = system.EntryAddress(1);
  ASSERT_OK(entry.status());
  const uint32_t offset = *entry - kMramCodeBase;
  ASSERT_TRUE(system.core().mram().CorruptCodeWord(offset, 0xFFFFFFFFu, 1u << 9));

  MustHalt(system, 70);
  EXPECT_EQ(system.core().stats().machine_checks, 1u);
  EXPECT_GE(system.core().mram().stats().words_scrubbed, 1u);
}

TEST(FaultEngineTest, UndelegatedParityMachineCheckIsFatal) {
  MetalSystem system;
  system.AddMcode(kCounterMcode);  // entry 2 exists but is not delegated
  ASSERT_OK(system.LoadProgramSource(kCounterProgram));

  FaultEngine engine(/*seed=*/1);
  ASSERT_OK(engine.AddSpec("mram-data@120:at=0,bit=13"));
  system.core().SetFaultEngine(&engine);

  const RunResult result = system.Run(100'000);
  EXPECT_EQ(result.reason, RunResult::Reason::kFatal);
  EXPECT_NE(result.fatal_message.find("undelegated machine check"), std::string::npos)
      << result.fatal_message;
  EXPECT_NE(result.fatal_message.find("mram_data_parity"), std::string::npos)
      << result.fatal_message;
}

TEST(FaultEngineTest, ParityDisabledLetsCorruptionThroughSilently) {
  CoreConfig config;
  config.mram_parity = false;
  MetalSystem system(config);
  system.AddMcode(kCounterMcode);
  system.DelegateException(ExcCause::kMachineCheck, 2);
  ASSERT_OK(system.LoadProgramSource(kCounterProgram));

  FaultEngine engine(/*seed=*/1);
  ASSERT_OK(engine.AddSpec("mram-data@120:at=0,bit=13"));
  system.core().SetFaultEngine(&engine);

  const RunResult result = system.Run(100'000);
  EXPECT_EQ(result.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(system.core().stats().machine_checks, 0u);
  EXPECT_NE(result.exit_code, 70u);  // the flipped bit reached the sum
}

TEST(FaultEngineTest, BusFaultCorruptsNextLoadSilently) {
  Core core;
  ASSERT_OK(core.LoadProgram(MustAssemble(R"(
    _start:
      la t0, value
      lw a0, 0(t0)
      halt a0
      .data
    value:
      .word 5
  )")));
  FaultEngine engine(/*seed=*/3);
  ASSERT_OK(engine.AddSpec("bus@0:mask=255"));
  core.SetFaultEngine(&engine);
  MustHalt(core, 5u ^ 255u);
  EXPECT_EQ(core.stats().machine_checks, 0u);
}

TEST(FaultEngineTest, MregFlipChangesMetalState) {
  // m5 accumulates across invocations; flipping a bit of it mid-run shows up
  // in the final total (no parity on mregs — silent corruption).
  MetalSystem system;
  system.AddMcode(R"(
      .mentry 1, acc
    acc:
      rmr t0, m5
      add t0, t0, a0
      wmr m5, t0
      mv a0, t0
      mexit
  )");
  ASSERT_OK(system.LoadProgramSource(kCounterProgram));
  FaultEngine engine(/*seed=*/4);
  ASSERT_OK(engine.AddSpec("mreg@60:at=5,bit=20"));
  system.core().SetFaultEngine(&engine);
  const RunResult result = system.Run(100'000);
  EXPECT_EQ(result.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(result.exit_code, 70u + (1u << 20));
  EXPECT_EQ(engine.injections(), 1u);
}

TEST(FaultEngineTest, ProbabilisticInjectionIsDeterministic) {
  const auto count_injections = [](uint64_t seed) {
    MetalSystem system;
    system.AddMcode(kCounterMcode);
    system.DelegateException(ExcCause::kMachineCheck, 2);
    if (!system.LoadProgramSource(kCounterProgram).ok()) return uint64_t{0};
    FaultEngine engine(seed);
    if (!engine.AddSpec("dcache@~40").ok()) return uint64_t{0};
    system.core().SetFaultEngine(&engine);
    system.Run(100'000);
    return engine.injections();
  };
  const uint64_t first = count_injections(99);
  EXPECT_EQ(first, count_injections(99));
  // Not a hard guarantee per seed, but with a 1/40 rate over hundreds of
  // cycles this seed does inject; guards against Tick never drawing.
  EXPECT_GT(first, 0u);
}

// ---------------------------------------------------------------------------
// Watchdog.

TEST(WatchdogTest, DelegatedWatchdogRecoversRunawayMroutine) {
  CoreConfig config;
  config.metal_watchdog_cycles = 200;
  MetalSystem system(config);
  system.AddMcode(kSpinMcode);
  system.DelegateException(ExcCause::kMachineCheck, 2);
  ASSERT_OK(system.LoadProgramSource(kSpinProgram));

  MustHalt(system, 55, 100'000);
  EXPECT_EQ(system.core().stats().watchdog_fires, 1u);
  EXPECT_EQ(system.core().stats().machine_checks, 1u);
}

TEST(WatchdogTest, UndelegatedWatchdogIsFatalAndNamesEntry) {
  CoreConfig config;
  config.metal_watchdog_cycles = 200;
  MetalSystem system(config);
  system.AddMcode(kSpinMcode);
  ASSERT_OK(system.LoadProgramSource(kSpinProgram));

  const RunResult result = system.Run(100'000);
  EXPECT_EQ(result.reason, RunResult::Reason::kFatal);
  EXPECT_NE(result.fatal_message.find("undelegated machine check"), std::string::npos)
      << result.fatal_message;
  EXPECT_NE(result.fatal_message.find("mroutine entry 1"), std::string::npos)
      << result.fatal_message;
}

TEST(WatchdogTest, RunawayRecoveryHandlerIsDoubleMachineCheck) {
  // The recovery mroutine itself spins: the second watchdog fire lands while
  // in_machine_check is still set, which must be fatal, not recursive.
  CoreConfig config;
  config.metal_watchdog_cycles = 200;
  MetalSystem system(config);
  system.AddMcode(R"(
      .mentry 1, spin
      .mentry 2, spin2
    spin:
      j spin
    spin2:
      j spin2
  )");
  system.DelegateException(ExcCause::kMachineCheck, 2);
  ASSERT_OK(system.LoadProgramSource(kSpinProgram));

  const RunResult result = system.Run(100'000);
  EXPECT_EQ(result.reason, RunResult::Reason::kFatal);
  EXPECT_NE(result.fatal_message.find("double machine check"), std::string::npos)
      << result.fatal_message;
  EXPECT_EQ(system.core().stats().watchdog_fires, 2u);
}

TEST(WatchdogTest, DisabledWatchdogNeverFires) {
  MetalSystem system;  // metal_watchdog_cycles defaults to 0 = disabled
  system.AddMcode(kSpinMcode);
  system.DelegateException(ExcCause::kMachineCheck, 2);
  ASSERT_OK(system.LoadProgramSource(kSpinProgram));
  const RunResult result = system.Run(10'000);
  EXPECT_EQ(result.reason, RunResult::Reason::kCycleLimit);
  EXPECT_EQ(system.core().stats().watchdog_fires, 0u);
}

// ---------------------------------------------------------------------------
// Machine-check architectural state.

TEST(MachineCheckTest, CregsRecordKindInfoAndSavedM31) {
  CoreConfig config;
  config.metal_watchdog_cycles = 200;
  MetalSystem system(config);
  system.AddMcode(R"(
      .equ CR_MCHECK_KIND, 49
      .equ CR_MCHECK_INFO, 50
      .mentry 1, spin
      .mentry 2, report
    spin:
      j spin
    report:
      rcr a0, CR_MCHECK_KIND
      rcr a1, CR_MCHECK_INFO
      # fold kind (3 = watchdog) and info (offending entry = 1) into the exit
      slli a0, a0, 4
      or a0, a0, a1
      wmr m30, a0
      mexit
  )");
  system.DelegateException(ExcCause::kMachineCheck, 2);
  ASSERT_OK(system.LoadProgramSource(R"(
    _start:
      menter 1
      halt zero
  )"));
  MustHalt(system, 0, 100'000);
  EXPECT_EQ(system.core().metal().ReadMreg(30), (3u << 4) | 1u);
}

TEST(MachineCheckTest, TrapInsideMetalModeBecomesDoubleTrapCheck) {
  // A normal-mode-style fault raised while executing mcode cannot be taken as
  // an ordinary trap; it must surface as a double-trap machine check.
  MetalSystem system;
  system.AddMcode(R"(
      .mentry 1, bad_load
    bad_load:
      li t0, 0x7FFFFFF0
      lw t1, 0(t0)
      mexit
  )");
  ASSERT_OK(system.LoadProgramSource(R"(
    _start:
      menter 1
      halt zero
  )"));
  const RunResult result = system.Run(100'000);
  EXPECT_EQ(result.reason, RunResult::Reason::kFatal);
  EXPECT_NE(result.fatal_message.find("double_trap"), std::string::npos)
      << result.fatal_message;
}

// ---------------------------------------------------------------------------
// Crash dumps.

TEST(CrashDumpTest, DumpIsValidJsonAndRecordsMachineCheck) {
  CoreConfig config;
  config.metal_watchdog_cycles = 200;
  MetalSystem system(config);
  system.AddMcode(kSpinMcode);
  ASSERT_OK(system.LoadProgramSource(kSpinProgram));
  RingBufferSink ring;
  RingBufferSink flight(kFlightCapacity, kFlightKinds);
  TeeSink tee;
  tee.Add(&ring);
  tee.Add(&flight);
  system.SetTraceSink(&tee);

  const RunResult result = system.Run(100'000);
  ASSERT_EQ(result.reason, RunResult::Reason::kFatal);

  CrashDumpOptions options;
  options.reason = "fatal";
  options.fatal_message = result.fatal_message;
  std::ostringstream out;
  WriteCrashDump(system.core(), &ring, &flight, options, out);
  const std::string dump = out.str();

  EXPECT_TRUE(JsonLooksValid(dump)) << dump;
  EXPECT_NE(dump.find("\"kind_name\":\"watchdog\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"machine_check\""), std::string::npos);
  EXPECT_NE(dump.find("\"trace\""), std::string::npos);
  EXPECT_NE(dump.find("\"flight_recorder\""), std::string::npos);
  EXPECT_GT(flight.total(), 0u);
}

TEST(CrashDumpTest, SameSeedAndSpecGiveByteIdenticalDumps) {
  const auto run_and_dump = [](uint64_t seed) {
    MetalSystem system;
    system.AddMcode(kCounterMcode);
    system.DelegateException(ExcCause::kMachineCheck, 2);
    EXPECT_OK(system.LoadProgramSource(kCounterProgram));
    RingBufferSink ring;
    system.SetTraceSink(&ring);
    FaultEngine engine(seed);
    EXPECT_OK(engine.AddSpec("mram-data@~60"));
    EXPECT_OK(engine.AddSpec("mreg@150"));
    system.core().SetFaultEngine(&engine);
    system.Run(100'000);
    CrashDumpOptions options;
    options.reason = "halted";
    std::ostringstream out;
    WriteCrashDump(system.core(), &ring, /*flight=*/nullptr, options, out);
    return out.str();
  };
  const std::string first = run_and_dump(7);
  EXPECT_EQ(first, run_and_dump(7));
  EXPECT_NE(first, run_and_dump(8));  // the seed actually steers the upsets
  EXPECT_TRUE(JsonLooksValid(first));
}

}  // namespace
}  // namespace msim
