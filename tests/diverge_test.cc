// Tests for the lockstep divergence detector (src/snap/diverge.h): an
// injected fault must be pinpointed to its exact cycle with a structured
// architectural diff (true positive), identical machines must compare clean
// (true negative), and the retire-granularity canonicalization must make
// storage/transition modes architecturally invisible.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "cpu/core.h"
#include "fault/fault.h"
#include "metal/system.h"
#include "snap/diverge.h"
#include "support/exit_codes.h"
#include "tests/sim_test_util.h"
#include "trace/trace.h"

namespace msim {
namespace {

// The bump mroutine counts in m7 and leaves the new value in t0 for the
// caller, so corrupting m7 is architecturally visible to the program.
constexpr const char* kMcode = R"(
    .mentry 1, bump
  bump:
    rmr t0, m7
    addi t0, t0, 1
    wmr m7, t0
    mst t0, 0(zero)
    mexit
)";

constexpr const char* kProgram = R"(
  _start:
    la t6, scratch
    li s11, 40
  loop:
    menter 1
    sw t0, 0(t6)
    addi s11, s11, -1
    bnez s11, loop
    andi a0, t0, 0x7F
    halt a0
  .data
  scratch:
    .word 0
)";

void Build(MetalSystem& system, const char* program = kProgram) {
  system.AddMcode(kMcode);
  ASSERT_OK(system.LoadProgramSource(program));
}

TEST(LockstepCycleTest, TrueNegativeIdenticalMachines) {
  MetalSystem a;
  MetalSystem b;
  Build(a);
  Build(b);
  LockstepOptions options;
  options.granularity = CompareGranularity::kCycle;
  const auto report = RunLockstep(a, b, options);
  ASSERT_OK(report.status());
  EXPECT_FALSE(report->diverged);
  EXPECT_TRUE(report->a_finished);
  EXPECT_TRUE(report->b_finished);
  EXPECT_EQ(a.core().exit_code(), 40u);
}

TEST(LockstepCycleTest, TruePositivePinpointsInjectionCycle) {
  MetalSystem a;
  MetalSystem b;
  Build(a);
  Build(b);
  // Flip bit 0 of m3 in machine B at exactly cycle 100. The detector must
  // report cycle 100, name the Metal unit, and show the m3 delta.
  FaultEngine faults(0);
  ASSERT_OK(faults.AddSpec("mreg@100:at=3,bit=0"));
  b.core().SetFaultEngine(&faults);

  LockstepOptions options;
  options.granularity = CompareGranularity::kCycle;
  const auto report = RunLockstep(a, b, options);
  ASSERT_OK(report.status());
  ASSERT_TRUE(report->diverged);
  EXPECT_EQ(report->cycle_a, 100u);
  EXPECT_EQ(report->cycle_b, 100u);
  ASSERT_EQ(report->components.size(), 1u);
  EXPECT_EQ(report->components[0], "metal-unit");
  bool saw_m3 = false;
  for (const RegDelta& delta : report->deltas) {
    if (delta.name == "m3") {
      saw_m3 = true;
      EXPECT_EQ(delta.a ^ delta.b, 1u);
    }
  }
  EXPECT_TRUE(saw_m3);
}

TEST(LockstepCycleTest, LateInjectionAfterHaltIsClean) {
  // A fault scheduled past the end of the program never fires; the machines
  // stay identical through the halt.
  MetalSystem a;
  MetalSystem b;
  Build(a);
  Build(b);
  FaultEngine faults(0);
  ASSERT_OK(faults.AddSpec("mreg@100000000:at=3,bit=0"));
  b.core().SetFaultEngine(&faults);
  LockstepOptions options;
  options.granularity = CompareGranularity::kCycle;
  const auto report = RunLockstep(a, b, options);
  ASSERT_OK(report.status());
  EXPECT_FALSE(report->diverged);
}

TEST(LockstepRetireTest, StorageModesAreArchitecturallyInvisible) {
  CoreConfig dram;
  dram.mroutine_storage = MroutineStorage::kDramCached;
  MetalSystem a;
  MetalSystem b(dram);
  Build(a);
  Build(b);
  LockstepOptions options;
  options.granularity = CompareGranularity::kRetire;
  options.metal_pc_insensitive = true;      // mroutines live at different PCs
  options.ignore_transition_retires = true; // fast path exists only under MRAM
  const auto report = RunLockstep(a, b, options);
  ASSERT_OK(report.status());
  EXPECT_FALSE(report->diverged) << report->summary;
  EXPECT_EQ(a.core().exit_code(), b.core().exit_code());
}

TEST(LockstepRetireTest, FastAndSlowTransitionsRetireTheSameStream) {
  CoreConfig slow;
  slow.fast_transition = false;
  MetalSystem a;
  MetalSystem b(slow);
  Build(a);
  Build(b);
  LockstepOptions options;
  options.granularity = CompareGranularity::kRetire;
  options.ignore_transition_retires = true;
  const auto report = RunLockstep(a, b, options);
  ASSERT_OK(report.status());
  EXPECT_FALSE(report->diverged) << report->summary;
}

TEST(LockstepRetireTest, CorruptedMregSurfacesAsRetireDivergence) {
  // The injected m7 corruption changes the value the program stores and
  // halts with; the retire comparator reports machines differing in outcome.
  MetalSystem a;
  MetalSystem b;
  Build(a);
  Build(b);
  FaultEngine faults(0);
  ASSERT_OK(faults.AddSpec("mreg@50:at=7,mask=0xFF"));
  b.core().SetFaultEngine(&faults);
  LockstepOptions options;
  options.granularity = CompareGranularity::kRetire;
  const auto report = RunLockstep(a, b, options);
  ASSERT_OK(report.status());
  EXPECT_TRUE(report->diverged);
}

TEST(LockstepRetireTest, AttachedSinkSeesEveryEventAndStaysAttached) {
  // A sink attached to A before the compare sees exactly the event stream a
  // plain run of the same machine emits, and is still attached afterwards.
  MetalSystem reference;
  Build(reference);
  RingBufferSink expected;
  reference.SetTraceSink(&expected);
  MustHalt(reference, 40);

  MetalSystem a;
  MetalSystem b;
  Build(a);
  Build(b);
  RingBufferSink ring;
  a.SetTraceSink(&ring);
  LockstepOptions options;
  options.granularity = CompareGranularity::kRetire;
  const auto report = RunLockstep(a, b, options);
  ASSERT_OK(report.status());
  EXPECT_FALSE(report->diverged) << report->summary;

  const std::vector<TraceEvent> want = expected.Events();
  const std::vector<TraceEvent> got = ring.Events();
  ASSERT_EQ(got.size(), want.size());
  uint64_t retires = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].kind, want[i].kind);
    EXPECT_EQ(got[i].cycle, want[i].cycle);
    EXPECT_EQ(got[i].pc, want[i].pc);
    EXPECT_EQ(got[i].arg0, want[i].arg0);
    EXPECT_EQ(got[i].arg1, want[i].arg1);
    EXPECT_EQ(got[i].metal, want[i].metal);
    retires += got[i].kind == TraceEventKind::kRetire;
  }
  EXPECT_EQ(retires, a.core().stats().instret);

  const uint64_t before = ring.total();
  a.core().tracer().Emit(TraceEventKind::kFlush, 0x1234);
  EXPECT_EQ(ring.total(), before + 1);
}

TEST(DivergenceReportTest, JsonAndTextIncludeTheDiff) {
  MetalSystem a;
  MetalSystem b;
  Build(a);
  Build(b);
  FaultEngine faults(0);
  ASSERT_OK(faults.AddSpec("mreg@100:at=3,bit=0"));
  b.core().SetFaultEngine(&faults);
  LockstepOptions options;
  options.granularity = CompareGranularity::kCycle;
  const auto report = RunLockstep(a, b, options);
  ASSERT_OK(report.status());
  ASSERT_TRUE(report->diverged);

  std::ostringstream json;
  WriteDivergenceJson(*report, json);
  EXPECT_NE(json.str().find("\"diverged\":true"), std::string::npos);
  EXPECT_NE(json.str().find("\"cycle_a\":100"), std::string::npos);
  EXPECT_NE(json.str().find("metal-unit"), std::string::npos);

  std::ostringstream text;
  WriteDivergenceText(*report, text);
  EXPECT_NE(text.str().find("cycle 100"), std::string::npos);
  EXPECT_NE(text.str().find("m3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The msim CLI: `run` and `replay` share one machine-flag parser.

int RunMsim(const std::string& args) {
  const std::string command = std::string(MSIM_CLI_PATH) + " " + args + " 2>/dev/null";
  const int raw = std::system(command.c_str());
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

TEST(MsimCliTest, RunAndReplayRejectTheSameMalformedMachineFlags) {
  // Parsing fails before the program is read, so no program file is needed;
  // a flag that slipped through would exit 1 (program not found) instead.
  const char* kBadFlags[] = {"--watchdog x", "--storage bogus", "--no-superblocks"};
  for (const char* flags : kBadFlags) {
    SCOPED_TRACE(flags);
    EXPECT_EQ(RunMsim(std::string("run missing.s ") + flags), kExitUsage);
    EXPECT_EQ(RunMsim(std::string("replay missing.s --until-divergence ") + flags),
              kExitUsage);
  }
}

TEST(MsimCliTest, TraceFlagPrintsFirstRetiresToStderr) {
  std::string err;
  EXPECT_EQ(RunCapturingStderr(std::string(MSIM_CLI_PATH) + " run " MSIM_TEST_DATA_DIR
                                                             "/smoke.s --trace 5 >/dev/null",
                               &err),
            0);
  EXPECT_EQ(err,
            "        22    00001000  addi t0, zero, 10\n"
            "        23    00001004  addi t0, t0, -1\n"
            "        24    00001008  bne t0, zero, -4\n"
            "        27    00001004  addi t0, t0, -1\n"
            "        28    00001008  bne t0, zero, -4\n"
            "[halted] exit=0 cycles=61 instret=22\n");
}

}  // namespace
}  // namespace msim
