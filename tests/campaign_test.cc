// Tests for the differential fault-injection campaign engine (src/campaign):
// the outcome classifier (one test per taxonomy class), snapshot-fork vs.
// cold-start byte identity of trials and of SDC pinpoints, campaign.json
// two-run determinism, the parity-on/off headline behavior (detection
// converts every would-be SDC into detected_recovered), SDC repro
// harvesting, and the mcamp CLI.
#include <sys/wait.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/campaign.h"
#include "cpu/trap.h"
#include "fault/fault.h"
#include "metal/system.h"
#include "snap/diverge.h"
#include "support/exit_codes.h"
#include "support/strings.h"
#include "tests/sim_test_util.h"
#include "trace/json.h"

namespace msim {
namespace {

// The campaign guest pair from tests/data/ (embedded so the unit tests are
// path-independent; CI runs the same sources through the mcamp CLI). Entry 1
// accumulates in MRAM data word 0, entry 2 is the transparent scrub-and-retry
// machine-check recovery mroutine.
constexpr const char* kMcode = R"(
    .equ D_COUNT, 0
    .equ CR_MEPC, 1
    .equ CR_MRAM_SCRUB, 52

    .mentry 1, count_add
    .mentry 2, mcheck_recover

  count_add:
    mld t0, D_COUNT(zero)
    add t0, t0, a0
    mst t0, D_COUNT(zero)
    mv a0, t0
    mexit

  mcheck_recover:
    wcr CR_MRAM_SCRUB, zero
    wmr m30, t0
    rcr t0, CR_MEPC
    wmr m31, t0
    rmr t0, m30
    mexit
)";

constexpr const char* kGuest = R"(
  _start:
    li s0, 12
    li s1, 0
    li s2, 0xF0003000
  loop:
    li a0, 5
    menter 1
    mv s1, a0
    andi t0, s1, 63
    addi t0, t0, 32
    sw t0, 0(s2)
    addi s0, s0, -1
    bnez s0, loop
    halt s1
)";

CampaignEngine::SystemSetup MakeSetup() {
  return [](MetalSystem& system) -> Status {
    system.AddMcode(kMcode);
    system.DelegateException(ExcCause::kMachineCheck, 2);
    return system.LoadProgramSource(kGuest);
  };
}

// Focused MRAM-data fault space: every trial lands on the accelerator's live
// counter word, so the parity-on/off contrast is sharp with a small budget.
CampaignOptions FocusedOptions(uint64_t trials) {
  CampaignOptions options;
  options.targets = {FaultTarget::kMramData};
  options.max_location = 1;
  options.trials = trials;
  options.snapshots = 4;
  return options;
}

// ---------------------------------------------------------------------------
// Classifier: one test per taxonomy class, on canned outcomes.

ArchOutcome GoldenOutcome() {
  ArchOutcome golden;
  golden.halted = true;
  golden.exit_code = 60;
  golden.arch_digest = 0xAAAAu;
  return golden;
}

TEST(ClassifyTrialTest, IdenticalOutcomeIsMasked) {
  const ArchOutcome golden = GoldenOutcome();
  EXPECT_EQ(ClassifyTrial(golden, golden), TrialOutcome::kMasked);
}

TEST(ClassifyTrialTest, RecoveredTrialIsDetectedRecovered) {
  const ArchOutcome golden = GoldenOutcome();
  ArchOutcome trial = golden;
  trial.machine_checks = 1;  // a machine check fired, yet the outcome matches
  trial.words_scrubbed = 1;
  EXPECT_EQ(ClassifyTrial(golden, trial), TrialOutcome::kDetectedRecovered);
}

TEST(ClassifyTrialTest, FatalMachineCheckIsDetectedFatal) {
  const ArchOutcome golden = GoldenOutcome();
  ArchOutcome trial;
  trial.fatal = true;
  trial.fatal_message = "undelegated machine check (mram_data_parity) at pc=0xffff0000";
  EXPECT_EQ(ClassifyTrial(golden, trial), TrialOutcome::kDetectedFatal);
}

TEST(ClassifyTrialTest, OtherFatalIsCrash) {
  const ArchOutcome golden = GoldenOutcome();
  ArchOutcome trial;
  trial.fatal = true;
  trial.fatal_message = "metal watchdog expired after 1000 cycles";
  EXPECT_EQ(ClassifyTrial(golden, trial), TrialOutcome::kCrash);
}

TEST(ClassifyTrialTest, NeitherHaltedNorFatalIsHang) {
  const ArchOutcome golden = GoldenOutcome();
  ArchOutcome trial;  // still running when the budget expired
  EXPECT_EQ(ClassifyTrial(golden, trial), TrialOutcome::kHang);
}

TEST(ClassifyTrialTest, DivergentDigestIsSdc) {
  const ArchOutcome golden = GoldenOutcome();
  ArchOutcome trial = golden;
  trial.arch_digest = 0xBBBBu;
  EXPECT_EQ(ClassifyTrial(golden, trial), TrialOutcome::kSdc);
}

TEST(ClassifyTrialTest, DivergentDigestIsSdcEvenWhenDetected) {
  // Corruption that escapes into the final state is a recovery bug; a
  // machine check along the way must not reclassify it as detected.
  const ArchOutcome golden = GoldenOutcome();
  ArchOutcome trial = golden;
  trial.arch_digest = 0xBBBBu;
  trial.machine_checks = 3;
  EXPECT_EQ(ClassifyTrial(golden, trial), TrialOutcome::kSdc);
}

TEST(ClassifyTrialTest, OutcomeNamesAreStable) {
  EXPECT_STREQ(TrialOutcomeName(TrialOutcome::kMasked), "masked");
  EXPECT_STREQ(TrialOutcomeName(TrialOutcome::kDetectedRecovered), "detected_recovered");
  EXPECT_STREQ(TrialOutcomeName(TrialOutcome::kDetectedFatal), "detected_fatal");
  EXPECT_STREQ(TrialOutcomeName(TrialOutcome::kSdc), "sdc");
  EXPECT_STREQ(TrialOutcomeName(TrialOutcome::kHang), "hang");
  EXPECT_STREQ(TrialOutcomeName(TrialOutcome::kCrash), "crash");
}

// ---------------------------------------------------------------------------
// Engine.

TEST(CampaignEngineTest, GoldenRunMustHaltCleanly) {
  CampaignOptions options;
  options.max_cycles = 500;
  CampaignEngine engine(
      CoreConfig{},
      [](MetalSystem& system) {
        return system.LoadProgramSource("  _start:\n    li s0, 1\n  spin:\n    bnez s0, spin\n");
      },
      options);
  const Status status = engine.Prepare();
  EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition) << status.ToString();
}

TEST(CampaignEngineTest, PlanIsDeterministicStratifiedAndInRange) {
  CampaignEngine a(CoreConfig{}, MakeSetup(), FocusedOptions(40));
  CampaignEngine b(CoreConfig{}, MakeSetup(), FocusedOptions(40));
  ASSERT_OK(a.Prepare());
  ASSERT_OK(b.Prepare());
  const auto plan_a = a.PlanTrials();
  const auto plan_b = b.PlanTrials();
  ASSERT_EQ(plan_a.size(), 40u);
  ASSERT_EQ(plan_a.size(), plan_b.size());
  uint64_t last_cycle = 0;
  for (size_t i = 0; i < plan_a.size(); ++i) {
    EXPECT_EQ(plan_a[i].spec.text, plan_b[i].spec.text);
    EXPECT_GE(plan_a[i].spec.cycle, 1u);
    EXPECT_LT(plan_a[i].spec.cycle, a.golden().cycles);
    EXPECT_TRUE(plan_a[i].spec.has_at);
    EXPECT_EQ(plan_a[i].spec.at, 0u);  // max_location=1 pins the live word
    // Single-target stratification: injection cycles are non-decreasing
    // across the run, i.e. coverage sweeps the execution end to end.
    EXPECT_GE(plan_a[i].spec.cycle, last_cycle);
    last_cycle = plan_a[i].spec.cycle;
  }
}

TEST(CampaignEngineTest, ForkedTrialIsByteIdenticalToColdStart) {
  CampaignEngine engine(CoreConfig{}, MakeSetup(), FocusedOptions(12));
  CampaignOptions cold_options = FocusedOptions(12);
  cold_options.snapshots = 0;  // every trial cold-starts
  CampaignEngine cold_engine(CoreConfig{}, MakeSetup(), cold_options);
  ASSERT_OK(engine.Prepare());
  ASSERT_OK(cold_engine.Prepare());
  bool any_forked = false;
  for (const TrialPlan& plan : engine.PlanTrials()) {
    auto forked = engine.RunTrial(plan);
    auto cold = cold_engine.RunTrial(plan);
    ASSERT_OK(forked.status());
    ASSERT_OK(cold.status());
    EXPECT_FALSE(cold->forked);
    any_forked |= forked->forked;
    // Identical final machine state, byte for byte (DRAM included) — the
    // fork optimization is invisible to the campaign's results.
    EXPECT_EQ(forked->result.state_digest, cold->result.state_digest) << plan.spec.text;
    EXPECT_EQ(forked->outcome, cold->outcome) << plan.spec.text;
    EXPECT_EQ(forked->detected, cold->detected) << plan.spec.text;
    EXPECT_EQ(forked->detect_cycle, cold->detect_cycle) << plan.spec.text;
  }
  EXPECT_TRUE(any_forked);  // late-cycle trials must actually use the forks
}

// The pinpoint reference: two fresh machines, the faulty one injected, in
// cycle lockstep from cycle 0.
Result<DivergenceReport> ColdPinpoint(const CoreConfig& config, const TrialPlan& plan,
                                      uint64_t budget) {
  MetalSystem clean(config);
  MetalSystem faulty(config);
  const CampaignEngine::SystemSetup setup = MakeSetup();
  MSIM_RETURN_IF_ERROR(setup(clean));
  MSIM_RETURN_IF_ERROR(setup(faulty));
  FaultEngine engine(0);
  engine.AddSpec(plan.spec);
  faulty.core().SetFaultEngine(&engine);
  LockstepOptions options;
  options.granularity = CompareGranularity::kCycle;
  options.max_cycles = budget;
  return RunLockstep(clean, faulty, options);
}

std::string DivergenceJson(const DivergenceReport& report) {
  std::ostringstream out;
  WriteDivergenceJson(report, out);
  return out.str();
}

// Pinpointing forks both machines from the golden snapshot strictly before
// the injection cycle; the report must equal the cold lockstep's for every
// target, with parity on and off. The plan adds one fault per target at a
// fork mark: forking there (at, not before, the injection cycle) would fire
// the fault a cycle late and move the reported divergence.
TEST(CampaignEngineTest, PinpointFromForkEqualsColdLockstep) {
  for (const bool parity : {true, false}) {
    SCOPED_TRACE(parity ? "parity on" : "parity off");
    CoreConfig config;
    config.mram_parity = parity;
    CampaignOptions options;  // all seven targets, one planned trial each
    options.trials = 7;
    options.max_location = 8;
    options.snapshots = 4;
    CampaignEngine engine(config, MakeSetup(), options);
    ASSERT_OK(engine.Prepare());
    ASSERT_EQ(engine.options().targets.size(), 7u);

    std::vector<TrialPlan> plans = engine.PlanTrials();
    for (size_t t = 0; t < engine.options().targets.size(); ++t) {
      const FaultTarget target = engine.options().targets[t];
      // Fork marks sit at golden_cycles * j / (snapshots + 1), j = 1..4.
      const uint64_t mark = engine.golden().cycles * (1 + t % 4) / (options.snapshots + 1);
      const std::string text =
          target == FaultTarget::kBus
              ? StrFormat("bus@%llu:bit=%zu", (unsigned long long)mark, t)
              : StrFormat("%s@%llu:at=0,bit=%zu", FaultTargetName(target),
                          (unsigned long long)mark, t);
      auto spec = ParseFaultSpec(text);
      ASSERT_OK(spec.status());
      TrialPlan plan;
      plan.index = plans.size();
      plan.spec = *spec;
      plans.push_back(plan);
    }

    size_t at_fork_mark = 0;
    size_t diverged = 0;
    for (const TrialPlan& plan : plans) {
      SCOPED_TRACE(plan.spec.text);
      auto trial = engine.RunTrial(plan);
      ASSERT_OK(trial.status());
      if (trial->forked && trial->fork_cycle == plan.spec.cycle) {
        ++at_fork_mark;
      }
      auto forked = engine.PinpointDivergence(plan);
      auto cold = ColdPinpoint(config, plan, engine.trial_budget());
      ASSERT_OK(forked.status());
      ASSERT_OK(cold.status());
      diverged += cold->diverged ? 1 : 0;
      EXPECT_EQ(DivergenceJson(*forked), DivergenceJson(*cold));
    }
    EXPECT_EQ(at_fork_mark, engine.options().targets.size());
    EXPECT_GT(diverged, 0u);
  }
}

// ---------------------------------------------------------------------------
// Full campaigns: the parity headline and report determinism.

TEST(CampaignTest, ParityConvertsEverySdcIntoDetectedRecovered) {
  CampaignEngine with_parity(CoreConfig{}, MakeSetup(), FocusedOptions(30));
  auto on = RunCampaign(with_parity);
  ASSERT_OK(on.status());

  CoreConfig unprotected;
  unprotected.mram_parity = false;
  CampaignEngine without_parity(unprotected, MakeSetup(), FocusedOptions(30));
  auto off = RunCampaign(without_parity);
  ASSERT_OK(off.status());

  const auto count = [](const CampaignReport& r, TrialOutcome o) {
    return r.counts[static_cast<size_t>(o)];
  };
  // Parity on: faults on the live word are caught and recovered, none silent.
  EXPECT_GT(count(*on, TrialOutcome::kDetectedRecovered), 0u);
  EXPECT_EQ(count(*on, TrialOutcome::kSdc), 0u);
  EXPECT_TRUE(on->sdcs.empty());
  // Parity off: the same fault space, the same trials — every one of those
  // recoveries becomes silent data corruption.
  EXPECT_EQ(count(*off, TrialOutcome::kDetectedRecovered), 0u);
  EXPECT_EQ(count(*off, TrialOutcome::kSdc), count(*on, TrialOutcome::kDetectedRecovered));
  EXPECT_EQ(count(*off, TrialOutcome::kMasked), count(*on, TrialOutcome::kMasked));
  // Every SDC carries a lockstep pinpoint at or after its injection cycle.
  ASSERT_EQ(off->sdcs.size(), count(*off, TrialOutcome::kSdc));
  for (const TrialRecord& sdc : off->sdcs) {
    ASSERT_TRUE(sdc.has_divergence) << sdc.plan.spec.text;
    EXPECT_TRUE(sdc.divergence.diverged);
    EXPECT_GE(sdc.divergence.cycle_a, sdc.plan.spec.cycle);
  }
}

TEST(CampaignTest, CampaignJsonIsByteIdenticalAcrossRuns) {
  std::string first;
  for (int run = 0; run < 2; ++run) {
    CampaignOptions options = FocusedOptions(20);
    options.collect_trial_records = true;
    CampaignEngine engine(CoreConfig{}, MakeSetup(), options);
    auto report = RunCampaign(engine);
    ASSERT_OK(report.status());
    std::ostringstream json;
    WriteCampaignJson(*report, json);
    EXPECT_TRUE(JsonLooksValid(json.str()));
    if (run == 0) {
      first = json.str();
      EXPECT_FALSE(first.empty());
    } else {
      EXPECT_EQ(first, json.str());
    }
  }
}

TEST(CampaignTest, HarvestsSelfContainedSdcRepro) {
  const ScratchDir scratch("campaign-sdc-repro");
  const std::string out_dir = scratch.path + "/repros";
  CoreConfig unprotected;
  unprotected.mram_parity = false;
  CampaignOptions options = FocusedOptions(8);
  options.out_dir = out_dir;
  options.repro_files.push_back({"guest.s", kGuest});
  options.repro_files.push_back({"mcode.s", kMcode});
  options.repro_msim_args = "guest.s --mcode mcode.s --no-parity";
  CampaignEngine engine(unprotected, MakeSetup(), options);
  auto report = RunCampaign(engine);
  ASSERT_OK(report.status());
  ASSERT_FALSE(report->sdcs.empty());
  const TrialRecord& sdc = report->sdcs.front();
  ASSERT_FALSE(sdc.repro_dir.empty());
  const std::string dir = out_dir + "/" + sdc.repro_dir;
  for (const char* name : {"guest.s", "mcode.s", "spec.txt", "divergence.json", "repro.sh"}) {
    std::ifstream in(dir + "/" + name);
    EXPECT_TRUE(in.good()) << dir << "/" << name;
  }
  std::ifstream spec_in(dir + "/spec.txt");
  std::string spec_line;
  std::getline(spec_in, spec_line);
  EXPECT_EQ(spec_line, sdc.plan.spec.text);
}

// ---------------------------------------------------------------------------
// The mcamp CLI, end to end.

int RunCommand(const std::string& command) {
  const int raw = std::system(command.c_str());
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

std::string WriteGuestFiles(const ScratchDir& scratch) {
  std::ofstream guest(scratch.path + "/guest.s");
  guest << kGuest;
  std::ofstream mcode(scratch.path + "/mcode.s");
  mcode << kMcode;
  return scratch.path;
}

TEST(McampCliTest, CleanCampaignExitsZeroAndSdcCampaignExits14) {
  const ScratchDir scratch("mcamp-exit-codes");
  const std::string dir = WriteGuestFiles(scratch);
  const std::string base = std::string(MCAMP_CLI_PATH) + " run " + dir + "/guest.s --mcode " +
                           dir + "/mcode.s --mcheck-entry 2 --target mram-data --locations 1 "
                           "--trials 10 --campaign-json " +
                           dir + "/campaign.json 2>/dev/null";
  EXPECT_EQ(RunCommand(base), kExitOk);
  std::ifstream json_in(dir + "/campaign.json");
  std::stringstream json;
  json << json_in.rdbuf();
  EXPECT_TRUE(JsonLooksValid(json.str()));
  EXPECT_NE(json.str().find("\"detected_recovered\""), std::string::npos);

  const std::string no_parity = std::string(MCAMP_CLI_PATH) + " run " + dir +
                                "/guest.s --mcode " + dir +
                                "/mcode.s --mcheck-entry 2 --no-parity --target mram-data "
                                "--locations 1 --trials 10 --campaign-json " +
                                dir + "/campaign-np.json 2>/dev/null";
  EXPECT_EQ(RunCommand(no_parity), kExitSdc);
}

TEST(McampCliTest, RejectsUsageErrors) {
  EXPECT_EQ(RunCommand(std::string(MCAMP_CLI_PATH) + " 2>/dev/null"), kExitUsage);
  EXPECT_EQ(RunCommand(std::string(MCAMP_CLI_PATH) + " run 2>/dev/null"), kExitUsage);
  const ScratchDir scratch("mcamp-usage");
  const std::string dir = WriteGuestFiles(scratch);
  EXPECT_EQ(RunCommand(std::string(MCAMP_CLI_PATH) + " run " + dir +
                       "/guest.s --trials 0 2>/dev/null"),
            kExitUsage);
  EXPECT_EQ(RunCommand(std::string(MCAMP_CLI_PATH) + " run " + dir +
                       "/guest.s --target warp-core 2>/dev/null"),
            kExitUsage);
}

// Numeric flags hold msim's strict parsing standard: negative values, garbage
// suffixes and overflow are usage errors (exit 2), never a silent 0 or a
// saturated value, and documented range floors are enforced at the CLI.
TEST(McampCliTest, RejectsMalformedNumericFlags) {
  const ScratchDir scratch("mcamp-numeric-flags");
  const std::string dir = WriteGuestFiles(scratch);
  const std::string base = std::string(MCAMP_CLI_PATH) + " run " + dir + "/guest.s ";
  EXPECT_EQ(RunCommand(base + "--trials -3 2>/dev/null"), kExitUsage);
  EXPECT_EQ(RunCommand(base + "--trials 10abc 2>/dev/null"), kExitUsage);
  EXPECT_EQ(RunCommand(base + "--max-cycles 99999999999999999999 2>/dev/null"),
            kExitUsage);
  EXPECT_EQ(RunCommand(base + "--seed banana 2>/dev/null"), kExitUsage);
  // --hang-factor documents "min 2"; the engine no longer clamps silently.
  EXPECT_EQ(RunCommand(base + "--hang-factor 1 2>/dev/null"), kExitUsage);
  EXPECT_EQ(RunCommand(base + "--hang-factor 0 2>/dev/null"), kExitUsage);
  // Out-of-range and malformed values print exactly one line naming the flag.
  const struct {
    const char* args;
    const char* flag;
  } kRejected[] = {
      {"--mcheck-entry 256", "--mcheck-entry"},
      {"--locations 4294967296", "--locations"},
      {"--snapshots x", "--snapshots"},
  };
  for (const auto& bad : kRejected) {
    SCOPED_TRACE(bad.args);
    std::string err;
    EXPECT_EQ(RunCapturingStderr(base + bad.args, &err), kExitUsage);
    EXPECT_EQ(err.rfind(std::string("invalid value for ") + bad.flag, 0), 0u) << err;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  }
}

}  // namespace
}  // namespace msim
