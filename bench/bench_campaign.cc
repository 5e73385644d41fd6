// Differential fault-injection campaign: parity + scrub-and-retry recovery
// vs. an unprotected machine (docs/robustness.md "Fault campaigns").
//
// Runs the SAME seeded campaign — identical guest, fault plan and trial
// budget — against two configs that differ only in MRAM parity checking:
//
//   protected     parity on, machine checks delegated to a scrub-and-retry
//                 recovery mroutine (the paper's §2.3 machine-check story);
//   unprotected   --no-parity: faults land silently.
//
// The headline row pair: every trial the protected machine reports as
// detected-recovered shows up as silent data corruption (SDC) or a crash on
// the unprotected one. Detection latency percentiles come from the campaign's
// per-target histograms; everything is simulated cycles, so the output is
// byte-stable across runs and machines.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "bench/campaign_machine.h"
#include "campaign/campaign.h"
#include "metal/system.h"
#include "support/strings.h"

using namespace msim;

namespace {

CampaignReport RunOne(bool parity) {
  CoreConfig config;
  config.mram_parity = parity;

  CampaignEngine engine(config, SetUpCampaignMachine, CampaignMachineOptions(600, 1));
  return UnwrapOrDie(RunCampaign(engine), parity ? "protected campaign"
                                                 : "unprotected campaign");
}

uint64_t Count(const CampaignReport& report, TrialOutcome outcome) {
  return report.counts[static_cast<size_t>(outcome)];
}

void AddRows(BenchReport& json, const char* label, const CampaignReport& report) {
  json.AddRow(label)
      .Field("trials", static_cast<uint64_t>(report.options.trials))
      .Field("masked", Count(report, TrialOutcome::kMasked))
      .Field("detected_recovered", Count(report, TrialOutcome::kDetectedRecovered))
      .Field("detected_fatal", Count(report, TrialOutcome::kDetectedFatal))
      .Field("sdc", Count(report, TrialOutcome::kSdc))
      .Field("hang", Count(report, TrialOutcome::kHang))
      .Field("crash", Count(report, TrialOutcome::kCrash));
  for (const TargetSummary& target : report.per_target) {
    json.AddRow(std::string(label) + "/" + FaultTargetName(target.target))
        .Field("trials", target.trials)
        .Field("masked", target.counts[static_cast<size_t>(TrialOutcome::kMasked)])
        .Field("detected_recovered",
               target.counts[static_cast<size_t>(TrialOutcome::kDetectedRecovered)])
        .Field("detected_fatal",
               target.counts[static_cast<size_t>(TrialOutcome::kDetectedFatal)])
        .Field("sdc", target.counts[static_cast<size_t>(TrialOutcome::kSdc)])
        .Field("hang", target.counts[static_cast<size_t>(TrialOutcome::kHang)])
        .Field("crash", target.counts[static_cast<size_t>(TrialOutcome::kCrash)])
        .LatencyFields(target.detect_latency);
  }
}

void PrintRow(const char* label, const CampaignReport& report) {
  std::printf("%-14s %8llu %8llu %12llu %10llu %8llu %8llu %8llu\n", label,
              (unsigned long long)report.options.trials,
              (unsigned long long)Count(report, TrialOutcome::kMasked),
              (unsigned long long)Count(report, TrialOutcome::kDetectedRecovered),
              (unsigned long long)Count(report, TrialOutcome::kDetectedFatal),
              (unsigned long long)Count(report, TrialOutcome::kSdc),
              (unsigned long long)Count(report, TrialOutcome::kHang),
              (unsigned long long)Count(report, TrialOutcome::kCrash));
}

}  // namespace

int main(int argc, char** argv) {
  PrintHeader("Fault campaign: parity + scrub-and-retry vs. unprotected MRAM",
              "docs/robustness.md \"Fault campaigns\" (supports paper §2.3)");

  const CampaignReport protected_run = RunOne(/*parity=*/true);
  const CampaignReport unprotected_run = RunOne(/*parity=*/false);

  std::printf("\n%-14s %8s %8s %12s %10s %8s %8s %8s\n", "config", "trials",
              "masked", "recovered", "fatal", "sdc", "hang", "crash");
  PrintRow("protected", protected_run);
  PrintRow("unprotected", unprotected_run);
  for (const TargetSummary& target : protected_run.per_target) {
    PrintLatencyLine(
        StrFormat("protected detect latency (%s)", FaultTargetName(target.target)).c_str(),
        target.detect_latency);
  }
  std::printf("\nSame seeded fault plan both rows: parity converts silent corruption\n"
              "into detected machine checks the recovery mroutine repairs in place.\n");

  BenchReport json("bench_campaign", "docs/robustness.md fault campaigns");
  AddRows(json, "protected", protected_run);
  AddRows(json, "unprotected", unprotected_run);
  if (!json.WriteIfRequested(argc, argv)) {
    return 1;
  }

  // The headline claim is checkable, so check it: the protected machine must
  // finish the campaign with zero SDCs and actually exercise recovery, and
  // removing parity must surface silent corruption.
  if (Count(protected_run, TrialOutcome::kSdc) != 0 ||
      Count(protected_run, TrialOutcome::kDetectedRecovered) == 0 ||
      Count(unprotected_run, TrialOutcome::kSdc) == 0) {
    std::fprintf(stderr, "headline claim violated\n");
    return 1;
  }
  return 0;
}
