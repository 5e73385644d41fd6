// mcamp — differential fault-injection campaign front end (src/campaign).
//
// Usage:
//   mcamp run <program.s> [options]
//
// Options:
//   --mcode FILE        install an mcode module (repeatable)
//   --mcheck-entry N    delegate machine checks to mroutine entry N
//   --storage MODE      mram | dram-cached | dram-uncached
//   --no-fast           disable decode-stage menter/mexit replacement
//   --no-fast-step      disable hot-path (superblock trace) stepping
//   --no-parity         disable the MRAM parity model (the ablation arm of
//                       the parity-on/off headline experiment)
//   --watchdog N        Metal-mode watchdog budget in cycles (0 = off)
//   --target T          fault target to sweep (repeatable; default: all of
//                       mram-code mram-data mreg tlb icache dcache bus)
//   --trials N          trial budget (default 200)
//   --seed N            fault-space sampling seed (default 0)
//   --locations N       sample locations only from each structure's first N
//                       words/registers/entries/lines (0 = whole structure);
//                       focuses the fault space on the guest's live state
//   --snapshots N       golden-run fork points (default 8; 0 = cold-start
//                       every trial, for debugging / verification)
//   --hang-factor N     hang budget = golden cycles * N (default 4, min 2)
//   --max-cycles N      golden-run cycle budget (default 50M)
//   --campaign-json F   write the campaign report JSON to F (default stdout)
//   --out DIR           harvest a self-contained repro dir per SDC under DIR
//   --trial-log         include the per-trial records array in the JSON
//
// The report is deterministic and wall-clock-free: identical inputs produce
// byte-identical campaign.json (the CI campaign smoke enforces this). Exit
// codes (src/support/exit_codes.h): 0 = campaign ran and found no silent
// data corruption, 14 = at least one SDC, 2 = usage error, 1 = runtime
// error. Human-readable reporting goes to stderr; stdout carries only the
// report JSON (when no --campaign-json file is given).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "cli_util.h"
#include "cpu/trap.h"
#include "metal/system.h"
#include "support/exit_codes.h"
#include "support/strings.h"

using namespace msim;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  mcamp run <program.s> [--mcode file.s]... [--mcheck-entry N]\n"
               "            [--storage mram|dram-cached|dram-uncached] [--no-fast]\n"
               "            [--no-fast-step] [--no-parity] [--watchdog N]\n"
               "            [--target T]... [--trials N] [--seed N] [--locations N]\n"
               "            [--snapshots N] [--hang-factor N] [--max-cycles N]\n"
               "            [--campaign-json FILE] [--out DIR] [--trial-log]\n");
  return kExitUsage;
}

bool ParseTarget(const std::string& name, FaultTarget* out) {
  for (const FaultTarget target :
       {FaultTarget::kMramCode, FaultTarget::kMramData, FaultTarget::kMreg, FaultTarget::kTlb,
        FaultTarget::kICache, FaultTarget::kDCache, FaultTarget::kBus}) {
    if (name == FaultTargetName(target)) {
      *out = target;
      return true;
    }
  }
  return false;
}

// Final path component, for naming guest copies inside SDC repro dirs.
std::string BaseName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

int CmdRun(const std::vector<std::string>& args) {
  std::string program_path;
  std::vector<std::string> mcode_paths;
  CoreConfig config;
  CampaignOptions options;
  int64_t mcheck_entry = -1;
  std::string campaign_json_path;

  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--mcode" && i + 1 < args.size()) {
      mcode_paths.push_back(args[++i]);
    } else if (arg == "--mcheck-entry" && i + 1 < args.size()) {
      uint64_t entry = 0;
      if (!ParseU64Flag("--mcheck-entry", args[++i], &entry)) {
        return kExitUsage;
      }
      if (entry > 255) {
        std::fprintf(stderr, "invalid value for --mcheck-entry: %llu (want 0..255)\n",
                     (unsigned long long)entry);
        return kExitUsage;
      }
      mcheck_entry = static_cast<int64_t>(entry);
    } else if (arg == "--storage" && i + 1 < args.size()) {
      const std::string& mode = args[++i];
      if (!ParseStorageMode(mode, &config.mroutine_storage)) {
        std::fprintf(stderr, "unknown storage mode '%s'\n", mode.c_str());
        return kExitUsage;
      }
    } else if (arg == "--no-fast") {
      config.fast_transition = false;
    } else if (arg == "--no-fast-step") {
      config.fast_step = false;
    } else if (arg == "--no-parity") {
      config.mram_parity = false;
    } else if (arg == "--watchdog" && i + 1 < args.size()) {
      if (!ParseU64Flag("--watchdog", args[++i], &config.metal_watchdog_cycles)) {
        return kExitUsage;
      }
    } else if (arg == "--target" && i + 1 < args.size()) {
      FaultTarget target;
      const std::string& name = args[++i];
      if (!ParseTarget(name, &target)) {
        std::fprintf(stderr,
                     "unknown fault target '%s' (want mram-code|mram-data|mreg|tlb|icache|"
                     "dcache|bus)\n",
                     name.c_str());
        return kExitUsage;
      }
      options.targets.push_back(target);
    } else if (arg == "--trials" && i + 1 < args.size()) {
      if (!ParseU64Flag("--trials", args[++i], &options.trials)) {
        return kExitUsage;
      }
    } else if (arg == "--seed" && i + 1 < args.size()) {
      if (!ParseU64Flag("--seed", args[++i], &options.seed)) {
        return kExitUsage;
      }
    } else if (arg == "--locations" && i + 1 < args.size()) {
      uint64_t locations = 0;
      if (!ParseU64Flag("--locations", args[++i], &locations)) {
        return kExitUsage;
      }
      if (locations > UINT32_MAX) {
        std::fprintf(stderr, "invalid value for --locations: %llu (want 0..%u)\n",
                     (unsigned long long)locations, UINT32_MAX);
        return kExitUsage;
      }
      options.max_location = static_cast<uint32_t>(locations);
    } else if (arg == "--snapshots" && i + 1 < args.size()) {
      uint64_t snapshots = 0;
      if (!ParseU64Flag("--snapshots", args[++i], &snapshots)) {
        return kExitUsage;
      }
      if (snapshots > 1024) {
        std::fprintf(stderr, "invalid value for --snapshots (want 0..1024)\n");
        return kExitUsage;
      }
      options.snapshots = static_cast<uint32_t>(snapshots);
    } else if (arg == "--hang-factor" && i + 1 < args.size()) {
      if (!ParseU64Flag("--hang-factor", args[++i], &options.hang_factor)) {
        return kExitUsage;
      }
      // The documented minimum is 2 (a factor below that cannot distinguish a
      // hang from the golden run itself). The engine used to clamp silently;
      // reject at the CLI like every other out-of-range numeric flag.
      if (options.hang_factor < 2) {
        std::fprintf(stderr, "invalid value for --hang-factor (want >= 2)\n");
        return kExitUsage;
      }
    } else if (arg == "--max-cycles" && i + 1 < args.size()) {
      if (!ParseU64Flag("--max-cycles", args[++i], &options.max_cycles)) {
        return kExitUsage;
      }
    } else if (arg == "--campaign-json" && i + 1 < args.size()) {
      campaign_json_path = args[++i];
    } else if (arg == "--out" && i + 1 < args.size()) {
      options.out_dir = args[++i];
    } else if (arg == "--trial-log") {
      options.collect_trial_records = true;
    } else if (!arg.empty() && arg[0] != '-' && program_path.empty()) {
      program_path = arg;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return kExitUsage;
    }
  }
  if (program_path.empty()) {
    return Usage();
  }
  if (options.trials == 0) {
    std::fprintf(stderr, "invalid value for --trials: 0 (want >= 1)\n");
    return kExitUsage;
  }

  auto program_source = ReadFile(program_path);
  if (!program_source.ok()) {
    std::fprintf(stderr, "%s\n", program_source.status().ToString().c_str());
    return kExitRuntimeError;
  }
  std::vector<std::string> mcode_sources;
  for (const std::string& path : mcode_paths) {
    auto source = ReadFile(path);
    if (!source.ok()) {
      std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
      return kExitRuntimeError;
    }
    mcode_sources.push_back(std::move(*source));
  }

  // Self-contained SDC repro dirs: the guest sources ride along, and the
  // repro command refers to the local copies. Machine-check delegation is not
  // part of the replay command — an SDC is silent by definition, so no
  // machine check fires during its replay.
  options.repro_files.push_back({BaseName(program_path), *program_source});
  std::string repro_args = BaseName(program_path);
  for (size_t i = 0; i < mcode_paths.size(); ++i) {
    const std::string name = StrFormat("mcode%zu-%s", i, BaseName(mcode_paths[i]).c_str());
    options.repro_files.push_back({name, mcode_sources[i]});
    repro_args += " --mcode " + name;
  }
  if (config.mroutine_storage == MroutineStorage::kDramCached) {
    repro_args += " --storage dram-cached";
  } else if (config.mroutine_storage == MroutineStorage::kDramUncached) {
    repro_args += " --storage dram-uncached";
  }
  if (!config.fast_transition) {
    repro_args += " --no-fast";
  }
  if (!config.mram_parity) {
    repro_args += " --no-parity";
  }
  if (config.metal_watchdog_cycles != 0) {
    repro_args += StrFormat(" --watchdog %llu",
                            (unsigned long long)config.metal_watchdog_cycles);
  }
  options.repro_msim_args = repro_args;

  CampaignEngine::SystemSetup setup = [&mcode_sources, &program_source,
                                       mcheck_entry](MetalSystem& system) -> Status {
    for (const std::string& source : mcode_sources) {
      system.AddMcode(source);
    }
    if (mcheck_entry >= 0) {
      system.DelegateException(ExcCause::kMachineCheck, static_cast<uint32_t>(mcheck_entry));
    }
    return system.LoadProgramSource(*program_source);
  };

  CampaignEngine engine(config, std::move(setup), std::move(options));
  auto report = RunCampaign(engine);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return report.status().code() == ErrorCode::kFailedPrecondition ? kExitUsage
                                                                    : kExitRuntimeError;
  }

  WriteCampaignText(*report, std::cerr);
  if (campaign_json_path.empty()) {
    WriteCampaignJson(*report, std::cout);
    if (!std::cout.good()) {
      return kExitRuntimeError;
    }
  } else {
    std::ofstream out(campaign_json_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", campaign_json_path.c_str());
      return kExitRuntimeError;
    }
    WriteCampaignJson(*report, out);
    out.flush();
    if (!out.good()) {
      return kExitRuntimeError;
    }
  }
  return report->sdcs.empty() ? kExitOk : kExitSdc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "run") {
    return CmdRun(args);
  }
  return Usage();
}
