// perfbench: host-time benchmark of the simulator.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-out FILE]
//
// Sets the workload up, then runs rounds of fixed simulated work for at least
// S seconds, and prints one JSON object as its last line of output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, measured with span
// recording off. With --trace 1 every other round records spans and the
// metrics are the per-layer ones; the untraced rounds in between give
// trace.overhead_s. An untraced run times six more set-up passes spread over
// the measured phase; setup_s is the median of the seven. The line before the
// result holds the simulated statistics (cycles, instret, outcome counts,
// digests) for cross-run comparison.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupPasses = 7;
// A run must end within 180 s; stop the measured phase here even if a job
// floor is not met yet.
constexpr double kPhaseCapSeconds = 120.0;
constexpr size_t kMinRounds = 3;
// More rounds than a run at the phase cap can hold.
constexpr size_t kMaxRounds = 1 << 14;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;  // required
  bool trace = false;
  std::string spans_out;
};

bool ParseOptions(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") {
        return false;
      }
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return !options.workload.empty() && options.seconds > 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Linear interpolation between closest ranks.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

class MetricSet {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  entries_[i].name.c_str(), entries_[i].value, entries_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

using Totals = std::map<std::string, SpanTotals>;

SpanTotals Get(const Totals& totals, const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? SpanTotals{} : it->second;
}

// Self time per layer: the span-name prefix before the first '.'.
std::map<std::string, double> LayerSelf(const Totals& totals) {
  std::map<std::string, double> layers;
  for (const auto& [name, entry] : totals) {
    layers[name.substr(0, name.find('.'))] += entry.self_s;
  }
  return layers;
}

const char* const kLayers[] = {"bench", "asm", "metal", "ext", "cpu", "snap", "campaign"};

struct Round {
  bool traced = false;
  double seconds = 0.0;
  RoundTally tally;
};

uint64_t SimStatValue(const std::vector<Workload::SimStat>& stats, const std::string& name) {
  for (const Workload::SimStat& stat : stats) {
    if (stat.name == name) {
      return stat.value;
    }
  }
  return 0;
}

int Run(const Options& options) {
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload, options.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  Checks checks;
  SpanLog& spans = Spans();
  // Reserved before the first machine is built, so that it is mapped apart
  // from the heap. Grown during the run, it would take its storage from the
  // freed DRAM of the last machine, the next machine's DRAM would no longer
  // fit there, and peak_rss_mb would depend on how many rounds the run held.
  std::vector<Round> rounds;
  rounds.reserve(kMaxRounds);

  // --- set-up. The first pass is timed here (and traced in a traced run);
  // an untraced run times the others spread over the measured phase, so that
  // the median does not hang on one moment's load on the host.
  std::vector<double> setup_s;
  auto setup_pass = [&] {
    const auto start = Clock::now();
    {
      ScopedSpan span("bench.setup");
      workload->Setup(checks);
    }
    setup_s.push_back(SecondsBetween(start, Clock::now()));
  };
  spans.set_enabled(options.trace);
  setup_pass();
  spans.set_enabled(false);
  const size_t phase_from = spans.size();
  const int setup_passes = options.trace ? 1 : kSetupPasses;
  workload->Verify(checks);

  // --- measured phase.
  uint64_t jobs = 0;
  const auto phase_start = Clock::now();
  for (uint64_t index = 0;; ++index) {
    Round round;
    round.traced = options.trace && index % 2 == 1;
    spans.set_enabled(round.traced);
    const auto start = Clock::now();
    {
      ScopedSpan span("bench.round");
      workload->Round(options.trace ? index / 2 : index, round.traced, round.tally, checks);
    }
    round.seconds = SecondsBetween(start, Clock::now());
    spans.set_enabled(false);
    jobs += round.traced ? 0 : round.tally.job_s.size();
    rounds.push_back(std::move(round));

    double elapsed = SecondsBetween(phase_start, Clock::now());
    const int passes = static_cast<int>(setup_s.size());
    if (passes < setup_passes && elapsed >= options.seconds * passes / setup_passes) {
      setup_pass();
    }
    const bool pair_done = !options.trace || index % 2 == 1;
    const uint64_t units = options.trace ? (index + 1) / 2 : index + 1;
    if (pair_done && elapsed >= options.seconds && rounds.size() >= kMinRounds &&
        units >= workload->min_units() &&
        static_cast<int>(setup_s.size()) == setup_passes &&
        (options.trace || jobs >= workload->min_jobs())) {
      break;
    }
    if (pair_done && elapsed >= kPhaseCapSeconds) {
      std::fprintf(stderr, "perfbench: phase capped at %.0f s with %llu jobs\n", elapsed,
                   static_cast<unsigned long long>(jobs));
      break;
    }
  }
  workload->Finish(checks);

  // --- simulated statistics, for cross-run comparison.
  const std::vector<Workload::SimStat> sim = workload->SimStats();
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"rounds\": %zu, "
              "\"jobs\": %llu, \"sim\": {",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, rounds.size(), static_cast<unsigned long long>(jobs));
  for (size_t i = 0; i < sim.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %llu, \"pinned\": %s}", i == 0 ? "" : ", ",
                sim[i].name.c_str(), static_cast<unsigned long long>(sim[i].value),
                sim[i].pinned ? "true" : "false");
  }
  std::printf("}}\n");

  std::vector<double> untraced_s;
  for (const Round& round : rounds) {
    if (!round.traced) {
      untraced_s.push_back(round.seconds);
    }
  }
  std::fprintf(stderr, "perfbench: %zu untraced rounds, seconds min %.6g p25 %.6g p50 %.6g\n",
               untraced_s.size(), Percentile(untraced_s, 0), Percentile(untraced_s, 25),
               Percentile(untraced_s, 50));
  MetricSet metrics;
  if (!options.trace) {
    // Throughput is the work of an average round over the median round time:
    // slow spells of the host that cover less than half of a run do not move
    // it. The tail percentile is p95, not p99: a job's p99 reads whether a
    // spell of a few seconds fell into the run more than it reads the code.
    std::vector<double> job_s;
    std::vector<double> round_s;
    double sim_instr = 0.0;
    for (const Round& round : rounds) {
      job_s.insert(job_s.end(), round.tally.job_s.begin(), round.tally.job_s.end());
      round_s.push_back(round.seconds);
      sim_instr += static_cast<double>(round.tally.sim_instr);
    }
    const double count = static_cast<double>(rounds.size());
    const double round_median = Median(round_s);
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("wall_s", round_median, "s");
    metrics.Add("sim_mips", sim_instr / count / round_median / 1e6, "MIPS");
    metrics.Add("trials_per_s", static_cast<double>(job_s.size()) / count / round_median, "1/s");
    metrics.Add("trial_ms_p50", Percentile(job_s, 50) * 1e3, "ms");
    metrics.Add("trial_ms_p95", Percentile(job_s, 95) * 1e3, "ms");
    metrics.Add("peak_rss_mb", PeakRssMiB(), "MiB");
  } else {
    RoundTally traced;
    double traced_total = 0.0;
    std::vector<double> traced_s;
    for (const Round& round : rounds) {
      if (!round.traced) {
        continue;
      }
      traced.sim_instr += round.tally.sim_instr;
      traced.counters.AddDelta(Counters{}, round.tally.counters);
      traced.snapshot_bytes += round.tally.snapshot_bytes;
      traced.trials += round.tally.trials;
      traced.forked += round.tally.forked;
      traced_total += round.seconds;
      traced_s.push_back(round.seconds);
    }
    const Totals phase = spans.Totals(phase_from, spans.size());
    const Totals setup = spans.Totals(0, phase_from);
    const std::map<std::string, double> layers = LayerSelf(phase);
    const std::map<std::string, double> setup_layers = LayerSelf(setup);
    const double count = static_cast<double>(traced_s.size());
    auto per_round = [&](double value) { return value / count; };
    const Counters& c = traced.counters;

    metrics.Add("trace.overhead_s", Median(traced_s) - Median(untraced_s), "s");
    metrics.Add("trace.coverage",
                Ratio(traced_total - (layers.count("bench") ? layers.at("bench") : 0.0),
                      traced_total),
                "ratio");
    for (const char* layer : kLayers) {
      const auto it = layers.find(layer);
      metrics.Add(std::string(layer) + ".self_s", per_round(it == layers.end() ? 0 : it->second),
                  "s");
    }
    for (const char* layer : kLayers) {
      const auto it = setup_layers.find(layer);
      metrics.Add(std::string("setup.") + layer + "_s",
                  it == setup_layers.end() ? 0.0 : it->second, "s");
    }

    const SpanTotals assemble = Get(phase, "asm.Assemble");
    metrics.Add("asm.assemble_s", per_round(assemble.self_s), "s");
    metrics.Add("asm.calls", per_round(static_cast<double>(assemble.calls)), "count");
    const SpanTotals boot = Get(phase, "metal.Boot");
    metrics.Add("metal.construct_s", per_round(Get(phase, "metal.MetalSystem").self_s), "s");
    metrics.Add("metal.load_s", per_round(Get(phase, "metal.LoadProgram").self_s), "s");
    metrics.Add("metal.boot_s", per_round(boot.self_s), "s");
    metrics.Add("metal.boot_calls", per_round(static_cast<double>(boot.calls)), "count");

    const SpanTotals run = Get(phase, "cpu.Run");
    metrics.Add("cpu.run_s", per_round(run.self_s), "s");
    metrics.Add("cpu.ns_per_instr", Ratio(run.self_s * 1e9, static_cast<double>(traced.sim_instr)),
                "ns");
    metrics.Add("cpu.sb_share", Ratio(static_cast<double>(c.sb_instructions),
                                      static_cast<double>(c.instret)),
                "ratio");
    const std::pair<const char*, uint64_t> cpu_counts[] = {
        {"cpu.sb_mem_slow_exits", c.sb_mem_slow_exits},
        {"cpu.instret", c.instret},
        {"cpu.metal_instret", c.metal_instret},
        {"cpu.cycles", c.cycles},
        {"cpu.sb_builds", c.sb_builds},
        {"cpu.sb_invalidations", c.sb_invalidations},
        {"cpu.sb_mem_fast_hits", c.sb_mem_fast_hits},
        {"cpu.menters", c.menters},
        {"cpu.intercepts", c.intercepts},
        {"cpu.exceptions", c.exceptions},
        {"cpu.interrupts", c.interrupts},
    };
    for (const auto& [name, value] : cpu_counts) {
      metrics.Add(name, per_round(static_cast<double>(value)), "count");
    }
    metrics.Add("cpu.predecode_hit_ratio",
                Ratio(static_cast<double>(c.predecode_hits),
                      static_cast<double>(c.predecode_hits + c.predecode_misses)),
                "ratio");

    metrics.Add("mem.icache_miss_ratio",
                Ratio(static_cast<double>(c.icache_misses),
                      static_cast<double>(c.icache_hits + c.icache_misses)),
                "ratio");
    metrics.Add("mem.dcache_miss_ratio",
                Ratio(static_cast<double>(c.dcache_misses),
                      static_cast<double>(c.dcache_hits + c.dcache_misses)),
                "ratio");
    metrics.Add("mem.mram_code_fetches", per_round(static_cast<double>(c.mram_code_fetches)),
                "count");
    metrics.Add("mem.mram_data_ops", per_round(static_cast<double>(c.mram_data_ops)), "count");
    metrics.Add("mmu.tlb_misses", per_round(static_cast<double>(c.tlb_misses)), "count");
    metrics.Add("mmu.tlb_miss_ratio",
                Ratio(static_cast<double>(c.tlb_misses),
                      static_cast<double>(c.tlb_hits + c.tlb_misses)),
                "ratio");

    const SpanTotals digest = Get(phase, "snap.StateDigest");
    const SpanTotals restore = Get(phase, "snap.RestoreSnapshot");
    const SpanTotals save = Get(phase, "snap.SaveSnapshot");
    metrics.Add("snap.digest_s", per_round(digest.self_s), "s");
    metrics.Add("snap.digest_calls", per_round(static_cast<double>(digest.calls)), "count");
    metrics.Add("snap.restore_s", per_round(restore.self_s), "s");
    metrics.Add("snap.restore_calls", per_round(static_cast<double>(restore.calls)), "count");
    metrics.Add("snap.save_s", per_round(save.self_s), "s");
    metrics.Add("snap.save_calls", per_round(static_cast<double>(save.calls)), "count");
    metrics.Add("snap.image_bytes", per_round(static_cast<double>(traced.snapshot_bytes)),
                "bytes");
    metrics.Add("snap.save_ns_per_kib",
                Ratio(save.self_s * 1e9, static_cast<double>(traced.snapshot_bytes) / 1024.0),
                "ns/KiB");

    const SpanTotals trial = Get(phase, "campaign.trial");
    metrics.Add("campaign.prepare_s", Get(setup, "campaign.Prepare").total_s, "s");
    metrics.Add("campaign.trial_s", Ratio(trial.total_s, static_cast<double>(trial.calls)), "s");
    metrics.Add("campaign.capture_s", per_round(Get(phase, "campaign.CaptureArchOutcome").self_s),
                "s");
    metrics.Add("campaign.forked_share",
                Ratio(static_cast<double>(traced.forked), static_cast<double>(traced.trials)),
                "ratio");
    metrics.Add("campaign.masked", static_cast<double>(SimStatValue(sim, "plan.masked")),
                "count");
    metrics.Add("campaign.recovered",
                static_cast<double>(SimStatValue(sim, "plan.detected_recovered")), "count");
    metrics.Add("campaign.sdc", static_cast<double>(SimStatValue(sim, "plan.sdc")), "count");

    if (!options.spans_out.empty() && !spans.WriteJsonLines(options.spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", options.spans_out.c_str());
    }
  }
  metrics.Print(checks.failed() == 0, checks.attempted(), checks.failed());
  std::fflush(stdout);
  return checks.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseOptions(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME [--seed N] --seconds S [--trace 0|1] "
                 "[--spans-out FILE]\n");
    return 2;
  }
  return perfbench::Run(options);
}
