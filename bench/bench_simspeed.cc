// Engineering benchmark: simulator throughput (google-benchmark).
//
// Not a paper experiment — this measures how many simulated instructions per
// wall-clock second the cycle-level model achieves, for the configurations
// the other benches use heavily.
//
// items_per_second is therefore simulated-instructions per wall second,
// computed from the measured RunResult::instret of every iteration — never
// from a hardcoded instruction count, which silently rots when a program or
// the pipeline model changes.
//
// The *FastStep / *StepCycle pairs measure the same program under both
// stepping modes (CoreConfig::fast_step on and off); CI computes the speedup
// ratio from the JSON output and gates regressions against
// bench/baseline_simspeed.json.
//
// Three host-cost rows sit next to the instruction-throughput rows:
// BM_CampaignTrial (CampaignEngine::RunTrial over the bench_campaign machine,
// trials forked from golden snapshots, in trials per second),
// BM_CampaignSdcPinpoint (CampaignEngine::PinpointDivergence over the SDC
// trials of the same campaign without parity, in pinpoints per second) and
// BM_DramDigest (Core::StateDigest with DRAM over a machine with 256 KiB of
// live DRAM spread across the whole array, in digests per second and ns per
// KiB of live DRAM). The trial and digest rows track PhysicalMemory's
// dirty-page bookkeeping: with it, a digest costs O(written pages), not
// O(DRAM size). The pinpoint row tracks forking: a pinpoint costs the
// cycles after its fork point, not the whole run.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstring>

#include "asm/assembler.h"
#include "bench/bench_util.h"
#include "bench/campaign_machine.h"
#include "campaign/campaign.h"
#include "cpu/core.h"
#include "metal/system.h"

namespace msim {
namespace {

const char* kAluLoop = R"(
  _start:
    li t0, 100000
  loop:
    addi a0, a0, 1
    xor a1, a1, a0
    addi t0, t0, -1
    bnez t0, loop
    halt zero
)";

// Memory-bound rows: the superblock memory slots (docs/performance.md) keep
// these loops inside traces, so their throughput tracks the trace tier's
// dcache/TLB fast path rather than the ALU ceiling. CI gates the ratio of
// BM_MemCopyLoop over its per-cycle twin (memloop_speedup).
const char* kMemCopyLoop = R"(
  _start:
    la t5, src
    la t6, dst
    li t0, 25000
  loop:
    lw a0, 0(t5)
    addi a0, a0, 1
    sw a0, 0(t6)
    addi t0, t0, -1
    bnez t0, loop
    halt zero
    .data
  src:
    .word 7
  dst:
    .word 0
)";

const char* kStridedStoreLoop = R"(
  _start:
    la t6, buf
    li t0, 12500
  loop:
    sw t0, 0(t6)
    sh t0, 32(t6)
    sb t0, 64(t6)
    lbu a1, 64(t6)
    addi t0, t0, -1
    bnez t0, loop
    halt zero
    .data
  buf:
    .space 128
)";

const char* kMixedAluMemLoop = R"(
  _start:
    la t6, buf
    li t0, 20000
  loop:
    addi a0, a0, 3
    xor a1, a1, a0
    lw a2, 0(t6)
    add a2, a2, a0
    sw a2, 4(t6)
    addi t0, t0, -1
    bnez t0, loop
    halt zero
    .data
  buf:
    .word 5
    .word 0
)";

const char* kMetalLoop = R"(
  _start:
    li t0, 50000
  loop:
    menter 1
    addi t0, t0, -1
    bnez t0, loop
    halt zero
)";

const char* kNoopMroutine = R"(
    .mentry 1, noop
  noop:
    mexit
)";

// Runs `source` to completion once per iteration under `config`, reporting
// measured simulated instructions as items.
void RunLoopProgram(benchmark::State& state, const char* source,
                    const CoreConfig& config) {
  const auto program = Assemble(source);
  uint64_t total_instret = 0;
  for (auto _ : state) {
    Core core(config);
    (void)core.LoadProgram(*program);
    const RunResult result = core.Run(5'000'000);
    benchmark::DoNotOptimize(result.exit_code);
    total_instret += result.instret;
    state.counters["sim_instr"] = static_cast<double>(result.instret);
  }
  state.SetItemsProcessed(static_cast<int64_t>(total_instret));
}

void BM_AluLoop(benchmark::State& state) {
  RunLoopProgram(state, kAluLoop, CoreConfig{});  // fast_step on
}
BENCHMARK(BM_AluLoop)->Unit(benchmark::kMillisecond);

void BM_AluLoopStepCycle(benchmark::State& state) {
  CoreConfig config;
  config.fast_step = false;
  RunLoopProgram(state, kAluLoop, config);
}
BENCHMARK(BM_AluLoopStepCycle)->Unit(benchmark::kMillisecond);

void BM_MemCopyLoop(benchmark::State& state) {
  RunLoopProgram(state, kMemCopyLoop, CoreConfig{});
}
BENCHMARK(BM_MemCopyLoop)->Unit(benchmark::kMillisecond);

void BM_MemCopyLoopStepCycle(benchmark::State& state) {
  CoreConfig config;
  config.fast_step = false;
  RunLoopProgram(state, kMemCopyLoop, config);
}
BENCHMARK(BM_MemCopyLoopStepCycle)->Unit(benchmark::kMillisecond);

void BM_StridedStoreLoop(benchmark::State& state) {
  RunLoopProgram(state, kStridedStoreLoop, CoreConfig{});
}
BENCHMARK(BM_StridedStoreLoop)->Unit(benchmark::kMillisecond);

void BM_MixedAluMemLoop(benchmark::State& state) {
  RunLoopProgram(state, kMixedAluMemLoop, CoreConfig{});
}
BENCHMARK(BM_MixedAluMemLoop)->Unit(benchmark::kMillisecond);

void BM_MetalTransitionLoop(benchmark::State& state) {
  uint64_t total_instret = 0;
  for (auto _ : state) {
    MetalSystem system;
    system.AddMcode(kNoopMroutine);
    (void)system.LoadProgramSource(kMetalLoop);
    const RunResult result = system.Run(5'000'000);
    benchmark::DoNotOptimize(result.exit_code);
    total_instret += result.instret + system.core().stats().metal_instret;
  }
  state.SetItemsProcessed(static_cast<int64_t>(total_instret));
}
BENCHMARK(BM_MetalTransitionLoop)->Unit(benchmark::kMillisecond);

CoreConfig CampaignConfig(bool parity) {
  CoreConfig config;
  config.mram_parity = parity;
  return config;
}

// A prepared parity-protected campaign over the bench_campaign machine and
// its planned trials.
struct CampaignTrials {
  CampaignTrials()
      : engine(CampaignConfig(/*parity=*/true), SetUpCampaignMachine,
               CampaignMachineOptions(100, 1)) {
    DieIfError(engine.Prepare(), "campaign prepare");
    plans = engine.PlanTrials();
  }
  void Run(const TrialPlan& plan) {
    const auto record = engine.RunTrial(plan);
    DieIfError(record.status(), "campaign trial");
    benchmark::DoNotOptimize(record->result.state_digest);
  }
  CampaignEngine engine;
  std::vector<TrialPlan> plans;
};

// The SDC trials of the same campaign without parity, for pinpointing: each
// one locksteps a clean and a faulty machine forked from the golden snapshot
// before its injection.
struct CampaignSdcs {
  CampaignSdcs()
      : engine(CampaignConfig(/*parity=*/false), SetUpCampaignMachine,
               CampaignMachineOptions(100, 1)) {
    DieIfError(engine.Prepare(), "campaign prepare");
    for (const TrialPlan& plan : engine.PlanTrials()) {
      const auto record = engine.RunTrial(plan);
      DieIfError(record.status(), "campaign trial");
      if (record->outcome == TrialOutcome::kSdc) {
        plans.push_back(plan);
      }
    }
    if (plans.empty()) {
      DieIfError(Internal("no SDC trials"), "campaign without parity");
    }
  }
  void Pinpoint(const TrialPlan& plan) {
    const auto report = engine.PinpointDivergence(plan);
    DieIfError(report.status(), "campaign pinpoint");
    benchmark::DoNotOptimize(report->cycle_a);
  }
  CampaignEngine engine;
  std::vector<TrialPlan> plans;
};

// A machine whose DRAM holds kLiveDramPages pages of non-zero words, one page
// every DRAM-size / kLiveDramPages bytes so the live set spans the array.
constexpr uint32_t kLiveDramPages = 64;
constexpr double kLiveDramKib = kLiveDramPages * PhysicalMemory::kPageSize / 1024.0;

void FillLiveDram(Core& core) {
  PhysicalMemory& dram = core.bus().dram();
  const uint32_t stride = dram.size() / kLiveDramPages;
  for (uint32_t page = 0; page < kLiveDramPages; ++page) {
    for (uint32_t offset = 0; offset < PhysicalMemory::kPageSize; offset += 4) {
      (void)dram.Write32(page * stride + offset, 0x9E3779B9u * (page + offset + 1));
    }
  }
}

void BM_CampaignTrial(benchmark::State& state) {
  CampaignTrials trials;
  size_t next = 0;
  for (auto _ : state) {
    trials.Run(trials.plans[next]);
    next = (next + 1) % trials.plans.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CampaignTrial)->Unit(benchmark::kMicrosecond);

void BM_CampaignSdcPinpoint(benchmark::State& state) {
  CampaignSdcs sdcs;
  size_t next = 0;
  for (auto _ : state) {
    sdcs.Pinpoint(sdcs.plans[next]);
    next = (next + 1) % sdcs.plans.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CampaignSdcPinpoint)->Unit(benchmark::kMicrosecond);

void BM_DramDigest(benchmark::State& state) {
  Core core{CoreConfig{}};
  FillLiveDram(core);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core.StateDigest(/*include_dram=*/true));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["live_kib"] = kLiveDramKib;
}
BENCHMARK(BM_DramDigest)->Unit(benchmark::kMicrosecond);

void BM_Assembler(benchmark::State& state) {
  std::string source = "_start:\n";
  for (int i = 0; i < 1000; ++i) {
    source += "  addi a0, a0, 1\n";
  }
  source += "  halt a0\n";
  for (auto _ : state) {
    auto program = Assemble(source);
    benchmark::DoNotOptimize(program.ok());
  }
  state.SetItemsProcessed(state.iterations() * 1002);
}
BENCHMARK(BM_Assembler)->Unit(benchmark::kMillisecond);

}  // namespace

// Best-of-N wall-clock measurement of `source` under `config`, in simulated
// instructions per second. Self-contained (std::chrono, not the
// google-benchmark timer) so the BenchReport path works identically across
// library versions and never depends on benchmark CLI flags. With `observed`
// a SpanSink is attached (the msim --stats-json / --trace-json configuration),
// measuring the cost of full observability on the hot path.
double MeasureInstrPerSec(const char* source, const CoreConfig& config, int reps,
                          bool observed = false) {
  const auto program = Assemble(source);
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    Core core(config);
    SpanSink spans;
    if (observed) {
      core.SetTraceSink(&spans);
    }
    (void)core.LoadProgram(*program);
    const auto t0 = std::chrono::steady_clock::now();
    const RunResult result = core.Run(5'000'000);
    const auto t1 = std::chrono::steady_clock::now();
    if (observed) {
      spans.Finalize(core.cycle());
    }
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    if (seconds > 0.0) {
      const double rate = static_cast<double>(result.instret) / seconds;
      if (rate > best) {
        best = rate;
      }
    }
  }
  return best;
}

// Best-of-N rate of `body` (called `batch` times per rep), in calls per
// second.
template <typename Body>
double MeasureCallsPerSec(int reps, int batch, Body&& body) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < batch; ++i) {
      body(i);
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (seconds > 0.0 && batch / seconds > best) {
      best = batch / seconds;
    }
  }
  return best;
}

// CI entry point: `bench_simspeed --json FILE` writes a BenchReport with the
// measured throughput of both stepping modes and their speedup ratio; the
// perf job gates it against bench/baseline_simspeed.json (>20% regression on
// any baseline field fails). Without --json/--stats-json the binary behaves
// as a plain google-benchmark main.
int RunBenchReport(int argc, char** argv) {
  BenchReport report("simspeed", "engineering throughput (not a paper experiment)");
  CoreConfig fast_config;  // defaults: fast_step on
  CoreConfig slow_config;
  slow_config.fast_step = false;
  const int kReps = 10;
  const double fast = MeasureInstrPerSec(kAluLoop, fast_config, kReps);
  const double slow = MeasureInstrPerSec(kAluLoop, slow_config, kReps);
  const double observed = MeasureInstrPerSec(kAluLoop, fast_config, kReps,
                                             /*observed=*/true);
  const double memcopy = MeasureInstrPerSec(kMemCopyLoop, fast_config, kReps);
  const double memcopy_slow = MeasureInstrPerSec(kMemCopyLoop, slow_config, kReps);
  const double strided = MeasureInstrPerSec(kStridedStoreLoop, fast_config, kReps);
  const double mixed = MeasureInstrPerSec(kMixedAluMemLoop, fast_config, kReps);
  CampaignTrials campaign;
  const double trials_per_s =
      MeasureCallsPerSec(5, static_cast<int>(campaign.plans.size()),
                         [&](int i) { campaign.Run(campaign.plans[i]); });
  CampaignSdcs sdcs;
  const double pinpoints_per_s =
      MeasureCallsPerSec(5, static_cast<int>(sdcs.plans.size()),
                         [&](int i) { sdcs.Pinpoint(sdcs.plans[i]); });
  Core digest_core{CoreConfig{}};
  FillLiveDram(digest_core);
  const double digests_per_s = MeasureCallsPerSec(5, 200, [&](int) {
    benchmark::DoNotOptimize(digest_core.StateDigest(/*include_dram=*/true));
  });
  const double digest_ns_per_kib = digests_per_s > 0.0 ? 1e9 / digests_per_s / kLiveDramKib : 0.0;
  std::printf("BM_AluLoop                %12.0f sim-instr/s (fast_step on)\n", fast);
  std::printf("BM_AluLoopStepCycle       %12.0f sim-instr/s (fast_step off)\n", slow);
  std::printf("BM_AluLoopObserved        %12.0f sim-instr/s (fast_step on + span sink)\n",
              observed);
  std::printf("BM_MemCopyLoop            %12.0f sim-instr/s (lw/sw trace fast path)\n",
              memcopy);
  std::printf("BM_MemCopyLoopStepCycle   %12.0f sim-instr/s (fast_step off)\n",
              memcopy_slow);
  std::printf("BM_StridedStoreLoop       %12.0f sim-instr/s (sw/sh/sb/lbu widths)\n",
              strided);
  std::printf("BM_MixedAluMemLoop        %12.0f sim-instr/s (interleaved ALU + mem)\n",
              mixed);
  std::printf("BM_CampaignTrial          %12.0f trials/s (forked RunTrial, parity on)\n",
              trials_per_s);
  std::printf("BM_CampaignSdcPinpoint    %12.0f pinpoints/s (forked lockstep, parity off)\n",
              pinpoints_per_s);
  std::printf("BM_DramDigest             %12.0f digests/s (%.0f ns per KiB of %.0f KiB live)\n",
              digests_per_s, digest_ns_per_kib, kLiveDramKib);
  std::printf("speedup (fast/stepcycle)  %12.2fx\n", slow > 0.0 ? fast / slow : 0.0);
  std::printf("speedup (memloop)         %12.2fx\n",
              memcopy_slow > 0.0 ? memcopy / memcopy_slow : 0.0);
  report.AddRow("BM_AluLoop").Field("sim_instr_per_sec", fast);
  report.AddRow("BM_AluLoopStepCycle").Field("sim_instr_per_sec", slow);
  report.AddRow("BM_AluLoopObserved").Field("sim_instr_per_sec", observed);
  report.AddRow("BM_MemCopyLoop").Field("sim_instr_per_sec", memcopy);
  report.AddRow("BM_MemCopyLoopStepCycle").Field("sim_instr_per_sec", memcopy_slow);
  report.AddRow("BM_StridedStoreLoop").Field("sim_instr_per_sec", strided);
  report.AddRow("BM_MixedAluMemLoop").Field("sim_instr_per_sec", mixed);
  report.AddRow("BM_CampaignTrial").Field("trials_per_s", trials_per_s);
  report.AddRow("BM_CampaignSdcPinpoint").Field("pinpoints_per_s", pinpoints_per_s);
  // Only digests_per_s is gated: the CI check treats every field as a floor.
  report.AddRow("BM_DramDigest")
      .Field("digests_per_s", digests_per_s)
      .Field("ns_per_live_kib", digest_ns_per_kib)
      .Field("live_kib", kLiveDramKib);
  report.AddRow("speedup").Field("fast_over_stepcycle", slow > 0.0 ? fast / slow : 0.0);
  report.AddRow("memloop_speedup")
      .Field("fast_over_stepcycle", memcopy_slow > 0.0 ? memcopy / memcopy_slow : 0.0);
  return report.WriteIfRequested(argc, argv) ? 0 : 1;
}

}  // namespace msim

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 || std::strcmp(argv[i], "--stats-json") == 0) {
      return msim::RunBenchReport(argc, argv);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
