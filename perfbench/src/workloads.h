// The benchmark's workloads (see README.md for why each exists).
//
// A workload is set up once per setup pass, then runs rounds. A round is a
// fixed amount of simulated work split into jobs: a job is one guest run from
// a fresh machine to halt, one checkpoint resume, or one campaign trial. The
// simulated caches start empty in every job, as they do on every msim run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.h"

namespace msim {
class Core;
}

namespace perfbench {

// Correctness checks. Each check is one attempted operation; a mismatch is a
// failed one and makes the benchmark exit nonzero.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  template <typename T>
  void Equal(const T& got, const T& want, const std::string& what) {
    Expect(got == want, what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Simulated counters the cores publish through Core::metrics(), summed over
// the jobs of a round.
struct Counters {
  uint64_t instret = 0;
  uint64_t metal_instret = 0;
  uint64_t cycles = 0;
  uint64_t sb_instructions = 0;
  uint64_t sb_builds = 0;
  uint64_t sb_invalidations = 0;
  uint64_t sb_mem_fast_hits = 0;
  uint64_t sb_mem_slow_exits = 0;
  uint64_t predecode_hits = 0;
  uint64_t predecode_misses = 0;
  uint64_t menters = 0;
  uint64_t intercepts = 0;
  uint64_t exceptions = 0;
  uint64_t interrupts = 0;
  uint64_t icache_hits = 0;
  uint64_t icache_misses = 0;
  uint64_t dcache_hits = 0;
  uint64_t dcache_misses = 0;
  uint64_t mram_code_fetches = 0;
  uint64_t mram_data_ops = 0;
  uint64_t tlb_hits = 0;
  uint64_t tlb_misses = 0;

  static Counters Read(const msim::Core& core);
  // this += after - before, field by field.
  void AddDelta(const Counters& before, const Counters& after);
};

struct RoundTally {
  std::vector<double> job_s;       // host seconds of each job
  uint64_t sim_instr = 0;          // instret + metal_instret simulated by the jobs
  Counters counters;               // traced rounds only
  uint64_t snapshot_bytes = 0;     // bytes of SaveSnapshot images
  uint64_t trials = 0;             // campaign trials
  uint64_t forked = 0;             // ... of which forked from a snapshot
};

class Workload {
 public:
  virtual ~Workload() = default;
  // One setup pass: builds everything the measured phase needs from scratch.
  virtual void Setup(Checks& checks) = 0;
  // Untimed reference runs between setup and the measured phase, and what
  // only the benchmark's checks or span-instrumented rounds need.
  virtual void Verify(Checks& checks) { (void)checks; }
  // One round over work unit `unit`. Traced rounds record spans.
  virtual void Round(uint64_t unit, bool traced, RoundTally& tally, Checks& checks) = 0;
  // Untimed checks after the measured phase.
  virtual void Finish(Checks& checks) { (void)checks; }
  // Jobs the untraced rounds must reach, so that the latency percentiles rest
  // on enough samples.
  virtual uint64_t min_jobs() const { return 0; }
  // Work units the measured phase must cover (each traced or untraced).
  virtual uint64_t min_units() const { return 1; }
  // Simulated statistics (cycles, instret, outcome counts, digests) for
  // cross-run comparison; `pinned` ones must not depend on the seed.
  struct SimStat {
    std::string name;
    uint64_t value = 0;
    bool pinned = false;
  };
  virtual std::vector<SimStat> SimStats() const = 0;
};

// Returns null for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
