// Direct-mapped cache timing model.
//
// The cache tracks tags only: data always comes from the backing store so the
// model is purely a latency/statistics device. This keeps the simulator
// functionally simple while preserving the latency ordering the paper's
// claims rest on (MRAM ~ cache hit << DRAM). It also lets benches measure the
// cache-pollution ablation (a trap handler fetched through the I-cache evicts
// application lines; an mroutine in MRAM does not — paper §2, "Accesses to
// the RAM do not alter processor caches").
#ifndef MSIM_MEM_CACHE_H_
#define MSIM_MEM_CACHE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "support/result.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace msim {

class SnapWriter;
class SnapReader;

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
};

class Cache {
 public:
  // num_lines and line_size must be powers of two.
  Cache(uint32_t num_lines, uint32_t line_size, uint32_t hit_latency, uint32_t miss_latency);

  // Performs a (timing-only) access; returns the latency in cycles and
  // updates tags and statistics.
  uint32_t Access(uint32_t paddr);

  // True if the line holding paddr is currently resident (no state change).
  // Inline: the hot-path stepper (Core::StepFast) probes once per cycle.
  bool Probe(uint32_t paddr) const {
    const Line& line = lines_[IndexOf(paddr)];
    return line.valid && line.tag == TagOf(paddr);
  }

  // Hot-path port (Core::StepFast): once Probe confirmed residency, Access
  // would only count a hit and return hit_latency_ — the stepper counts the
  // hits locally and credits them in bulk when it returns.
  void CreditHits(uint64_t n) { stats_.hits += n; }

  void InvalidateAll();

  // Fault-injection port: rewrites the indexed line's tag as
  // (tag & and_mask) ^ xor_mask. A corrupted tag makes the line hit for the
  // wrong address range — a timing-only upset, since the model is tags-only
  // and data always comes from the backing store. `index` wraps modulo the
  // line count. Only valid lines are affected; returns whether one was.
  bool CorruptLine(uint32_t index, uint32_t and_mask, uint32_t xor_mask);

  uint32_t num_lines() const { return num_lines_; }

  // Checkpoint/restore (src/snap): tag array and counters. Geometry and
  // latencies come from CoreConfig, not the snapshot; restore fails if the
  // saved line count differs.
  void SaveState(SnapWriter& w) const;
  Status RestoreState(SnapReader& r);

  const CacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CacheStats{}; }

  // Registers hit/miss counters under `component` (e.g. "icache").
  void RegisterMetrics(MetricRegistry& registry, const std::string& component) const;

  // Attaches the core's tracer; misses emit `miss_kind` events.
  void SetTracer(Tracer* tracer, TraceEventKind miss_kind) {
    tracer_ = tracer;
    miss_kind_ = miss_kind;
  }

  uint32_t hit_latency() const { return hit_latency_; }
  uint32_t miss_latency() const { return miss_latency_; }

 private:
  struct Line {
    bool valid = false;
    uint32_t tag = 0;
  };

  uint32_t IndexOf(uint32_t paddr) const { return (paddr / line_size_) & (num_lines_ - 1); }
  uint32_t TagOf(uint32_t paddr) const { return paddr / line_size_ / num_lines_; }

  uint32_t num_lines_;
  uint32_t line_size_;
  uint32_t hit_latency_;
  uint32_t miss_latency_;
  std::vector<Line> lines_;
  CacheStats stats_;
  Tracer* tracer_ = nullptr;
  TraceEventKind miss_kind_ = TraceEventKind::kDCacheMiss;
};

}  // namespace msim

#endif  // MSIM_MEM_CACHE_H_
