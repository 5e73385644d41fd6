// Predecode cache: decoded-instruction cache fronting DecodeInstr.
//
// Every fetch — DRAM program text and MRAM mroutine words alike — used to run
// the full DecodeInstr table walk, and the decode-stage menter/mexit
// replacement chain decoded the same mroutine words again inline. This cache
// memoizes (word address -> Decoded) so steady-state fetch is an array index.
//
// Coherence is generation-based rather than snoop-based. Each backing store
// keeps a monotonic write generation (PhysicalMemory::write_generation for
// DRAM, Mram::generation for MRAM — bumped by loader writes, mst, scrubs,
// fault-injection corruption and restore), and every entry records the
// generation it was filled under:
//   * tag match + generation match: the backing word cannot have changed
//     since the fill — trust the cached raw word and decode outright. For an
//     MRAM entry this also makes skipping the parity re-check sound: parity
//     state only changes when the generation does.
//   * tag match + stale generation: the caller re-reads the word from the
//     backing store (and, for MRAM, re-runs the parity check); if the raw
//     word is unchanged the decode is refreshed in place ("verified hit" —
//     self-modifying stores elsewhere in DRAM bump the generation without
//     touching this word).
//   * anything else is a miss: the caller decodes and calls Insert.
// The two address spaces never alias (MRAM code lives at 0xFFFF0000+, DRAM
// below kMmioBase), so one direct-mapped array serves both; the full address
// is the tag.
//
// The cache is architecturally invisible: a hit produces byte-for-byte the
// state a cold decode would. Its contents and hit/miss counters ARE
// serialized in snapshots (snap/snapshot.h bumps the container version), so
// that a run restored from a checkpoint reports the same metrics as the
// straight run — the counters appear in msim --stats-json, which CI compares
// byte-identical across a checkpoint round trip.
#ifndef MSIM_CPU_PREDECODE_H_
#define MSIM_CPU_PREDECODE_H_

#include <cstdint>
#include <vector>

#include "isa/decode.h"
#include "support/result.h"
#include "trace/metrics.h"

namespace msim {

class SnapWriter;
class SnapReader;

struct PredecodeStats {
  uint64_t hits = 0;           // tag + generation match
  uint64_t verified_hits = 0;  // stale generation, raw word verified unchanged
  uint64_t misses = 0;
  uint64_t invalidations = 0;  // InvalidateAll calls (program load, restore, icache upsets)
};

class PredecodeCache {
 public:
  // `entries` must be zero (cache disabled) or a power of two.
  explicit PredecodeCache(uint32_t entries);

  bool enabled() const { return !slots_.empty(); }

  // Generation-checked lookup. Returns the cached decode when the entry for
  // `addr` was filled under the current `gen`, else nullptr. Counts a hit;
  // misses are counted by Verify/Insert so a Find-then-Verify pair on the
  // same fetch records exactly one event.
  const Decoded* Find(uint32_t addr, uint64_t gen) {
    if (slots_.empty()) {
      return nullptr;
    }
    Slot& slot = slots_[Index(addr)];
    if (slot.valid && slot.addr == addr && slot.gen == gen) {
      ++stats_.hits;
      return &slot.d;
    }
    return nullptr;
  }

  // Side-effect-free variant of Find: no counter is touched. Used by the
  // hot-path stepper to test fetch eligibility BEFORE committing a cycle —
  // if the cycle commits, the counting Find/Verify/Insert runs then.
  const Decoded* Peek(uint32_t addr, uint64_t gen) const {
    if (slots_.empty()) {
      return nullptr;
    }
    const Slot& slot = slots_[Index(addr)];
    if (slot.valid && slot.addr == addr && slot.gen == gen) {
      return &slot.d;
    }
    return nullptr;
  }

  // Stale-generation revalidation: when the entry's tag matches and the
  // re-read `raw` equals the cached word, refresh the generation and return
  // the decode (verified hit). Otherwise counts a miss and returns nullptr;
  // the caller decodes and calls Insert.
  const Decoded* Verify(uint32_t addr, uint64_t gen, uint32_t raw) {
    if (slots_.empty()) {
      return nullptr;
    }
    Slot& slot = slots_[Index(addr)];
    if (slot.valid && slot.addr == addr && slot.raw == raw) {
      slot.gen = gen;
      ++stats_.verified_hits;
      return &slot.d;
    }
    ++stats_.misses;
    return nullptr;
  }

  // Hot-path port (Core::StepFast): Peek-confirmed hits are counted locally
  // by the stepper and credited in bulk when it returns. Final counter values
  // match a per-cycle run; only the increment order differs, and the counters
  // are only observable at step boundaries.
  void CreditHits(uint64_t n) { stats_.hits += n; }

  void Insert(uint32_t addr, uint64_t gen, uint32_t raw, const Decoded& d) {
    if (slots_.empty()) {
      return;
    }
    Slot& slot = slots_[Index(addr)];
    slot.valid = true;
    slot.addr = addr;
    slot.raw = raw;
    slot.gen = gen;
    slot.d = d;
  }

  void InvalidateAll();

  const PredecodeStats& stats() const { return stats_; }
  void ResetStats() { stats_ = PredecodeStats{}; }
  void RegisterMetrics(MetricRegistry& registry) const;

  // Checkpoint/restore (src/snap): valid entries (sparse) and counters.
  // Decoded is rebuilt from the raw word. Restore fails if the saved entry
  // count differs from this cache's geometry (CoreConfig::predecode_entries
  // is part of the snapshot config hash).
  void SaveState(SnapWriter& w) const;
  Status RestoreState(SnapReader& r);

 private:
  // The one field list behind SaveState and RestoreState (snap/snapstream.h).
  template <typename Self, typename Io>
  static Status TransferState(Self& self, Io& io);

  struct Slot {
    bool valid = false;
    uint32_t addr = 0;
    uint32_t raw = 0;
    uint64_t gen = 0;
    Decoded d;
  };

  uint32_t Index(uint32_t addr) const { return (addr >> 2) & mask_; }

  std::vector<Slot> slots_;
  uint32_t mask_ = 0;
  PredecodeStats stats_;
};

}  // namespace msim

#endif  // MSIM_CPU_PREDECODE_H_
