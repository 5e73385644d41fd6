// Deterministic fault injection (docs/robustness.md).
//
// A FaultEngine owns a list of parsed fault specs and a seeded RNG
// (support/rng.h). The core calls Tick() at the top of every StepCycle; specs
// whose trigger matches rewrite processor state as (word & and_mask) ^
// xor_mask — bit flips or stuck-at bits in MRAM words, Metal registers, TLB
// entries, cache tags or the next bus response. Because every random choice
// (probabilistic triggers, unpinned locations and bits) draws from the one
// seeded generator in spec order, a given program + seed + spec list replays
// the exact same upsets on every run.
//
// Spec grammar (CLI: `msim run --inject SPEC`, repeatable):
//
//   SPEC    := TARGET '@' TRIGGER [':' PARAM (',' PARAM)*]
//   TARGET  := mram-code | mram-data | mreg | tlb | icache | dcache | bus
//   TRIGGER := CYCLE        one-shot, fires at the first cycle >= CYCLE
//            | '~' N        probabilistic, 1/N chance every cycle
//   PARAM   := bit=N        corrupt bit N (repeatable; bits accumulate)
//            | mask=X       corrupt the bits set in X
//            | at=N         location: MRAM byte offset / mreg index /
//                           TLB-entry or cache-line index (ignored for bus)
//            | stuck=0|1    stuck-at instead of the default bit flip
//
// Unpinned locations and an empty bit set are chosen uniformly by the RNG at
// application time (one random word, one random bit).
#ifndef MSIM_FAULT_FAULT_H_
#define MSIM_FAULT_FAULT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/result.h"
#include "support/rng.h"
#include "trace/metrics.h"

namespace msim {

class Core;
class SnapWriter;
class SnapReader;
struct CoreConfig;

enum class FaultTarget : uint32_t {
  kMramCode = 0,  // MRAM code words (detected by fetch parity)
  kMramData = 1,  // MRAM data words (detected by mld parity)
  kMreg = 2,      // Metal registers m0..m31 (silent)
  kTlb = 3,       // TLB entry PTEs (silent; surfaces as wrong translations)
  kICache = 4,    // I-cache tags (timing-only)
  kDCache = 5,    // D-cache tags (timing-only)
  kBus = 6,       // next completed load's response (silent)
};

const char* FaultTargetName(FaultTarget target);

// How the corruption mask is applied to the victim word.
enum class FaultMode : uint32_t {
  kFlip = 0,    // word ^ mask
  kStuck0 = 1,  // word & ~mask
  kStuck1 = 2,  // (word & ~mask) | mask
};

struct FaultSpec {
  FaultTarget target = FaultTarget::kMramCode;
  bool probabilistic = false;
  uint64_t cycle = 0;   // one-shot: fires at the first Tick with cycle >= this
  uint64_t period = 1;  // probabilistic: 1/period chance per cycle
  bool has_at = false;
  uint32_t at = 0;      // location (see grammar); random when !has_at
  uint32_t mask = 0;    // bits to corrupt; a random single bit when zero
  FaultMode mode = FaultMode::kFlip;
  std::string text;     // the original spec, for diagnostics
};

// Parses one spec string; the error message names the offending piece.
Result<FaultSpec> ParseFaultSpec(std::string_view text);

// Number of distinct injectable locations the target exposes under `config`:
// MRAM words, Metal registers, TLB entries or cache lines (1 for bus, which
// has no location). This is the sampling universe for campaign fault spaces
// and the bound behind `at=` validation.
uint32_t FaultTargetCapacity(FaultTarget target, const CoreConfig& config);

// Strict semantic validation of a parsed spec against a concrete machine:
// pinned locations must exist (MRAM byte offsets inside the array, mreg
// index 0..31, TLB/cache indices below capacity, no at= for bus) and a
// one-shot trigger cycle must be reachable within `max_cycles` (0 = no
// budget). ParseFaultSpec alone accepts these because it cannot know the
// machine; the CLI calls this afterwards so typos exit 2 with a pointed
// message instead of silently never firing.
Status ValidateFaultSpec(const FaultSpec& spec, const CoreConfig& config,
                         uint64_t max_cycles);

// Human-readable grammar + per-target table of valid ranges and detection
// story for `msim run --list-fault-targets`.
std::string DescribeFaultTargets(const CoreConfig& config);

class FaultEngine {
 public:
  explicit FaultEngine(uint64_t seed) : rng_(seed) {}

  // Parses and appends a spec.
  Status AddSpec(std::string_view text);
  void AddSpec(const FaultSpec& spec);

  // Runs every spec's trigger for the core's current cycle and applies the
  // matching ones. Called by Core::StepCycle when attached.
  void Tick(Core& core);

  size_t num_specs() const { return specs_.size(); }
  uint64_t injections() const { return injections_; }

  // Checkpoint/restore (src/snap): the RNG stream position, one-shot fired
  // flags and the injection counter. Specs themselves are configuration (they
  // come from the CLI), so restore only validates that the attached engine
  // has the same number of specs as the one that was saved.
  void SaveState(SnapWriter& w) const;
  Status RestoreState(SnapReader& r);
  void RegisterMetrics(MetricRegistry& registry) const {
    registry.Register("fault", "injections", &injections_,
                      "fault-spec applications (trace kind fault_inject)");
  }

 private:
  // The one field list behind SaveState and RestoreState (snap/snapstream.h).
  template <typename Self, typename Io>
  static Status TransferState(Self& self, Io& io);

  void Apply(Core& core, const FaultSpec& spec);

  Rng rng_;
  std::vector<FaultSpec> specs_;
  std::vector<bool> fired_;  // parallel to specs_; one-shots already applied
  uint64_t injections_ = 0;
};

}  // namespace msim

#endif  // MSIM_FAULT_FAULT_H_
