// Record/replay of nondeterministic host inputs.
//
// The simulator itself is deterministic: given a program, a config and a
// fault seed, every run is bit-identical. What makes two runs differ is the
// HOST — tests and harnesses push inputs into the machine mid-run (NIC packet
// arrivals, STM remote commits from a simulated "other core"). ReplayLog
// intercepts exactly those inputs: the Record* helpers apply the input AND
// append it to the log, so a saved log plus the original program reproduces
// the run without any host logic ("attach the snapshot + replay log",
// docs/determinism.md).
//
// File format: "MSIMRPLY" magic, u32 version, u64 event count, then per
// event: u8 kind, u64 cycle, kind-specific payload.
#ifndef MSIM_SNAP_REPLAY_H_
#define MSIM_SNAP_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/core.h"
#include "support/result.h"

namespace msim {

class MetalSystem;
class SnapWriter;
class SnapReader;

inline constexpr uint32_t kReplayLogVersion = 1;

class ReplayLog {
 public:
  enum class Kind : uint8_t {
    kNicPacket = 1,        // cycle = arrival cycle; payload = packet bytes
    kStmRemoteCommit = 2,  // cycle = injection cycle; u32 fields below
  };

  struct Event {
    Kind kind = Kind::kNicPacket;
    uint64_t cycle = 0;
    std::vector<uint8_t> payload;  // kNicPacket
    uint32_t clock_addr = 0;       // kStmRemoteCommit...
    uint32_t vtbl_addr = 0;
    uint32_t vtbl_words = 0;
    uint32_t addr = 0;
    uint32_t value = 0;
  };

  // Applies the input to `system` and records it. SchedulePacket is
  // cycle-addressed, so recording may happen any time before arrival.
  void RecordNicPacket(MetalSystem& system, uint64_t arrival_cycle,
                       std::vector<uint8_t> payload);
  // Applies an STM remote commit at the core's CURRENT cycle and records it.
  Status RecordStmRemoteCommit(MetalSystem& system, uint32_t clock_addr,
                               uint32_t vtbl_addr, uint32_t vtbl_words,
                               uint32_t addr, uint32_t value);

  const std::vector<Event>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  // Runs `system` to completion (halt/fatal/max_cycles), re-applying every
  // recorded input at its recorded cycle. The system must be freshly booted
  // with the same program/mcode as the recorded run.
  Result<RunResult> Replay(MetalSystem& system, uint64_t max_cycles = 0);

  void Save(SnapWriter& w) const;
  Status Restore(SnapReader& r);
  Status SaveFile(const std::string& path) const;
  Status LoadFile(const std::string& path);

 private:
  // The one field list behind Save and Restore (snap/snapstream.h).
  template <typename Self, typename Io>
  static Status TransferState(Self& self, Io& io);

  std::vector<Event> events_;
};

}  // namespace msim

#endif  // MSIM_SNAP_REPLAY_H_
