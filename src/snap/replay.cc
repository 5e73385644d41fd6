#include "snap/replay.h"

#include <algorithm>

#include "ext/stm.h"
#include "metal/system.h"
#include "snap/snapshot.h"
#include "snap/snapstream.h"
#include "support/strings.h"

namespace msim {

void ReplayLog::RecordNicPacket(MetalSystem& system, uint64_t arrival_cycle,
                                std::vector<uint8_t> payload) {
  Event event;
  event.kind = Kind::kNicPacket;
  event.cycle = arrival_cycle;
  event.payload = payload;
  events_.push_back(std::move(event));
  system.core().nic().SchedulePacket(arrival_cycle, std::move(payload));
}

Status ReplayLog::RecordStmRemoteCommit(MetalSystem& system, uint32_t clock_addr,
                                        uint32_t vtbl_addr, uint32_t vtbl_words,
                                        uint32_t addr, uint32_t value) {
  MSIM_RETURN_IF_ERROR(StmExtension::InjectRemoteCommit(system.core(), clock_addr,
                                                        vtbl_addr, vtbl_words, addr, value));
  Event event;
  event.kind = Kind::kStmRemoteCommit;
  event.cycle = system.core().cycle();
  event.clock_addr = clock_addr;
  event.vtbl_addr = vtbl_addr;
  event.vtbl_words = vtbl_words;
  event.addr = addr;
  event.value = value;
  events_.push_back(event);
  return Status::Ok();
}

Result<RunResult> ReplayLog::Replay(MetalSystem& system, uint64_t max_cycles) {
  MSIM_RETURN_IF_ERROR(system.Boot());
  Core& core = system.core();
  if (max_cycles == 0) {
    max_cycles = core.config().default_max_cycles;
  }
  const uint64_t start_cycle = core.cycle();

  // NIC arrivals are cycle-addressed at the device, so the whole schedule can
  // be installed up front; only synchronous injections need stepped replay.
  std::vector<const Event*> synchronous;
  for (const Event& event : events_) {
    if (event.kind == Kind::kNicPacket) {
      core.nic().SchedulePacket(event.cycle, event.payload);
    } else {
      synchronous.push_back(&event);
    }
  }
  std::stable_sort(synchronous.begin(), synchronous.end(),
                   [](const Event* a, const Event* b) { return a->cycle < b->cycle; });

  RunResult result;
  for (const Event* event : synchronous) {
    if (core.halted() || core.has_fatal()) {
      break;
    }
    if (event->cycle > core.cycle()) {
      const uint64_t budget = max_cycles - (core.cycle() - start_cycle);
      const uint64_t need = std::min(event->cycle - core.cycle(), budget);
      if (need == 0) {
        break;
      }
      result = core.Run(need);
    }
    if (core.cycle() != event->cycle || core.halted() || core.has_fatal()) {
      // The machine halted (or hit the budget) before the injection point;
      // replay the remainder without it, like the recorded run would have.
      continue;
    }
    MSIM_RETURN_IF_ERROR(StmExtension::InjectRemoteCommit(
        core, event->clock_addr, event->vtbl_addr, event->vtbl_words, event->addr,
        event->value));
  }
  if (!core.halted() && !core.has_fatal() && core.cycle() - start_cycle < max_cycles) {
    result = core.Run(max_cycles - (core.cycle() - start_cycle));
  }
  // Rebuild the summary from core state so it is correct even when the last
  // Run() call above was skipped (e.g. machine halted before any injection).
  result.cycles = core.cycle() - start_cycle;
  result.instret = core.stats().instret;
  result.exit_code = core.exit_code();
  if (core.has_fatal()) {
    result.reason = RunResult::Reason::kFatal;
    result.fatal_message = core.fatal_status().message();
  } else if (core.halted()) {
    result.reason = RunResult::Reason::kHalted;
  } else {
    result.reason = RunResult::Reason::kCycleLimit;
  }
  return result;
}

template <typename Self, typename Io>
Status ReplayLog::TransferState(Self& self, Io& io) {
  for (const char c : {'M', 'S', 'I', 'M', 'R', 'P', 'L', 'Y'}) {
    uint8_t byte = static_cast<uint8_t>(c);
    io.U8(byte);
    if (byte != static_cast<uint8_t>(c)) {
      return FailedPrecondition("not an msim replay log (bad magic)");
    }
  }
  uint32_t version = kReplayLogVersion;
  io.U32(version);
  MSIM_RETURN_IF_ERROR(io.ToStatus("replay log header"));
  if (version != kReplayLogVersion) {
    return FailedPrecondition(StrFormat("replay log version %u not supported (expected %u)",
                                        version, kReplayLogVersion));
  }
  uint64_t count = self.events_.size();
  io.U64(count);
  MSIM_RETURN_IF_ERROR(io.ToStatus("replay log event count"));
  if constexpr (Io::kReading) {
    self.events_.clear();
  }
  for (uint64_t i = 0; i < count; ++i) {
    if constexpr (Io::kReading) {
      self.events_.emplace_back();
    }
    auto& event = self.events_[i];
    io.U8As(event.kind);
    io.U64(event.cycle);
    switch (event.kind) {
      case Kind::kNicPacket:
        io.Bytes(event.payload);
        break;
      case Kind::kStmRemoteCommit:
        io.U32(event.clock_addr);
        io.U32(event.vtbl_addr);
        io.U32(event.vtbl_words);
        io.U32(event.addr);
        io.U32(event.value);
        break;
      default:
        return InvalidArgument(StrFormat("replay log event %llu has unknown kind %u",
                                         static_cast<unsigned long long>(i),
                                         static_cast<unsigned>(event.kind)));
    }
    MSIM_RETURN_IF_ERROR(io.ToStatus("replay log event"));
  }
  return Status::Ok();
}

void ReplayLog::Save(SnapWriter& w) const { TransferState(*this, w); }

Status ReplayLog::Restore(SnapReader& r) { return TransferState(*this, r); }

Status ReplayLog::SaveFile(const std::string& path) const {
  SnapWriter w;
  Save(w);
  return WriteFileBytes(path, w.bytes());
}

Status ReplayLog::LoadFile(const std::string& path) {
  MSIM_ASSIGN_OR_RETURN(const std::vector<uint8_t> bytes, ReadFileBytes(path));
  SnapReader r(bytes);
  return Restore(r);
}

}  // namespace msim
