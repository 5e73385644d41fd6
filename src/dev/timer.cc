#include "dev/timer.h"

#include "snap/snapstream.h"

namespace msim {

uint32_t TimerDevice::Read32(uint32_t offset) {
  switch (offset) {
    case 0:
      return static_cast<uint32_t>(count_);
    case 4:
      return compare_;
    case 8:
      return enabled_ ? 1u : 0u;
    case 12:
      return interval_;
    default:
      return 0;
  }
}

void TimerDevice::Write32(uint32_t offset, uint32_t value) {
  switch (offset) {
    case 4:
      compare_ = value;
      armed_ = true;
      break;
    case 8:
      enabled_ = (value & 1) != 0;
      break;
    case 12:
      interval_ = value;
      break;
    default:
      break;
  }
}

void TimerDevice::Tick(uint64_t cycle, InterruptController& intc) {
  count_ = cycle;
  if (!enabled_ || !armed_) {
    return;
  }
  if (static_cast<uint32_t>(count_) >= compare_) {
    intc.Raise(kIrqTimer);
    if (interval_ != 0) {
      compare_ += interval_;
    } else {
      armed_ = false;
    }
  }
}

uint64_t TimerDevice::NextEventCycle(uint64_t cycle) const {
  if (!enabled_ || !armed_) {
    return kNoPendingEvent;
  }
  // Tick(c) fires when (uint32_t)c >= compare_; COUNT is the low 32 bits of
  // the cycle counter, so the next firing cycle is reached by climbing the
  // 32-bit distance from the next cycle's COUNT value to COMPARE.
  const uint32_t next_count = static_cast<uint32_t>(cycle) + 1;
  if (next_count >= compare_) {
    return cycle + 1;
  }
  return cycle + 1 + (compare_ - next_count);
}

template <typename Self, typename Io>
Status TimerDevice::TransferState(Self& self, Io& io) {
  io.U64(self.count_);
  io.U32(self.compare_);
  io.U32(self.interval_);
  io.Bool(self.enabled_);
  io.Bool(self.armed_);
  return io.ToStatus("timer");
}

void TimerDevice::SaveState(SnapWriter& w) const { TransferState(*this, w); }

Status TimerDevice::RestoreState(SnapReader& r) { return TransferState(*this, r); }

}  // namespace msim
