#include "dev/nic.h"

#include <algorithm>

#include "snap/snapstream.h"

namespace msim {

uint32_t NicDevice::Read32(uint32_t offset) {
  switch (offset) {
    case 0:
      return rx_queued();
    case 4:
      return rx_queue_.empty() ? 0 : static_cast<uint32_t>(rx_queue_.front().size());
    case 8: {
      if (rx_queue_.empty()) {
        return 0;
      }
      const std::vector<uint8_t>& head = rx_queue_.front();
      uint32_t word = 0;
      for (unsigned i = 0; i < 4 && head_offset_ + i < head.size(); ++i) {
        word |= static_cast<uint32_t>(head[head_offset_ + i]) << (8 * i);
      }
      head_offset_ += 4;
      if (head_offset_ >= head.size()) {
        PopHead();
      }
      return word;
    }
    default:
      return 0;
  }
}

void NicDevice::Write32(uint32_t offset, uint32_t value) {
  (void)value;
  if (offset == 12 && !rx_queue_.empty()) {
    PopHead();
  }
}

void NicDevice::Tick(uint64_t cycle, InterruptController& intc) {
  while (!scheduled_.empty() && scheduled_.front().arrival_cycle <= cycle) {
    rx_queue_.push_back(std::move(scheduled_.front().payload));
    scheduled_.pop_front();
    ++packets_delivered_;
    intc.Raise(kIrqNic);
  }
}

void NicDevice::SchedulePacket(uint64_t arrival_cycle, std::vector<uint8_t> payload) {
  scheduled_.push_back({arrival_cycle, std::move(payload)});
  std::sort(scheduled_.begin(), scheduled_.end(),
            [](const Pending& a, const Pending& b) { return a.arrival_cycle < b.arrival_cycle; });
}

void NicDevice::PopHead() {
  rx_queue_.pop_front();
  head_offset_ = 0;
}

uint64_t NicDevice::NextEventCycle(uint64_t cycle) const {
  if (scheduled_.empty()) {
    return kNoPendingEvent;
  }
  // scheduled_ is kept sorted by arrival; anything already due is delivered
  // by the next Tick.
  return std::max(cycle + 1, scheduled_.front().arrival_cycle);
}

template <typename Self, typename Io>
Status NicDevice::TransferState(Self& self, Io& io) {
  if constexpr (Io::kReading) {
    self.scheduled_.clear();
    self.rx_queue_.clear();
  }
  // Counts first, then entries one by one: a truncated count cannot make a
  // restore allocate past the payload.
  uint64_t num_scheduled = self.scheduled_.size();
  io.U64(num_scheduled);
  MSIM_RETURN_IF_ERROR(io.ToStatus("nic schedule"));
  for (uint64_t i = 0; i < num_scheduled; ++i) {
    if constexpr (Io::kReading) {
      self.scheduled_.emplace_back();
    }
    auto& pending = self.scheduled_[i];
    io.U64(pending.arrival_cycle);
    io.Bytes(pending.payload);
    MSIM_RETURN_IF_ERROR(io.ToStatus("nic scheduled packet"));
  }
  uint64_t num_queued = self.rx_queue_.size();
  io.U64(num_queued);
  MSIM_RETURN_IF_ERROR(io.ToStatus("nic rx queue"));
  for (uint64_t i = 0; i < num_queued; ++i) {
    if constexpr (Io::kReading) {
      self.rx_queue_.emplace_back();
    }
    io.Bytes(self.rx_queue_[i]);
    MSIM_RETURN_IF_ERROR(io.ToStatus("nic rx packet"));
  }
  io.U32(self.head_offset_);
  io.U64(self.packets_delivered_);
  return io.ToStatus("nic");
}

void NicDevice::SaveState(SnapWriter& w) const { TransferState(*this, w); }

Status NicDevice::RestoreState(SnapReader& r) { return TransferState(*this, r); }

}  // namespace msim
