// Simulated network interface.
//
// Stands in for the NIC hardware that motivates user-level interrupts (paper
// §3.4: DPDK/SPDK poll devices from user mode, burning cores; with user-level
// interrupts the device notifies the process directly). The host test/bench
// schedules packet arrivals at absolute cycle times; on arrival the device
// queues the packet and raises kIrqNic.
//
// MMIO layout (word registers):
//   +0   RX_COUNT (RO)  packets currently queued
//   +4   RX_LEN   (RO)  length in bytes of the head packet (0 if none)
//   +8   RX_POP   (RO)  reading pops and returns the next word of the head
//                       packet; after the last word the packet is dequeued
//   +12  RX_DROP  (WO)  writing drops the head packet
#ifndef MSIM_DEV_NIC_H_
#define MSIM_DEV_NIC_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "cpu/trap.h"
#include "dev/intc.h"
#include "mem/bus.h"
#include "support/result.h"

namespace msim {

class SnapWriter;
class SnapReader;

class NicDevice : public MmioDevice {
 public:
  static constexpr uint32_t kDefaultBase = 0xF0002000u;

  const char* name() const override { return "nic"; }
  uint32_t size() const override { return 0x1000; }

  uint32_t Read32(uint32_t offset) override;
  void Write32(uint32_t offset, uint32_t value) override;
  void Tick(uint64_t cycle, InterruptController& intc) override;
  uint64_t NextEventCycle(uint64_t cycle) const override;

  // Host API: deliver `payload` at absolute cycle `arrival_cycle`.
  void SchedulePacket(uint64_t arrival_cycle, std::vector<uint8_t> payload);

  uint32_t rx_queued() const { return static_cast<uint32_t>(rx_queue_.size()); }
  uint64_t packets_delivered() const { return packets_delivered_; }

  // Checkpoint/restore (src/snap): both the not-yet-arrived schedule and the
  // queued packets, so a restored run sees the same future arrivals.
  void SaveState(SnapWriter& w) const;
  Status RestoreState(SnapReader& r);

 private:
  // The one field list behind SaveState and RestoreState (snap/snapstream.h).
  template <typename Self, typename Io>
  static Status TransferState(Self& self, Io& io);

  struct Pending {
    uint64_t arrival_cycle;
    std::vector<uint8_t> payload;
  };

  void PopHead();

  std::deque<Pending> scheduled_;
  std::deque<std::vector<uint8_t>> rx_queue_;
  uint32_t head_offset_ = 0;
  uint64_t packets_delivered_ = 0;
};

}  // namespace msim

#endif  // MSIM_DEV_NIC_H_
