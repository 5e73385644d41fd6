// Programmable cycle timer raising kIrqTimer.
//
// MMIO layout (word registers):
//   +0  COUNT   (RO)  cycles since reset (low 32 bits)
//   +4  COMPARE (RW)  raise the interrupt when COUNT >= COMPARE
//   +8  CTRL    (RW)  bit0 = enable; writing COMPARE re-arms
//   +12 INTERVAL(RW)  if non-zero, periodic: COMPARE += INTERVAL on fire
#ifndef MSIM_DEV_TIMER_H_
#define MSIM_DEV_TIMER_H_

#include <cstdint>

#include "cpu/trap.h"
#include "dev/intc.h"
#include "mem/bus.h"
#include "support/result.h"

namespace msim {

class SnapWriter;
class SnapReader;

class TimerDevice : public MmioDevice {
 public:
  static constexpr uint32_t kDefaultBase = 0xF0001000u;

  const char* name() const override { return "timer"; }
  uint32_t size() const override { return 0x1000; }

  uint32_t Read32(uint32_t offset) override;
  void Write32(uint32_t offset, uint32_t value) override;
  void Tick(uint64_t cycle, InterruptController& intc) override;
  uint64_t NextEventCycle(uint64_t cycle) const override;

  // Checkpoint/restore (src/snap).
  void SaveState(SnapWriter& w) const;
  Status RestoreState(SnapReader& r);

 private:
  // The one field list behind SaveState and RestoreState (snap/snapstream.h).
  template <typename Self, typename Io>
  static Status TransferState(Self& self, Io& io);

  uint64_t count_ = 0;
  uint32_t compare_ = 0;
  uint32_t interval_ = 0;
  bool enabled_ = false;
  bool armed_ = false;
};

}  // namespace msim

#endif  // MSIM_DEV_TIMER_H_
