// Interrupt controller.
//
// Devices raise lines; the CPU samples `pending() & IENABLE` at instruction
// boundaries (never in Metal mode — mroutines are non-interruptible, paper
// §2.1) and vectors into the delegated mroutine. Handlers acknowledge lines
// through the W1C ack register.
//
// MMIO layout (word registers):
//   +0  PENDING (RO)   bitmap of raised lines
//   +4  RAISE   (WO)   set bits raise lines (software interrupts)
//   +8  ACK     (W1C)  clear raised lines
#ifndef MSIM_DEV_INTC_H_
#define MSIM_DEV_INTC_H_

#include <cstdint>

#include "mem/bus.h"
#include "snap/snapstream.h"

namespace msim {

class InterruptController : public MmioDevice {
 public:
  static constexpr uint32_t kDefaultBase = 0xF0000000u;

  const char* name() const override { return "intc"; }
  uint32_t size() const override { return 0x1000; }

  uint32_t Read32(uint32_t offset) override {
    return offset == 0 ? pending_ : 0;
  }

  void Write32(uint32_t offset, uint32_t value) override {
    if (offset == 4) {
      pending_ |= value;
    } else if (offset == 8) {
      pending_ &= ~value;
    }
  }

  void Raise(uint32_t line) { pending_ |= 1u << (line & 31); }
  void Clear(uint32_t line) { pending_ &= ~(1u << (line & 31)); }
  uint32_t pending() const { return pending_; }

  // Checkpoint/restore (src/snap).
  void SaveState(SnapWriter& w) const { TransferState(*this, w); }
  Status RestoreState(SnapReader& r) { return TransferState(*this, r); }

 private:
  // The one field list behind SaveState and RestoreState (snap/snapstream.h).
  template <typename Self, typename Io>
  static Status TransferState(Self& self, Io& io) {
    io.U32(self.pending_);
    return io.ToStatus("intc");
  }

  uint32_t pending_ = 0;
};

}  // namespace msim

#endif  // MSIM_DEV_INTC_H_
