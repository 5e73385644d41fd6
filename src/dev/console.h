// Console output device: the simulated program's stdout.
//
// MMIO layout (word registers):
//   +0  PUTC (WO)  low byte appended to the output buffer
//   +4  EXIT (WO)  convenience exit code latch (host-readable)
#ifndef MSIM_DEV_CONSOLE_H_
#define MSIM_DEV_CONSOLE_H_

#include <cstdint>
#include <string>

#include "mem/bus.h"
#include "snap/snapstream.h"

namespace msim {

class ConsoleDevice : public MmioDevice {
 public:
  static constexpr uint32_t kDefaultBase = 0xF0003000u;

  const char* name() const override { return "console"; }
  uint32_t size() const override { return 0x1000; }

  uint32_t Read32(uint32_t offset) override { return offset == 4 ? exit_code_ : 0; }

  void Write32(uint32_t offset, uint32_t value) override {
    if (offset == 0) {
      output_.push_back(static_cast<char>(value & 0xFF));
    } else if (offset == 4) {
      exit_code_ = value;
    }
  }

  const std::string& output() const { return output_; }
  void ClearOutput() { output_.clear(); }

  // Checkpoint/restore (src/snap). The output buffer is part of the image so
  // a restored run reproduces the straight run's console output verbatim.
  void SaveState(SnapWriter& w) const { TransferState(*this, w); }
  Status RestoreState(SnapReader& r) { return TransferState(*this, r); }

 private:
  // The one field list behind SaveState and RestoreState (snap/snapstream.h).
  template <typename Self, typename Io>
  static Status TransferState(Self& self, Io& io) {
    io.Str(self.output_);
    io.U32(self.exit_code_);
    return io.ToStatus("console");
  }

  std::string output_;
  uint32_t exit_code_ = 0;
};

}  // namespace msim

#endif  // MSIM_DEV_CONSOLE_H_
