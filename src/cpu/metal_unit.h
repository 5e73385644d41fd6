// The Metal hardware unit: Metal register file, control registers, mroutine
// entry table, instruction-intercept matchers and the intercepted-operand
// latch (paper Figure 1: MRAM + MReg. + mode logic).
#ifndef MSIM_CPU_METAL_UNIT_H_
#define MSIM_CPU_METAL_UNIT_H_

#include <array>
#include <cstdint>

#include "cpu/creg.h"
#include "cpu/trap.h"
#include "isa/isa.h"
#include "support/result.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace msim {

class SnapWriter;
class SnapReader;

// One instruction-interception matcher slot. `mintset` writes these from
// Metal mode; the decode stage compares every normal-mode instruction
// against all enabled slots (paper §2.3, Instruction Interception).
struct InterceptSlot {
  bool enable = false;
  uint8_t opcode = 0;       // bits [6:0]
  uint8_t funct3 = 0;
  bool match_funct3 = false;
  uint8_t funct7 = 0;
  bool match_funct7 = false;
  uint8_t entry = 0;        // target mroutine
};

inline constexpr unsigned kNumInterceptSlots = 8;

// mintset operand encoding:
//   rs1 (match spec): [6:0] opcode, [9:7] funct3, [16:10] funct7,
//                     [24] match_funct3, [25] match_funct7, [31] enable
//   rs2 (target):     [5:0] entry, [10:8] slot index
uint32_t PackInterceptSpec(const InterceptSlot& slot);
uint32_t PackInterceptTarget(unsigned slot_index, const InterceptSlot& slot);

// Values of the intercepted instruction latched by the pipeline so that the
// handling mroutine can emulate it without decoding GPR indices itself
// (read via `mopr`, rd-writeback via `mopw`).
struct OperandLatch {
  uint32_t rs1_value = 0;
  uint32_t rs2_value = 0;
  int32_t imm = 0;
  uint8_t rd_index = 0;
  uint8_t rs1_index = 0;
  uint8_t rs2_index = 0;
  uint32_t raw = 0;
};

struct MetalUnitStats {
  uint64_t intercept_configs = 0;   // mintset writes
  uint64_t operand_latches = 0;     // committed interceptions
  uint64_t writebacks_taken = 0;    // mopw values applied at mexit
};

class MetalUnit {
 public:
  MetalUnit() { Reset(); }

  void Reset();

  // --- Metal registers (m0..m31) ---
  uint32_t ReadMreg(uint8_t index) const { return mreg_[index & 31]; }
  void WriteMreg(uint8_t index, uint32_t value) { mreg_[index & 31] = value; }

  // --- Control registers ---
  // Cycle/instret values come from the core; they are passed in on reads.
  uint32_t ReadCreg(uint32_t number, uint64_t cycle, uint64_t instret,
                    uint32_t irq_pending) const;
  void WriteCreg(uint32_t number, uint32_t value);

  // --- Entry table ---
  void SetEntryAddress(uint32_t entry, uint32_t address) {
    entry_table_[entry & (kMaxMroutines - 1)] = address;
  }
  uint32_t EntryAddress(uint32_t entry) const {
    return entry_table_[entry & (kMaxMroutines - 1)];
  }

  // --- Delegation ---
  uint32_t DelegatedEntry(ExcCause cause) const {
    return delegation_[static_cast<uint32_t>(cause) & 31];
  }
  uint32_t IrqEntry() const { return irq_entry_; }
  void Delegate(ExcCause cause, uint32_t entry) {
    delegation_[static_cast<uint32_t>(cause) & 31] = entry;
  }
  void DelegateIrq(uint32_t entry) { irq_entry_ = entry; }

  // --- Interception ---
  void ApplyMintset(uint32_t spec, uint32_t target);
  // Returns the matching slot for a raw instruction word, or nullptr.
  const InterceptSlot* MatchIntercept(uint32_t raw) const;
  bool AnyInterceptEnabled() const { return any_intercept_; }

  // --- Operand latch ---
  // Latches the operands of a committed intercepted instruction (the core
  // calls this exactly once per interception, from the EX stage).
  void LatchOperands(const OperandLatch& latch);
  const OperandLatch& operands() const { return operands_; }
  // mopw: value to write to the intercepted instruction's rd on mexit.
  void SetPendingWriteback(uint32_t value) {
    pending_writeback_valid_ = true;
    pending_writeback_ = value;
  }
  bool TakePendingWriteback(uint8_t* rd, uint32_t* value) {
    if (!pending_writeback_valid_) {
      return false;
    }
    pending_writeback_valid_ = false;
    ++stats_.writebacks_taken;
    *rd = operands_.rd_index;
    *value = pending_writeback_;
    return true;
  }

  // --- Checkpoint/restore (src/snap) ---
  void SaveState(SnapWriter& w) const;
  Status RestoreState(SnapReader& r);

  // --- Observability ---
  const MetalUnitStats& stats() const { return stats_; }
  void ResetStats() { stats_ = MetalUnitStats{}; }
  void RegisterMetrics(MetricRegistry& registry) const;
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }

  // --- Trap state (set by the core on Metal-mode entry) ---
  void SetTrapState(uint32_t cause, uint32_t epc, uint32_t badvaddr, uint32_t instr) {
    creg_[kCrMcause] = cause;
    creg_[kCrMepc] = epc;
    creg_[kCrMbadvaddr] = badvaddr;
    creg_[kCrMinstr] = instr;
  }

  // --- Machine-check state (set by the core when delivering kMachineCheck) ---
  void SetMachineCheckState(McheckKind kind, uint32_t info, uint32_t saved_m31) {
    creg_[kCrMcheckKind] = static_cast<uint32_t>(kind);
    creg_[kCrMcheckInfo] = info;
    creg_[kCrMcheckM31] = saved_m31;
  }

  uint16_t asid() const { return static_cast<uint16_t>(creg_[kCrAsid]); }
  bool paging_enabled() const { return (creg_[kCrPgEnable] & 1) != 0; }
  uint32_t keyperm() const { return creg_[kCrKeyPerm]; }
  uint32_t ienable() const { return creg_[kCrIenable]; }

 private:
  // The one field list behind SaveState and RestoreState (snap/snapstream.h).
  template <typename Self, typename Io>
  static Status TransferState(Self& self, Io& io);

  std::array<uint32_t, kNumMetalRegisters> mreg_{};
  std::array<uint32_t, kCrCount> creg_{};
  std::array<uint32_t, kMaxMroutines> entry_table_{};
  std::array<uint32_t, 32> delegation_{};
  uint32_t irq_entry_ = kNoDelegation;
  std::array<InterceptSlot, kNumInterceptSlots> intercepts_{};
  bool any_intercept_ = false;
  OperandLatch operands_{};
  bool pending_writeback_valid_ = false;
  uint32_t pending_writeback_ = 0;
  MetalUnitStats stats_;
  Tracer* tracer_ = nullptr;
};

}  // namespace msim

#endif  // MSIM_CPU_METAL_UNIT_H_
