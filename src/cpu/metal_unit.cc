#include "cpu/metal_unit.h"

#include "snap/snapstream.h"
#include "support/bits.h"

namespace msim {

uint32_t PackInterceptSpec(const InterceptSlot& slot) {
  uint32_t spec = slot.opcode & 0x7Fu;
  spec |= static_cast<uint32_t>(slot.funct3 & 7u) << 7;
  spec |= static_cast<uint32_t>(slot.funct7 & 0x7Fu) << 10;
  if (slot.match_funct3) {
    spec |= 1u << 24;
  }
  if (slot.match_funct7) {
    spec |= 1u << 25;
  }
  if (slot.enable) {
    spec |= 1u << 31;
  }
  return spec;
}

uint32_t PackInterceptTarget(unsigned slot_index, const InterceptSlot& slot) {
  return (slot.entry & 0x3Fu) | (static_cast<uint32_t>(slot_index & 7u) << 8);
}

void MetalUnit::Reset() {
  mreg_.fill(0);
  creg_.fill(0);
  creg_[kCrKeyPerm] = 0xFFFFFFFFu;  // all keys permissive until configured
  entry_table_.fill(0);
  delegation_.fill(kNoDelegation);
  irq_entry_ = kNoDelegation;
  intercepts_ = {};
  any_intercept_ = false;
  operands_ = {};
  pending_writeback_valid_ = false;
  pending_writeback_ = 0;
}

uint32_t MetalUnit::ReadCreg(uint32_t number, uint64_t cycle, uint64_t instret,
                             uint32_t irq_pending) const {
  switch (number) {
    case kCrIpend:
      return irq_pending;
    case kCrCycle:
      return static_cast<uint32_t>(cycle);
    case kCrCycleH:
      return static_cast<uint32_t>(cycle >> 32);
    case kCrInstret:
      return static_cast<uint32_t>(instret);
    case kCrIrqEntry:
      return irq_entry_;
    default:
      break;
  }
  if (number >= kCrDelegBase && number <= kCrDelegEnd) {
    return delegation_[number - kCrDelegBase];
  }
  if (number < kCrCount) {
    return creg_[number];
  }
  return 0;
}

void MetalUnit::WriteCreg(uint32_t number, uint32_t value) {
  switch (number) {
    case kCrIpend:
    case kCrCycle:
    case kCrCycleH:
    case kCrInstret:
      return;  // read-only
    case kCrIrqEntry:
      irq_entry_ = value;
      return;
    default:
      break;
  }
  if (number >= kCrDelegBase && number <= kCrDelegEnd) {
    delegation_[number - kCrDelegBase] = value;
    return;
  }
  if (number < kCrCount) {
    creg_[number] = value;
  }
}

void MetalUnit::LatchOperands(const OperandLatch& latch) {
  operands_ = latch;
  ++stats_.operand_latches;
  if (tracer_ != nullptr) {
    tracer_->Emit(TraceEventKind::kIntercept, /*pc=*/0, latch.raw, latch.rd_index);
  }
}

void MetalUnit::RegisterMetrics(MetricRegistry& registry) const {
  registry.Register("metal", "intercept_configs", &stats_.intercept_configs,
                    "mintset slot writes");
  registry.Register("metal", "operand_latches", &stats_.operand_latches,
                    "committed instruction interceptions");
  registry.Register("metal", "writebacks_taken", &stats_.writebacks_taken,
                    "mopw writebacks applied at mexit");
}

void MetalUnit::ApplyMintset(uint32_t spec, uint32_t target) {
  ++stats_.intercept_configs;
  const unsigned index = (target >> 8) & (kNumInterceptSlots - 1);
  InterceptSlot& slot = intercepts_[index];
  slot.opcode = static_cast<uint8_t>(spec & 0x7F);
  slot.funct3 = static_cast<uint8_t>((spec >> 7) & 7);
  slot.funct7 = static_cast<uint8_t>((spec >> 10) & 0x7F);
  slot.match_funct3 = Bit(spec, 24) != 0;
  slot.match_funct7 = Bit(spec, 25) != 0;
  slot.enable = Bit(spec, 31) != 0;
  slot.entry = static_cast<uint8_t>(target & 0x3F);
  any_intercept_ = false;
  for (const InterceptSlot& s : intercepts_) {
    any_intercept_ = any_intercept_ || s.enable;
  }
}

const InterceptSlot* MetalUnit::MatchIntercept(uint32_t raw) const {
  if (!any_intercept_) {
    return nullptr;
  }
  const uint32_t opcode = raw & 0x7F;
  const uint32_t funct3 = (raw >> 12) & 7;
  const uint32_t funct7 = (raw >> 25) & 0x7F;
  for (const InterceptSlot& slot : intercepts_) {
    if (!slot.enable || slot.opcode != opcode) {
      continue;
    }
    if (slot.match_funct3 && slot.funct3 != funct3) {
      continue;
    }
    if (slot.match_funct7 && slot.funct7 != funct7) {
      continue;
    }
    return &slot;
  }
  return nullptr;
}

template <typename Self, typename Io>
Status MetalUnit::TransferState(Self& self, Io& io) {
  const auto words = [&io](auto& table) {
    for (auto& value : table) {
      io.U32(value);
    }
  };
  words(self.mreg_);
  words(self.creg_);
  words(self.entry_table_);
  words(self.delegation_);
  io.U32(self.irq_entry_);
  for (auto& slot : self.intercepts_) {
    io.Bool(slot.enable);
    io.U8(slot.opcode);
    io.U8(slot.funct3);
    io.Bool(slot.match_funct3);
    io.U8(slot.funct7);
    io.Bool(slot.match_funct7);
    io.U8(slot.entry);
  }
  io.Bool(self.any_intercept_);
  auto& operands = self.operands_;
  io.U32(operands.rs1_value);
  io.U32(operands.rs2_value);
  io.U32As(operands.imm);
  io.U8(operands.rd_index);
  io.U8(operands.rs1_index);
  io.U8(operands.rs2_index);
  io.U32(operands.raw);
  io.Bool(self.pending_writeback_valid_);
  io.U32(self.pending_writeback_);
  io.U64(self.stats_.intercept_configs);
  io.U64(self.stats_.operand_latches);
  io.U64(self.stats_.writebacks_taken);
  return io.ToStatus("metal unit");
}

void MetalUnit::SaveState(SnapWriter& w) const { TransferState(*this, w); }

Status MetalUnit::RestoreState(SnapReader& r) { return TransferState(*this, r); }

}  // namespace msim
