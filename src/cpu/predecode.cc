#include "cpu/predecode.h"

#include "snap/snapstream.h"
#include "support/strings.h"

namespace msim {

PredecodeCache::PredecodeCache(uint32_t entries) {
  if (entries == 0) {
    return;
  }
  // Round up to a power of two so Index() is a mask.
  uint32_t size = 1;
  while (size < entries) {
    size <<= 1;
  }
  slots_.resize(size);
  mask_ = size - 1;
}

void PredecodeCache::InvalidateAll() {
  if (slots_.empty()) {
    return;
  }
  for (Slot& slot : slots_) {
    slot.valid = false;
  }
  ++stats_.invalidations;
}

void PredecodeCache::RegisterMetrics(MetricRegistry& registry) const {
  registry.Register("predecode", "hits", &stats_.hits,
                    "fetches served from the decoded-instruction cache");
  registry.Register("predecode", "verified_hits", &stats_.verified_hits,
                    "stale-generation entries revalidated against the backing word");
  registry.Register("predecode", "misses", &stats_.misses, "fetches that ran the full decoder");
  registry.Register("predecode", "invalidations", &stats_.invalidations,
                    "whole-cache invalidations (program load, restore, icache upsets)");
}

template <typename Self, typename Io>
Status PredecodeCache::TransferState(Self& self, Io& io) {
  uint32_t size = static_cast<uint32_t>(self.slots_.size());
  io.U32(size);
  for (auto* counter : {&self.stats_.hits, &self.stats_.verified_hits, &self.stats_.misses,
                        &self.stats_.invalidations}) {
    io.U64(*counter);
  }
  uint32_t valid = 0;
  if constexpr (!Io::kReading) {
    for (const Slot& slot : self.slots_) {
      valid += slot.valid ? 1 : 0;
    }
  }
  io.U32(valid);
  MSIM_RETURN_IF_ERROR(io.ToStatus("predecode header"));
  // Only valid slots are serialized, as (addr, raw, generation).
  const auto entry = [&io](auto& slot) {
    io.U32(slot.addr);
    io.U32(slot.raw);
    io.U64(slot.gen);
  };
  if constexpr (Io::kReading) {
    if (size != self.slots_.size()) {
      return InvalidArgument(
          StrFormat("snapshot predecode geometry (%u entries) differs from this core (%u)", size,
                    static_cast<uint32_t>(self.slots_.size())));
    }
    for (Slot& slot : self.slots_) {
      slot.valid = false;
    }
    for (uint32_t i = 0; i < valid; ++i) {
      Slot slot;
      entry(slot);
      MSIM_RETURN_IF_ERROR(io.ToStatus("predecode entry"));
      slot.valid = true;
      slot.d = DecodeInstr(slot.raw);
      self.slots_[self.Index(slot.addr)] = slot;
    }
  } else {
    for (const Slot& slot : self.slots_) {
      if (slot.valid) {
        entry(slot);
      }
    }
  }
  return io.ToStatus("predecode entries");
}

void PredecodeCache::SaveState(SnapWriter& w) const { TransferState(*this, w); }

Status PredecodeCache::RestoreState(SnapReader& r) { return TransferState(*this, r); }

}  // namespace msim
