#include "mmu/tlb.h"

#include "snap/snapstream.h"

namespace msim {

Tlb::Tlb(uint32_t num_entries) : entries_(num_entries) {}

bool Tlb::Matches(const TlbEntry& entry, uint32_t vaddr, uint16_t asid) const {
  if (!entry.valid) {
    return false;
  }
  if (!entry.global() && entry.asid != asid) {
    return false;
  }
  const uint32_t shift = entry.superpage() ? kSuperPageShift : kPageShift;
  return entry.vpn == (vaddr >> shift);
}

const TlbEntry* Tlb::Lookup(uint32_t vaddr, uint16_t asid) {
  for (const TlbEntry& entry : entries_) {
    if (Matches(entry, vaddr, asid)) {
      ++stats_.hits;
      return &entry;
    }
  }
  ++stats_.misses;
  return nullptr;
}

const TlbEntry* Tlb::PeekLookup(uint32_t vaddr, uint16_t asid) const {
  for (const TlbEntry& entry : entries_) {
    if (Matches(entry, vaddr, asid)) {
      return &entry;
    }
  }
  return nullptr;
}

void Tlb::Insert(uint32_t vaddr, uint32_t pte, uint16_t asid) {
  const bool superpage = (pte & kPteSuper) != 0;
  const uint32_t shift = superpage ? kSuperPageShift : kPageShift;
  const uint32_t vpn = vaddr >> shift;
  ++stats_.insertions;
  // Update in place if the page is already mapped (same ASID and size).
  for (TlbEntry& entry : entries_) {
    if (entry.valid && entry.asid == asid && entry.superpage() == superpage &&
        entry.vpn == vpn) {
      entry.pte = pte;
      return;
    }
  }
  // Prefer an invalid slot; else round-robin.
  for (uint32_t i = 0; i < entries_.size(); ++i) {
    const uint32_t index = (next_victim_ + i) % entries_.size();
    if (!entries_[index].valid) {
      entries_[index] = TlbEntry{true, vpn, asid, pte};
      next_victim_ = (index + 1) % static_cast<uint32_t>(entries_.size());
      return;
    }
  }
  entries_[next_victim_] = TlbEntry{true, vpn, asid, pte};
  next_victim_ = (next_victim_ + 1) % static_cast<uint32_t>(entries_.size());
}

uint32_t Tlb::Probe(uint32_t vaddr, uint16_t asid) const {
  for (const TlbEntry& entry : entries_) {
    if (Matches(entry, vaddr, asid)) {
      return entry.pte;
    }
  }
  return 0;
}

void Tlb::InvalidateVaddr(uint32_t vaddr, uint16_t asid) {
  for (TlbEntry& entry : entries_) {
    if (Matches(entry, vaddr, asid)) {
      entry.valid = false;
    }
  }
}

void Tlb::FlushAsid(uint16_t asid) {
  for (TlbEntry& entry : entries_) {
    if (entry.valid && !entry.global() && entry.asid == asid) {
      entry.valid = false;
    }
  }
}

void Tlb::FlushAll() {
  for (TlbEntry& entry : entries_) {
    entry.valid = false;
  }
}

bool Tlb::CorruptEntry(uint32_t index, uint32_t and_mask, uint32_t xor_mask) {
  TlbEntry& entry = entries_[index % entries_.size()];
  if (!entry.valid) {
    return false;
  }
  entry.pte = (entry.pte & and_mask) ^ xor_mask;
  return true;
}

uint32_t Tlb::ValidCount() const {
  uint32_t count = 0;
  for (const TlbEntry& entry : entries_) {
    count += entry.valid ? 1 : 0;
  }
  return count;
}

template <typename Self, typename Io>
Status Tlb::TransferState(Self& self, Io& io) {
  uint32_t capacity = self.capacity();
  io.U32(capacity);
  MSIM_RETURN_IF_ERROR(io.ToStatus("tlb header"));
  if constexpr (Io::kReading) {
    if (capacity != self.capacity()) {
      return InvalidArgument("snapshot TLB capacity differs from this configuration");
    }
  }
  for (auto& entry : self.entries_) {
    io.Bool(entry.valid);
    io.U32(entry.vpn);
    io.U16(entry.asid);
    io.U32(entry.pte);
  }
  io.U32(self.next_victim_);
  io.U64(self.stats_.hits);
  io.U64(self.stats_.misses);
  io.U64(self.stats_.insertions);
  return io.ToStatus("tlb entries");
}

void Tlb::SaveState(SnapWriter& w) const { TransferState(*this, w); }

Status Tlb::RestoreState(SnapReader& r) { return TransferState(*this, r); }

}  // namespace msim
