// Software-managed TLB with address-space IDs and page keys (paper §2.3).
//
// There is no hardware page-table walker: TLB misses raise exceptions that
// the processor delegates to mroutines, which walk whatever structure the OS
// chose (paper §3.2, custom page tables). Entries carry:
//   * an ASID so multiple address spaces can coexist in the TLB,
//   * a 4-bit page key indirecting permissions through the key-permission
//     control register (fast batch permission changes), and
//   * a superpage bit (4 MiB mappings) alongside regular 4 KiB pages.
#ifndef MSIM_MMU_TLB_H_
#define MSIM_MMU_TLB_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "support/result.h"
#include "trace/metrics.h"

namespace msim {

class SnapWriter;
class SnapReader;

// PTE layout (the rs2 operand of tlbwr and the result of tlbrd):
//   [31:12] ppn    physical page number (bits [31:12] of the frame address)
//   [11:8]  key    page key
//   [7]     G      global (matches every ASID)
//   [6]     S      superpage (4 MiB; low 10 ppn bits ignored)
//   [5]     X      executable
//   [4]     W      writable
//   [3]     R      readable
//   [2:0]   reserved (written as zero)
inline constexpr uint32_t kPteR = 1u << 3;
inline constexpr uint32_t kPteW = 1u << 4;
inline constexpr uint32_t kPteX = 1u << 5;
inline constexpr uint32_t kPteSuper = 1u << 6;
inline constexpr uint32_t kPteGlobal = 1u << 7;

inline constexpr uint32_t kPageShift = 12;
inline constexpr uint32_t kPageSize = 1u << kPageShift;
inline constexpr uint32_t kSuperPageShift = 22;

// Builds a PTE word.
constexpr uint32_t MakePte(uint32_t paddr_frame, uint32_t perms, uint32_t key = 0,
                           bool global = false, bool superpage = false) {
  return (paddr_frame & 0xFFFFF000u) | ((key & 0xFu) << 8) | (global ? kPteGlobal : 0u) |
         (superpage ? kPteSuper : 0u) | (perms & (kPteR | kPteW | kPteX));
}

struct TlbEntry {
  bool valid = false;
  uint32_t vpn = 0;   // virtual page number (vaddr >> 12); superpages store vaddr >> 22
  uint16_t asid = 0;
  uint32_t pte = 0;

  bool global() const { return (pte & kPteGlobal) != 0; }
  bool superpage() const { return (pte & kPteSuper) != 0; }
  uint32_t key() const { return (pte >> 8) & 0xF; }
};

struct TlbStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
};

class Tlb {
 public:
  explicit Tlb(uint32_t num_entries = 32);

  uint32_t capacity() const { return static_cast<uint32_t>(entries_.size()); }

  // Looks up vaddr for `asid`; returns the matching entry or nullptr. Updates
  // hit/miss statistics.
  const TlbEntry* Lookup(uint32_t vaddr, uint16_t asid);

  // Side-effect-free twin of Lookup for speculative fast paths
  // (Core::StepFast): identical match, no statistics. Lookup's only mutation
  // is the hit/miss counters (replacement state moves on Insert alone), so
  // PeekLookup + CreditHits for the committed hits is exactly equivalent.
  const TlbEntry* PeekLookup(uint32_t vaddr, uint16_t asid) const;

  // Replays hit counts committed against PeekLookup-based fast paths.
  void CreditHits(uint64_t n) { stats_.hits += n; }

  // Inserts a mapping (tlbwr). Replaces an existing entry for the same page
  // if present, else uses round-robin replacement.
  void Insert(uint32_t vaddr, uint32_t pte, uint16_t asid);

  // Probe without statistics (tlbrd): PTE or 0.
  uint32_t Probe(uint32_t vaddr, uint16_t asid) const;

  // Invalidates entries mapping vaddr under `asid` (global entries included).
  void InvalidateVaddr(uint32_t vaddr, uint16_t asid);

  // Invalidates all non-global entries with the given ASID.
  void FlushAsid(uint16_t asid);

  // Invalidates everything.
  void FlushAll();

  // Fault-injection port: rewrites the indexed entry's PTE as
  // (pte & and_mask) ^ xor_mask — silently corrupting permissions, the page
  // key or the frame number. `index` wraps modulo the capacity. Only valid
  // entries are affected; returns whether one was.
  bool CorruptEntry(uint32_t index, uint32_t and_mask, uint32_t xor_mask);

  // Number of valid entries (for tests).
  uint32_t ValidCount() const;

  // Checkpoint/restore (src/snap): entries, replacement pointer and counters.
  // Restore fails if the saved capacity differs.
  void SaveState(SnapWriter& w) const;
  Status RestoreState(SnapReader& r);

  const TlbStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TlbStats{}; }

  void RegisterMetrics(MetricRegistry& registry) const {
    registry.Register("tlb", "hits", &stats_.hits);
    registry.Register("tlb", "misses", &stats_.misses);
    registry.Register("tlb", "insertions", &stats_.insertions);
  }

 private:
  // The one field list behind SaveState and RestoreState (snap/snapstream.h).
  template <typename Self, typename Io>
  static Status TransferState(Self& self, Io& io);

  bool Matches(const TlbEntry& entry, uint32_t vaddr, uint16_t asid) const;

  std::vector<TlbEntry> entries_;
  uint32_t next_victim_ = 0;
  TlbStats stats_;
};

}  // namespace msim

#endif  // MSIM_MMU_TLB_H_
