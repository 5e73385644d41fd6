// Flat physical memory (the simulated DRAM).
#ifndef MSIM_MEM_PHYS_MEM_H_
#define MSIM_MEM_PHYS_MEM_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "asm/program.h"
#include "support/result.h"

namespace msim {

class SnapWriter;
class SnapReader;

// The backing store is an anonymous private mapping the kernel zero-fills on
// first touch, so constructing a machine costs O(1) in its DRAM size. A
// host-only bitmap records every 4 KiB page a write path has touched; its
// invariant is that a page whose bit is clear holds only zeros. SaveState
// (and so Core::StateDigest with DRAM) and Clear visit only the marked pages,
// so they cost O(pages written), not O(DRAM size). The bitmap is not
// architectural state: it is never serialized or digested.
class PhysicalMemory {
 public:
  static constexpr uint32_t kPageShift = 12;
  static constexpr uint32_t kPageSize = 1u << kPageShift;  // snapshot page granule

  explicit PhysicalMemory(uint32_t size_bytes);
  ~PhysicalMemory();
  // The object owns its mapping; a copy would alias or double-unmap it.
  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  uint32_t size() const { return size_; }

  // Aligned accessors; nullopt/false on out-of-range. Alignment is checked by
  // the CPU core before these are called, but misaligned addresses are still
  // handled correctly (byte-assembled little-endian).
  std::optional<uint32_t> Read32(uint32_t paddr) const;
  std::optional<uint16_t> Read16(uint32_t paddr) const;
  std::optional<uint8_t> Read8(uint32_t paddr) const;
  bool Write32(uint32_t paddr, uint32_t value);
  bool Write16(uint32_t paddr, uint16_t value);
  bool Write8(uint32_t paddr, uint8_t value);

  // Copies a program section into memory. Fails if it does not fit.
  Status LoadSection(const Section& section);

  // Zeroes all of memory (only the pages marked dirty need it).
  void Clear();

  // Monotonic mutation counter: bumped by every successful write, section
  // load, Clear and RestoreState. The predecode cache (src/cpu/predecode.h)
  // keys decoded DRAM words on this, so any write path — pipeline stores,
  // the loader, host-side pokes through Bus — implicitly invalidates stale
  // decodes without a snoop port.
  uint64_t write_generation() const { return write_generation_; }

  // Checkpoint/restore (src/snap). The image is sparse and page-granular:
  // only pages containing a non-zero byte are written, so a 16 MiB DRAM with
  // a small program serializes to a few KiB. A dirty page that is all zeros
  // again is left out too, so the bytes do not depend on the bitmap. Restore
  // zeroes everything first; it fails if the saved size differs from this
  // memory's size.
  void SaveState(SnapWriter& w) const;
  Status RestoreState(SnapReader& r);

 private:
  // Marks the page holding `paddr`. Writes mark their first and last byte's
  // pages, so a misaligned access that straddles a boundary marks both.
  void MarkPage(uint32_t paddr) {
    const uint32_t page = paddr >> kPageShift;
    dirty_[page / 64] |= uint64_t{1} << (page % 64);
  }
  // Marks every page that overlaps bytes [begin, begin + length), length > 0.
  void MarkDirty(uint32_t begin, uint32_t length);
  // Calls fn(page index, first byte, length in bytes) for each dirty page in
  // ascending order; the last page may be short.
  template <typename Fn>
  void ForEachDirtyPage(Fn&& fn) const;

  uint8_t* bytes_ = nullptr;
  uint32_t size_ = 0;
  std::vector<uint64_t> dirty_;  // bit p of word p/64: page p may be non-zero
  uint64_t write_generation_ = 0;
};

}  // namespace msim

#endif  // MSIM_MEM_PHYS_MEM_H_
