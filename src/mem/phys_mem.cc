#include "mem/phys_mem.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>

#include "snap/snapstream.h"
#include "support/strings.h"

namespace msim {

namespace {

// True when all `length` bytes at `data` are zero (length > 0): the first
// byte is zero and every byte equals its successor.
bool AllZero(const uint8_t* data, uint32_t length) {
  return data[0] == 0 && std::memcmp(data, data + 1, length - 1) == 0;
}

}  // namespace

PhysicalMemory::PhysicalMemory(uint32_t size_bytes)
    : size_(size_bytes),
      dirty_((((uint64_t{size_bytes} + kPageSize - 1) >> kPageShift) + 63) / 64, 0) {
  if (size_ == 0) {
    return;
  }
  // Not calloc: once glibc's dynamic mmap threshold rises past the DRAM size,
  // calloc serves the next machine from the heap and memsets all of it.
  void* mapping =
      mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapping == MAP_FAILED) {
    throw std::bad_alloc();
  }
  bytes_ = static_cast<uint8_t*>(mapping);
}

PhysicalMemory::~PhysicalMemory() {
  if (bytes_ != nullptr) {
    munmap(bytes_, size_);
  }
}

std::optional<uint32_t> PhysicalMemory::Read32(uint32_t paddr) const {
  if (paddr + 4 > size_ || paddr + 4 < paddr) {
    return std::nullopt;
  }
  uint32_t value;
  std::memcpy(&value, &bytes_[paddr], 4);
  return value;
}

std::optional<uint16_t> PhysicalMemory::Read16(uint32_t paddr) const {
  if (paddr + 2 > size_ || paddr + 2 < paddr) {
    return std::nullopt;
  }
  uint16_t value;
  std::memcpy(&value, &bytes_[paddr], 2);
  return value;
}

std::optional<uint8_t> PhysicalMemory::Read8(uint32_t paddr) const {
  if (paddr >= size_) {
    return std::nullopt;
  }
  return bytes_[paddr];
}

bool PhysicalMemory::Write32(uint32_t paddr, uint32_t value) {
  if (paddr + 4 > size_ || paddr + 4 < paddr) {
    return false;
  }
  std::memcpy(&bytes_[paddr], &value, 4);
  MarkPage(paddr);
  MarkPage(paddr + 3);
  ++write_generation_;
  return true;
}

bool PhysicalMemory::Write16(uint32_t paddr, uint16_t value) {
  if (paddr + 2 > size_ || paddr + 2 < paddr) {
    return false;
  }
  std::memcpy(&bytes_[paddr], &value, 2);
  MarkPage(paddr);
  MarkPage(paddr + 1);
  ++write_generation_;
  return true;
}

bool PhysicalMemory::Write8(uint32_t paddr, uint8_t value) {
  if (paddr >= size_) {
    return false;
  }
  bytes_[paddr] = value;
  MarkPage(paddr);
  ++write_generation_;
  return true;
}

Status PhysicalMemory::LoadSection(const Section& section) {
  if (section.bytes.empty()) {
    return Status::Ok();
  }
  if (section.base + section.bytes.size() > size_ ||
      section.base + section.bytes.size() < section.base) {
    return OutOfRange(StrFormat("section [0x%08x, 0x%08x) does not fit in %u bytes of memory",
                                section.base, section.end(), size()));
  }
  std::memcpy(bytes_ + section.base, section.bytes.data(), section.bytes.size());
  MarkDirty(section.base, static_cast<uint32_t>(section.bytes.size()));
  ++write_generation_;
  return Status::Ok();
}

void PhysicalMemory::MarkDirty(uint32_t begin, uint32_t length) {
  for (uint32_t page = begin >> kPageShift; page <= (begin + length - 1) >> kPageShift; ++page) {
    MarkPage(page << kPageShift);
  }
}

template <typename Fn>
void PhysicalMemory::ForEachDirtyPage(Fn&& fn) const {
  for (size_t word = 0; word < dirty_.size(); ++word) {
    for (uint64_t bits = dirty_[word]; bits != 0; bits &= bits - 1) {
      const uint32_t page = static_cast<uint32_t>(word * 64 + __builtin_ctzll(bits));
      const uint32_t begin = page << kPageShift;
      fn(page, begin, std::min(kPageSize, size_ - begin));
    }
  }
}

void PhysicalMemory::Clear() {
  ForEachDirtyPage([this](uint32_t, uint32_t begin, uint32_t length) {
    std::memset(bytes_ + begin, 0, length);
  });
  std::fill(dirty_.begin(), dirty_.end(), 0);
  ++write_generation_;
}

void PhysicalMemory::SaveState(SnapWriter& w) const {
  // Only dirty pages can hold a non-zero byte; of those, the all-zero ones
  // are left out exactly as a full scan would leave them out.
  std::vector<uint32_t> live;
  ForEachDirtyPage([&](uint32_t page, uint32_t begin, uint32_t length) {
    if (!AllZero(bytes_ + begin, length)) {
      live.push_back(page);
    }
  });
  w.U32(size());
  w.U64(write_generation_);
  w.U32(kPageSize);
  w.U32(static_cast<uint32_t>(live.size()));
  for (const uint32_t page : live) {
    const uint32_t begin = page << kPageShift;
    w.U32(page);
    w.Bytes(bytes_ + begin, std::min(kPageSize, size_ - begin));
  }
}

Status PhysicalMemory::RestoreState(SnapReader& r) {
  const uint32_t saved_size = r.U32();
  const uint64_t saved_generation = r.U64();
  const uint32_t page_size = r.U32();
  const uint32_t live_pages = r.U32();
  MSIM_RETURN_IF_ERROR(r.ToStatus("dram header"));
  if (saved_size != size()) {
    return InvalidArgument(StrFormat("snapshot DRAM size %u differs from configured size %u",
                                     saved_size, size()));
  }
  if (page_size != kPageSize) {
    return InvalidArgument(StrFormat("snapshot DRAM page size %u unsupported", page_size));
  }
  Clear();
  for (uint32_t i = 0; i < live_pages; ++i) {
    const uint32_t page = r.U32();
    const std::vector<uint8_t> contents = r.Bytes();
    MSIM_RETURN_IF_ERROR(r.ToStatus("dram page"));
    const uint64_t begin = static_cast<uint64_t>(page) * kPageSize;
    if (begin + contents.size() > size()) {
      return InvalidArgument(StrFormat("snapshot DRAM page %u out of range", page));
    }
    if (!contents.empty()) {
      std::memcpy(bytes_ + begin, contents.data(), contents.size());
      MarkDirty(static_cast<uint32_t>(begin), static_cast<uint32_t>(contents.size()));
    }
  }
  // Last: Clear() above bumps the generation, and a restored machine must
  // report exactly the saved value or the re-serialized state diverges.
  write_generation_ = saved_generation;
  return Status::Ok();
}

}  // namespace msim
