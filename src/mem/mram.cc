#include "mem/mram.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "snap/snapstream.h"
#include "support/bits.h"

namespace msim {

namespace {

uint8_t WordParity(uint32_t word) { return static_cast<uint8_t>(Popcount(word) & 1); }

}  // namespace

Mram::Mram()
    : code_(kMramCodeSize, 0),
      data_(kMramDataSize, 0),
      code_shadow_(kMramCodeSize, 0),
      data_shadow_(kMramDataSize, 0),
      code_parity_(kMramCodeSize / 4, 0),
      data_parity_(kMramDataSize / 4, 0) {}

uint32_t Mram::LoadWord(const std::vector<uint8_t>& segment, uint32_t offset) const {
  uint32_t word;
  std::memcpy(&word, &segment[offset], 4);
  return word;
}

void Mram::StoreWord(std::vector<uint8_t>& segment, uint32_t offset, uint32_t word) {
  std::memcpy(&segment[offset], &word, 4);
}

std::optional<uint32_t> Mram::FetchWord(uint32_t addr) const {
  if (!InCodeRange(addr) || (addr & 3) != 0) {
    return std::nullopt;
  }
  ++stats_.code_fetches;
  if (tracer_ != nullptr) {
    tracer_->Emit(TraceEventKind::kMramAccess, addr, /*arg0=*/0, /*arg1=*/0, /*metal=*/true);
  }
  return LoadWord(code_, addr - kMramCodeBase);
}

bool Mram::WriteCodeWord(uint32_t offset, uint32_t word) {
  if (offset + 4 > code_.size() || (offset & 3) != 0) {
    return false;
  }
  StoreWord(code_, offset, word);
  StoreWord(code_shadow_, offset, word);
  code_parity_[offset / 4] = WordParity(word);
  ++generation_;
  return true;
}

std::optional<uint32_t> Mram::ReadData32(uint32_t offset) const {
  if (offset + 4 > data_.size() || offset + 4 < offset) {
    return std::nullopt;
  }
  ++stats_.data_reads;
  if (tracer_ != nullptr) {
    tracer_->Emit(TraceEventKind::kMramAccess, offset, /*arg0=*/1, /*arg1=*/0, /*metal=*/true);
  }
  return LoadWord(data_, offset);
}

bool Mram::WriteData32(uint32_t offset, uint32_t value) {
  if (offset + 4 > data_.size() || offset + 4 < offset) {
    return false;
  }
  ++stats_.data_writes;
  if (tracer_ != nullptr) {
    tracer_->Emit(TraceEventKind::kMramAccess, offset, /*arg0=*/2, /*arg1=*/0, /*metal=*/true);
  }
  StoreWord(data_, offset, value);
  StoreWord(data_shadow_, offset, value);
  data_parity_[offset / 4] = WordParity(value);
  ++generation_;
  return true;
}

bool Mram::CodeParityError(uint32_t addr) const {
  if (!parity_enabled_ || !InCodeRange(addr) || (addr & 3) != 0) {
    return false;
  }
  const uint32_t offset = addr - kMramCodeBase;
  if (WordParity(LoadWord(code_, offset)) == code_parity_[offset / 4]) {
    return false;
  }
  ++stats_.parity_errors;
  return true;
}

bool Mram::DataParityError(uint32_t offset) const {
  if (!parity_enabled_ || offset + 4 > data_.size() || offset + 4 < offset ||
      (offset & 3) != 0) {
    return false;
  }
  if (WordParity(LoadWord(data_, offset)) == data_parity_[offset / 4]) {
    return false;
  }
  ++stats_.parity_errors;
  return true;
}

bool Mram::CorruptCodeWord(uint32_t offset, uint32_t and_mask, uint32_t xor_mask) {
  if (offset + 4 > code_.size() || (offset & 3) != 0) {
    return false;
  }
  StoreWord(code_, offset, (LoadWord(code_, offset) & and_mask) ^ xor_mask);
  ++stats_.words_corrupted;
  ++generation_;
  return true;
}

bool Mram::CorruptDataWord(uint32_t offset, uint32_t and_mask, uint32_t xor_mask) {
  if (offset + 4 > data_.size() || (offset & 3) != 0) {
    return false;
  }
  StoreWord(data_, offset, (LoadWord(data_, offset) & and_mask) ^ xor_mask);
  ++stats_.words_corrupted;
  ++generation_;
  return true;
}

uint32_t Mram::Scrub() {
  uint32_t restored = 0;
  const auto scrub_segment = [&](std::vector<uint8_t>& segment,
                                 const std::vector<uint8_t>& shadow,
                                 std::vector<uint8_t>& parity) {
    for (uint32_t offset = 0; offset + 4 <= segment.size(); offset += 4) {
      const uint32_t good = LoadWord(shadow, offset);
      if (LoadWord(segment, offset) != good) {
        StoreWord(segment, offset, good);
        ++restored;
      }
      parity[offset / 4] = WordParity(good);
    }
  };
  scrub_segment(code_, code_shadow_, code_parity_);
  scrub_segment(data_, data_shadow_, data_parity_);
  stats_.words_scrubbed += restored;
  ++generation_;
  return restored;
}

void Mram::Clear() {
  std::fill(code_.begin(), code_.end(), 0);
  std::fill(data_.begin(), data_.end(), 0);
  std::fill(code_shadow_.begin(), code_shadow_.end(), 0);
  std::fill(data_shadow_.begin(), data_shadow_.end(), 0);
  std::fill(code_parity_.begin(), code_parity_.end(), 0);
  std::fill(data_parity_.begin(), data_parity_.end(), 0);
  ++generation_;
}

void Mram::RegisterMetrics(MetricRegistry& registry) const {
  registry.Register("mram", "code_fetches", &stats_.code_fetches,
                    "instruction words read through the fetch port");
  registry.Register("mram", "data_reads", &stats_.data_reads, "mld accesses");
  registry.Register("mram", "data_writes", &stats_.data_writes, "mst accesses");
  registry.Register("mram", "parity_errors", &stats_.parity_errors,
                    "parity mismatches observed on fetch/mld");
  registry.Register("mram", "words_corrupted", &stats_.words_corrupted,
                    "words rewritten behind the write path (fault injection)");
  registry.Register("mram", "words_scrubbed", &stats_.words_scrubbed,
                    "words restored from the shadow copy by Scrub()");
}

template <typename Self, typename Io>
Status Mram::TransferState(Self& self, Io& io) {
  io.Bool(self.parity_enabled_);
  io.U64(self.generation_);
  const auto segments = {&self.code_,        &self.data_,        &self.code_shadow_,
                         &self.data_shadow_, &self.code_parity_, &self.data_parity_};
  if constexpr (Io::kReading) {
    // Read every segment before replacing any: a geometry mismatch leaves
    // the arrays as they were.
    std::array<std::vector<uint8_t>, 6> saved;
    for (std::vector<uint8_t>& bytes : saved) {
      io.Bytes(bytes);
    }
    MSIM_RETURN_IF_ERROR(io.ToStatus("mram segments"));
    auto bytes = saved.begin();
    for (const auto* segment : segments) {
      if ((bytes++)->size() != segment->size()) {
        return InvalidArgument("snapshot MRAM geometry differs from this build");
      }
    }
    bytes = saved.begin();
    for (auto* segment : segments) {
      *segment = std::move(*bytes++);
    }
  } else {
    for (const auto* segment : segments) {
      io.Bytes(*segment);
    }
  }
  auto& stats = self.stats_;
  for (auto* counter : {&stats.code_fetches, &stats.data_reads, &stats.data_writes,
                        &stats.parity_errors, &stats.words_corrupted, &stats.words_scrubbed}) {
    io.U64(*counter);
  }
  return io.ToStatus("mram stats");
}

void Mram::SaveState(SnapWriter& w) const { TransferState(*this, w); }

Status Mram::RestoreState(SnapReader& r) { return TransferState(*this, r); }

}  // namespace msim
