#include "mem/cache.h"

#include <cassert>

#include "snap/snapstream.h"
#include "support/bits.h"

namespace msim {

Cache::Cache(uint32_t num_lines, uint32_t line_size, uint32_t hit_latency, uint32_t miss_latency)
    : num_lines_(num_lines),
      line_size_(line_size),
      hit_latency_(hit_latency),
      miss_latency_(miss_latency),
      lines_(num_lines) {
  assert(IsPowerOfTwo(num_lines) && IsPowerOfTwo(line_size));
}

uint32_t Cache::Access(uint32_t paddr) {
  Line& line = lines_[IndexOf(paddr)];
  const uint32_t tag = TagOf(paddr);
  if (line.valid && line.tag == tag) {
    ++stats_.hits;
    return hit_latency_;
  }
  ++stats_.misses;
  if (tracer_ != nullptr) {
    tracer_->Emit(miss_kind_, paddr);
  }
  line.valid = true;
  line.tag = tag;
  return miss_latency_;
}

void Cache::RegisterMetrics(MetricRegistry& registry, const std::string& component) const {
  registry.Register(component, "hits", &stats_.hits, "accesses that hit a resident line");
  registry.Register(component, "misses", &stats_.misses, "accesses that filled a line");
}

bool Cache::CorruptLine(uint32_t index, uint32_t and_mask, uint32_t xor_mask) {
  Line& line = lines_[index % num_lines_];
  if (!line.valid) {
    return false;
  }
  line.tag = (line.tag & and_mask) ^ xor_mask;
  return true;
}

void Cache::InvalidateAll() {
  for (Line& line : lines_) {
    line.valid = false;
  }
}

template <typename Self, typename Io>
Status Cache::TransferState(Self& self, Io& io) {
  uint32_t lines = self.num_lines_;
  io.U32(lines);
  MSIM_RETURN_IF_ERROR(io.ToStatus("cache header"));
  if constexpr (Io::kReading) {
    if (lines != self.num_lines_) {
      return InvalidArgument("snapshot cache geometry differs from this configuration");
    }
  }
  for (auto& line : self.lines_) {
    io.Bool(line.valid);
    io.U32(line.tag);
  }
  io.U64(self.stats_.hits);
  io.U64(self.stats_.misses);
  return io.ToStatus("cache lines");
}

void Cache::SaveState(SnapWriter& w) const { TransferState(*this, w); }

Status Cache::RestoreState(SnapReader& r) { return TransferState(*this, r); }

}  // namespace msim
