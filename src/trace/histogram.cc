#include "trace/histogram.h"

#include <algorithm>
#include <cmath>

#include "snap/snapstream.h"
#include "trace/json.h"

namespace msim {

size_t Histogram::BucketIndex(uint64_t value) {
  if (value == 0) {
    return 0;
  }
  // floor(log2(value)) + 1: value 1 -> bucket 1, [2,3] -> 2, [4,7] -> 3, ...
  return static_cast<size_t>(64 - __builtin_clzll(value));
}

uint64_t Histogram::BucketLow(size_t index) {
  if (index == 0) {
    return 0;
  }
  return 1ull << (index - 1);
}

uint64_t Histogram::BucketHigh(size_t index) {
  if (index == 0) {
    return 0;
  }
  if (index >= 64) {
    return ~0ull;
  }
  return (1ull << index) - 1;
}

void Histogram::Record(uint64_t value) {
  ++buckets_[BucketIndex(value)];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::Reset() { *this = Histogram(); }

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) {
    return;
  }
  for (size_t b = 0; b < kNumBuckets; ++b) {
    buckets_[b] += other.buckets_[b];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0.0;  // every percentile of an empty histogram, p = 0/100 included
  }
  // The 0th percentile is the minimum by definition; the rank formula below
  // would instead interpolate INTO the lowest occupied bucket (rank is
  // clamped to 1). NaN lands here too: !(NaN > 0) — any comparison-based
  // clamp would otherwise turn it into an arbitrary in-range rank.
  if (!(p > 0.0)) {
    return static_cast<double>(min_);
  }
  if (p >= 100.0) {
    return static_cast<double>(max_);
  }
  // Rank of the target sample, 1-based; p is strictly inside (0, 100) here.
  const uint64_t target =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(p / 100.0 * count_)));
  uint64_t seen = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    if (buckets_[b] == 0) {
      continue;
    }
    if (seen + buckets_[b] < target) {
      seen += buckets_[b];
      continue;
    }
    const double lo = static_cast<double>(BucketLow(b));
    const double hi = static_cast<double>(BucketHigh(b));
    const double frac =
        static_cast<double>(target - seen) / static_cast<double>(buckets_[b]);
    double value = lo + (hi - lo) * frac;
    value = std::min(value, static_cast<double>(max_));
    value = std::max(value, static_cast<double>(min_));
    return value;
  }
  return static_cast<double>(max_);  // unreachable when counts are consistent
}

void Histogram::AppendJson(JsonWriter& json) const {
  json.Field("count", count_);
  json.Field("sum", sum_);
  json.Field("min", min());
  json.Field("max", max_);
  json.Field("mean", count_ != 0 ? static_cast<double>(sum_) / count_ : 0.0);
  json.Field("p50", Percentile(50));
  json.Field("p90", Percentile(90));
  json.Field("p99", Percentile(99));
  json.BeginArray("buckets");
  for (size_t b = 0; b < kNumBuckets; ++b) {
    if (buckets_[b] == 0) {
      continue;
    }
    json.BeginObject();
    json.Field("lo", BucketLow(b));
    json.Field("hi", BucketHigh(b));
    json.Field("n", buckets_[b]);
    json.EndObject();
  }
  json.EndArray();
}

template <typename Self, typename Io>
Status Histogram::TransferState(Self& self, Io& io) {
  for (auto& bucket : self.buckets_) {
    io.U64(bucket);
  }
  for (auto* field : {&self.count_, &self.sum_, &self.min_, &self.max_}) {
    io.U64(*field);
  }
  return io.ToStatus("histogram");
}

void Histogram::SaveState(SnapWriter& w) const { TransferState(*this, w); }

Status Histogram::RestoreState(SnapReader& r) { return TransferState(*this, r); }

}  // namespace msim
