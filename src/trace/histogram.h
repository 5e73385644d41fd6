// Log-bucketed value distributions for the metric registry.
//
// A Histogram records uint64 samples into power-of-two buckets: bucket 0
// holds the value 0 and bucket b (1..64) holds [2^(b-1), 2^b - 1]. Recording
// is O(1) (a clz and an add) so it is cheap enough for per-event latencies on
// the simulation hot path. Percentiles are computed deterministically by rank
// walk with linear interpolation inside the landing bucket — identical inputs
// give bit-identical doubles, so exported JSON is byte-stable across runs,
// stepping modes and checkpoint/restore (docs/determinism.md).
#ifndef MSIM_TRACE_HISTOGRAM_H_
#define MSIM_TRACE_HISTOGRAM_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "support/result.h"

namespace msim {

class JsonWriter;
class SnapWriter;
class SnapReader;

class Histogram {
 public:
  // Bucket 0 for the value 0, buckets 1..64 for [2^(b-1), 2^b - 1].
  static constexpr size_t kNumBuckets = 65;

  // Index of the bucket holding `value`.
  static size_t BucketIndex(uint64_t value);
  // Inclusive bounds of bucket `index`.
  static uint64_t BucketLow(size_t index);
  static uint64_t BucketHigh(size_t index);

  void Record(uint64_t value);
  void Reset();
  // Folds `other`'s samples into this histogram (bucket-wise; exact for
  // count/sum/min/max, percentile-exact at bucket granularity).
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  // Sum of all recorded values (wraps at 2^64 like every other counter).
  uint64_t sum() const { return sum_; }
  // min()/max() are 0 when the histogram is empty.
  uint64_t min() const { return count_ != 0 ? min_ : 0; }
  uint64_t max() const { return max_; }
  const std::array<uint64_t, kNumBuckets>& buckets() const { return buckets_; }

  // Deterministic percentile estimate for p in (0, 100): walks buckets to the
  // sample of rank ceil(p/100 * count) and interpolates linearly inside that
  // bucket, clamped to [min, max] (so a single-sample histogram reports that
  // sample at every p). Edges are pinned by definition, not interpolation:
  // p <= 0 (NaN included) returns min, p >= 100 returns max, and every
  // percentile of an empty histogram — edges included — returns 0.
  double Percentile(double p) const;

  // Appends count/sum/min/max/mean/p50/p90/p99 members plus a "buckets" array
  // of the non-empty buckets ({"lo", "hi", "n"}) to an open JSON object.
  void AppendJson(JsonWriter& json) const;

  // Checkpoint/restore (src/snap): full bucket contents, so a restored run's
  // percentiles are byte-identical to the straight run's.
  void SaveState(SnapWriter& w) const;
  Status RestoreState(SnapReader& r);

 private:
  // The one field list behind SaveState and RestoreState (snap/snapstream.h).
  template <typename Self, typename Io>
  static Status TransferState(Self& self, Io& io);

  std::array<uint64_t, kNumBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = ~0ull;
  uint64_t max_ = 0;
};

}  // namespace msim

#endif  // MSIM_TRACE_HISTOGRAM_H_
