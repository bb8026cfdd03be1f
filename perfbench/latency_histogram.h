// LatencyHistogram: a log-linear, fixed-bucket latency histogram in the
// HdrHistogram style.
//
// Values are nanoseconds. Below 2^kSubBits every value has its own
// bucket; above, each power of two is split into 2^(kSubBits-1) equal
// buckets, so a bucket is never wider than 1/128 of its lower edge and a
// reported percentile (the bucket midpoint) is within 0.4% of the exact
// sample. Recording is an index computation and one increment: no
// allocation per sample. One histogram belongs to one writer thread;
// per-thread shards are combined with Merge() after the writers stop.

#ifndef FORKBASE_PERFBENCH_LATENCY_HISTOGRAM_H_
#define FORKBASE_PERFBENCH_LATENCY_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

namespace fb {
namespace perf {

class LatencyHistogram {
 public:
  static constexpr int kSubBits = 8;
  static constexpr int kMaxBits = 42;  // values clamp at ~2.4 hours
  // 2^kSubBits exact buckets, then 2^(kSubBits-1) per power of two up
  // to and including bit kMaxBits.
  static constexpr size_t kBuckets =
      (size_t{1} << (kSubBits - 1)) * (kMaxBits - kSubBits + 3);

  void Record(uint64_t ns) {
    ++counts_[IndexOf(ns)];
    ++count_;
    sum_ns_ += ns;
    max_ns_ = std::max(max_ns_, ns);
  }

  void Merge(const LatencyHistogram& o) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
    sum_ns_ += o.sum_ns_;
    max_ns_ = std::max(max_ns_, o.max_ns_);
  }

  uint64_t count() const { return count_; }
  uint64_t sum_ns() const { return sum_ns_; }
  uint64_t max_ns() const { return max_ns_; }
  double MeanUs() const {
    return count_ == 0 ? 0 : static_cast<double>(sum_ns_) / count_ / 1e3;
  }

  // Nearest-rank percentile (p in [0, 100]) in microseconds: the
  // midpoint of the bucket holding the ceil(p% * count)-th sample.
  double PercentileUs(double p) const {
    if (count_ == 0) return 0;
    const double want = std::ceil(p / 100.0 * static_cast<double>(count_));
    const uint64_t rank =
        std::clamp<uint64_t>(static_cast<uint64_t>(want), 1, count_);
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) {
        const double lo = static_cast<double>(LowerEdge(i));
        const double width = static_cast<double>(Width(i));
        const double mid = std::min(lo + (width - 1) / 2.0,
                                    static_cast<double>(max_ns_));
        return mid / 1e3;
      }
    }
    return static_cast<double>(max_ns_) / 1e3;
  }

  // Samples strictly above the p-th percentile's rank: the tail that
  // supports the percentile (the choosing-metrics rule wants >= 10).
  uint64_t SamplesBeyond(double p) const {
    const double at = std::ceil(p / 100.0 * static_cast<double>(count_));
    return count_ - std::min<uint64_t>(count_, static_cast<uint64_t>(at));
  }

 private:
  static constexpr uint64_t kLinear = uint64_t{1} << kSubBits;
  static constexpr uint64_t kHalf = kLinear / 2;

  static size_t IndexOf(uint64_t v) {
    if (v < kLinear) return static_cast<size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    if (msb > kMaxBits) return kBuckets - 1;
    const int shift = msb - (kSubBits - 1);
    return static_cast<size_t>(kHalf * shift + (v >> shift));
  }
  static uint64_t LowerEdge(size_t i) {
    if (i < kLinear) return i;
    const uint64_t shift = i / kHalf - 1;
    return (i - kHalf * shift) << shift;
  }
  static uint64_t Width(size_t i) {
    return i < kLinear ? 1 : uint64_t{1} << (i / kHalf - 1);
  }

  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
  uint64_t sum_ns_ = 0;
  uint64_t max_ns_ = 0;
};

}  // namespace perf
}  // namespace fb

#endif  // FORKBASE_PERFBENCH_LATENCY_HISTOGRAM_H_
