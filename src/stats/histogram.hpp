// Log-bucketed latency histogram.
//
// The paper reports 95th, 99th, 99.9th and 99.99th percentile lock-acquire
// latencies (Figures 9 and 15) spanning from hundreds of cycles to hundreds
// of millions (a long-sleeping MUTEXEE waiter). A log-scale histogram with
// sub-bucket resolution records that range in fixed memory with bounded
// relative error, like HdrHistogram.
#ifndef SRC_STATS_HISTOGRAM_HPP_
#define SRC_STATS_HISTOGRAM_HPP_

#include <cstdint>
#include <string>
#include <vector>

namespace lockin {

class LatencyHistogram {
 public:
  // `sub_bucket_bits` controls relative resolution: 2^bits sub-buckets per
  // power of two, i.e. bits=5 gives ~3% worst-case relative error.
  explicit LatencyHistogram(int sub_bucket_bits = 5);

  void Record(std::uint64_t value);
  void RecordN(std::uint64_t value, std::uint64_t count);

  // Merges another histogram (same sub_bucket_bits) into this one.
  void Merge(const LatencyHistogram& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  double Mean() const;

  // Value at quantile q in [0, 1]. Returns 0 on an empty histogram.
  std::uint64_t Percentile(double q) const;

  std::uint64_t P50() const { return Percentile(0.50); }
  std::uint64_t P95() const { return Percentile(0.95); }
  std::uint64_t P99() const { return Percentile(0.99); }
  std::uint64_t P999() const { return Percentile(0.999); }
  std::uint64_t P9999() const { return Percentile(0.9999); }

  void Reset();

  // One-line summary: count, mean, p50/p95/p99/p99.99, max.
  std::string ToString() const;

 private:
  std::size_t BucketIndex(std::uint64_t value) const;
  std::uint64_t BucketLowerBound(std::size_t index) const;

  int sub_bucket_bits_;
  std::uint64_t sub_bucket_count_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t min_ = ~0ULL;
  std::uint64_t max_ = 0;
};

}  // namespace lockin

#endif  // SRC_STATS_HISTOGRAM_HPP_
