#include "src/stats/histogram.hpp"

#include <bit>
#include <cmath>
#include <sstream>

namespace lockin {

LatencyHistogram::LatencyHistogram(int sub_bucket_bits)
    : sub_bucket_bits_(sub_bucket_bits), sub_bucket_count_(1ULL << sub_bucket_bits) {
  // 64 powers of two, each with sub_bucket_count_ sub-buckets, covers the
  // full uint64 range.
  buckets_.assign(64 * sub_bucket_count_, 0);
}

std::size_t LatencyHistogram::BucketIndex(std::uint64_t value) const {
  if (value < sub_bucket_count_) {
    return static_cast<std::size_t>(value);
  }
  const int msb = 63 - std::countl_zero(value);
  const int shift = msb - sub_bucket_bits_;
  const std::uint64_t sub = (value >> shift) - sub_bucket_count_;
  // Exponent bucket (msb - sub_bucket_bits_ + 1) starts after the linear
  // region; each contributes sub_bucket_count_ entries.
  return static_cast<std::size_t>(
      sub_bucket_count_ + static_cast<std::uint64_t>(msb - sub_bucket_bits_) * sub_bucket_count_ +
      sub);
}

std::uint64_t LatencyHistogram::BucketLowerBound(std::size_t index) const {
  if (index < sub_bucket_count_) {
    return index;
  }
  const std::uint64_t exp = (index - sub_bucket_count_) / sub_bucket_count_;
  const std::uint64_t sub = (index - sub_bucket_count_) % sub_bucket_count_;
  const int shift = static_cast<int>(exp);
  return ((sub_bucket_count_ + sub) << shift);
}

void LatencyHistogram::Record(std::uint64_t value) { RecordN(value, 1); }

void LatencyHistogram::RecordN(std::uint64_t value, std::uint64_t count) {
  if (count == 0) {
    return;
  }
  const std::size_t idx = BucketIndex(value);
  if (idx < buckets_.size()) {
    buckets_[idx] += count;
  } else {
    buckets_.back() += count;
  }
  count_ += count;
  total_ += value * count;
  if (value < min_) {
    min_ = value;
  }
  if (value > max_) {
    max_ = value;
  }
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.sub_bucket_bits_ != sub_bucket_bits_) {
    // Fall back to re-recording bucket lower bounds; resolution differs.
    for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
      if (other.buckets_[i] != 0) {
        RecordN(other.BucketLowerBound(i), other.buckets_[i]);
      }
    }
    return;
  }
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  total_ += other.total_;
  if (other.count_ != 0) {
    if (other.min_ < min_) {
      min_ = other.min_;
    }
    if (other.max_ > max_) {
      max_ = other.max_;
    }
  }
}

double LatencyHistogram::Mean() const {
  return count_ == 0 ? 0.0 : static_cast<double>(total_) / static_cast<double>(count_);
}

std::uint64_t LatencyHistogram::Percentile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  if (q <= 0.0) {
    return min();
  }
  if (q >= 1.0) {
    return max_;
  }
  // Nearest-rank percentile: the smallest value with cumulative count >=
  // ceil(q * N).
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
  if (rank == 0) {
    rank = 1;
  }
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      return BucketLowerBound(i);
    }
  }
  return max_;
}

void LatencyHistogram::Reset() {
  buckets_.assign(buckets_.size(), 0);
  count_ = 0;
  total_ = 0;
  min_ = ~0ULL;
  max_ = 0;
}

std::string LatencyHistogram::ToString() const {
  std::ostringstream out;
  out << "n=" << count_ << " mean=" << Mean() << " p50=" << P50() << " p95=" << P95()
      << " p99=" << P99() << " p99.99=" << P9999() << " max=" << max_;
  return out.str();
}

}  // namespace lockin
