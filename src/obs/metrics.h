#ifndef TASKBENCH_OBS_METRICS_H_
#define TASKBENCH_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>

namespace taskbench::obs {

/// Lightweight run-telemetry instruments. Design constraints, in
/// order: (1) near-zero hot-path cost — an enabled instrument is a
/// plain add on a pre-resolved pointer, a disabled one is a single
/// null check in the executor; (2) deterministic export — the
/// registry renders in sorted name order; (3) no locks — executors
/// keep per-worker instances and Merge() them after the workers join
/// (the registry itself is not thread-safe).

/// Monotonic event count (decisions made, blocks read, steals...).
class Counter {
 public:
  void Add(int64_t n = 1) { value_ += n; }
  int64_t value() const { return value_; }
  void Merge(const Counter& other) { value_ += other.value_; }

 private:
  int64_t value_ = 0;
};

/// Last-written scalar (configured worker count, peak queue depth...).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  /// Keeps the running maximum — for high-water marks.
  void SetMax(double v) {
    if (v > value_) value_ = v;
  }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-footprint distribution of positive doubles on power-of-two
/// buckets: bucket i holds values in [2^(i+kMinExp-1), 2^(i+kMinExp)).
/// With kMinExp = -34 the range spans ~5.8e-11 .. 1.1e9 — nanoseconds
/// to decades when recording seconds. Values outside clamp to the
/// edge buckets; zero and negatives count toward min/sum but no
/// bucket. Record() is an exponent-bit extraction and two adds: cheap
/// enough for per-task stage times on million-task DAGs.
class Histogram {
 public:
  static constexpr int kBuckets = 64;
  static constexpr int kMinExp = -34;

  void Record(double v);
  void Merge(const Histogram& other);

  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0; }
  double max() const { return max_; }
  double mean() const { return count_ > 0 ? sum_ / count_ : 0; }

  /// Bucket of a positive finite `v`: frexp's exponent minus kMinExp,
  /// clamped to [0, kBuckets), read from the exponent bits.
  static int BucketFor(double v);
  /// Inclusive upper bound of bucket `i` and its occupancy.
  static double BucketUpperBound(int i);
  int64_t bucket_count(int i) const { return buckets_[i]; }

  /// Renders as a JSON object: count/sum/min/max/mean plus the
  /// non-empty buckets as [{"le": bound, "count": n}, ...].
  void WriteJson(std::ostream& out) const;

 private:
  int64_t buckets_[kBuckets] = {};
  int64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Named instruments of one run. Lookup is a map find per name —
/// resolve handles once at run start, then mutate through the
/// returned pointers (stable for the registry's lifetime).
class MetricsRegistry {
 public:
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  /// Merges every instrument of `other` into this registry,
  /// creating missing names. Gauges merge by maximum.
  void MergeFrom(const MetricsRegistry& other);

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Renders the registry as one JSON object:
  ///   {"counters": {...}, "gauges": {...}, "histograms": {...}}
  /// Names are JsonEscape'd; order is sorted by name (deterministic).
  void WriteJson(std::ostream& out) const;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace taskbench::obs

#endif  // TASKBENCH_OBS_METRICS_H_
