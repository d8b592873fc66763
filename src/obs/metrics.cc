#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/strings.h"

namespace taskbench::obs {

int Histogram::BucketFor(double v) {
  // frexp's exponent (v = m * 2^exp, m in [0.5, 1)) read from the bits:
  // a normal double's biased exponent E gives exp = E - 1022. A
  // subnormal (E = 0) reads as -1022 where frexp says at most -1022:
  // both clamp to bucket 0, far below kMinExp.
  const int biased = static_cast<int>((std::bit_cast<uint64_t>(v) >> 52) &
                                      0x7ff);
  return std::clamp(biased - 1022 - kMinExp, 0, kBuckets - 1);
}

namespace {

/// Shortest-ish float rendering that is always valid JSON (never
/// "nan"/"inf" — callers only feed finite values).
std::string Num(double v) { return StrFormat("%.9g", v); }

}  // namespace

void Histogram::Record(double v) {
  if (count_ == 0 || v < min_) min_ = v;
  if (v > max_) max_ = v;
  sum_ += v;
  ++count_;
  if (v > 0) ++buckets_[BucketFor(v)];
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  sum_ += other.sum_;
  count_ += other.count_;
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
}

double Histogram::BucketUpperBound(int i) {
  return std::ldexp(1.0, i + kMinExp);
}

void Histogram::WriteJson(std::ostream& out) const {
  out << "{\"count\": " << count_ << ", \"sum\": " << Num(sum_)
      << ", \"min\": " << Num(min()) << ", \"max\": " << Num(max_)
      << ", \"mean\": " << Num(mean()) << ", \"buckets\": [";
  bool first = true;
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    if (!first) out << ", ";
    first = false;
    out << "{\"le\": " << Num(BucketUpperBound(i))
        << ", \"count\": " << buckets_[i] << "}";
  }
  out << "]}";
}

Counter* MetricsRegistry::counter(std::string_view name) {
  return &counters_.try_emplace(std::string(name)).first->second;
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  return &gauges_.try_emplace(std::string(name)).first->second;
}

Histogram* MetricsRegistry::histogram(std::string_view name) {
  return &histograms_.try_emplace(std::string(name)).first->second;
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) counter(name)->Merge(c);
  for (const auto& [name, g] : other.gauges_) gauge(name)->SetMax(g.value());
  for (const auto& [name, h] : other.histograms_) histogram(name)->Merge(h);
}

void MetricsRegistry::WriteJson(std::ostream& out) const {
  out << "{\"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out << ", ";
    first = false;
    out << '"' << JsonEscape(name) << "\": " << c.value();
  }
  out << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out << ", ";
    first = false;
    out << '"' << JsonEscape(name) << "\": " << Num(g.value());
  }
  out << "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out << ", ";
    first = false;
    out << '"' << JsonEscape(name) << "\": ";
    h.WriteJson(out);
  }
  out << "}}";
}

}  // namespace taskbench::obs
