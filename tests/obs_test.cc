// Unit tests for the taskbench::obs telemetry layer: the metrics
// instruments/registry and the streaming Chrome-trace writer.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "obs/metrics.h"
#include "obs/trace_writer.h"

namespace taskbench::obs {
namespace {

// ---------------------------------------------------------------------------
// Counter / Gauge / Histogram

TEST(CounterTest, AddAndMerge) {
  Counter a, b;
  a.Add();
  a.Add(4);
  b.Add(10);
  EXPECT_EQ(a.value(), 5);
  a.Merge(b);
  EXPECT_EQ(a.value(), 15);
}

TEST(GaugeTest, SetAndSetMax) {
  Gauge g;
  g.Set(3.0);
  g.SetMax(2.0);
  EXPECT_EQ(g.value(), 3.0);
  g.SetMax(7.5);
  EXPECT_EQ(g.value(), 7.5);
  g.Set(1.0);  // plain Set overwrites downward
  EXPECT_EQ(g.value(), 1.0);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  h.Record(2.0);
  h.Record(8.0);
  h.Record(0.5);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.sum(), 10.5);
  EXPECT_EQ(h.min(), 0.5);
  EXPECT_EQ(h.max(), 8.0);
  EXPECT_DOUBLE_EQ(h.mean(), 3.5);
}

TEST(HistogramTest, PowerOfTwoBuckets) {
  Histogram h;
  h.Record(3.0);  // (2, 4] -> upper bound 4
  int populated = -1;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    if (h.bucket_count(i) > 0) {
      EXPECT_EQ(populated, -1) << "one value should fill one bucket";
      populated = i;
    }
  }
  ASSERT_NE(populated, -1);
  EXPECT_EQ(Histogram::BucketUpperBound(populated), 4.0);
  EXPECT_GE(3.0, Histogram::BucketUpperBound(populated) / 2);
}

TEST(HistogramTest, OutOfRangeValuesClampToEdgeBuckets) {
  Histogram h;
  h.Record(1e-300);  // far below 2^kMinExp
  h.Record(1e300);   // far above the top bucket
  EXPECT_EQ(h.bucket_count(0), 1);
  EXPECT_EQ(h.bucket_count(Histogram::kBuckets - 1), 1);
  EXPECT_EQ(h.count(), 2);
}

// The bucket is frexp's exponent minus kMinExp, clamped; BucketFor
// reads it from the exponent bits instead. Pin the two against each
// other where they could part: subnormals, each side of every power of
// two across both clamp ends, the extremes and random doubles.
int FrexpBucket(double v) {
  int exp = 0;
  std::frexp(v, &exp);
  return std::clamp(exp - Histogram::kMinExp, 0, Histogram::kBuckets - 1);
}

TEST(HistogramTest, BucketForMatchesTheFrexpFormula) {
  std::vector<double> values = {std::numeric_limits<double>::denorm_min(),
                                std::nextafter(0.0, 1.0) * 12345,
                                std::numeric_limits<double>::min() / 2,
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                1e-300,
                                1e300};
  for (int k = -40; k <= 40; ++k) {
    const double p = std::ldexp(1.0, k);
    values.push_back(std::nextafter(p, 0.0));
    values.push_back(p);
    values.push_back(std::nextafter(p, 2 * p));
  }
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20000; ++i) {
    // Any positive finite bit pattern, and values spread over the
    // bucket range.
    const double bits = std::bit_cast<double>(rng() >> 1);
    if (std::isfinite(bits) && bits > 0) values.push_back(bits);
    values.push_back(std::ldexp(std::generate_canonical<double, 53>(rng),
                                static_cast<int>(rng() % 90) - 45));
  }
  for (const double v : values) {
    if (!(v > 0)) continue;
    EXPECT_EQ(Histogram::BucketFor(v), FrexpBucket(v)) << v;
  }
  EXPECT_EQ(Histogram::BucketFor(1e-300), 0);
  EXPECT_EQ(Histogram::BucketFor(1e300), Histogram::kBuckets - 1);
}

TEST(HistogramTest, ZeroAndNegativeSkipBuckets) {
  Histogram h;
  h.Record(0.0);
  h.Record(-1.0);
  EXPECT_EQ(h.count(), 2);
  EXPECT_EQ(h.min(), -1.0);
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(h.bucket_count(i), 0);
  }
}

TEST(HistogramTest, Merge) {
  Histogram a, b;
  a.Record(1.0);
  a.Record(2.0);
  b.Record(16.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(a.sum(), 19.0);
  EXPECT_EQ(a.min(), 1.0);
  EXPECT_EQ(a.max(), 16.0);
  // Merging an empty histogram is a no-op.
  Histogram empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 3);
  // Merging into an empty histogram copies the stats.
  Histogram c;
  c.Merge(a);
  EXPECT_EQ(c.count(), 3);
  EXPECT_EQ(c.min(), 1.0);
}

TEST(HistogramTest, JsonIsValid) {
  Histogram h;
  h.Record(0.001);
  h.Record(0.002);
  h.Record(4.0);
  std::ostringstream out;
  h.WriteJson(out);
  EXPECT_TRUE(ValidateJson(out.str()).ok()) << out.str();
  EXPECT_NE(out.str().find("\"count\": 3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistryTest, HandlesAreStableAndShared) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  Counter* c1 = reg.counter("x");
  Counter* c2 = reg.counter("x");
  EXPECT_EQ(c1, c2);  // same name -> same instrument
  c1->Add(3);
  EXPECT_EQ(reg.counter("x")->value(), 3);
  EXPECT_FALSE(reg.empty());
}

TEST(MetricsRegistryTest, MergeFromCombinesAndCreates) {
  MetricsRegistry a, b;
  a.counter("tasks")->Add(5);
  a.gauge("peak")->Set(2.0);
  b.counter("tasks")->Add(7);
  b.counter("steals")->Add(1);
  b.gauge("peak")->Set(9.0);
  b.histogram("lat")->Record(0.5);
  a.MergeFrom(b);
  EXPECT_EQ(a.counter("tasks")->value(), 12);
  EXPECT_EQ(a.counter("steals")->value(), 1);   // created by merge
  EXPECT_EQ(a.gauge("peak")->value(), 9.0);     // gauges merge by max
  EXPECT_EQ(a.histogram("lat")->count(), 1);
}

TEST(MetricsRegistryTest, MergeGaugeKeepsLocalMax) {
  MetricsRegistry a, b;
  a.gauge("peak")->Set(10.0);
  b.gauge("peak")->Set(4.0);
  a.MergeFrom(b);
  EXPECT_EQ(a.gauge("peak")->value(), 10.0);
}

TEST(MetricsRegistryTest, JsonIsValidAndSorted) {
  MetricsRegistry reg;
  reg.counter("b.second")->Add(2);
  reg.counter("a.first")->Add(1);
  reg.gauge("g")->Set(1.5);
  reg.histogram("h")->Record(0.25);
  std::ostringstream out;
  reg.WriteJson(out);
  const std::string json = out.str();
  EXPECT_TRUE(ValidateJson(json).ok()) << json;
  const size_t first = json.find("a.first");
  const size_t second = json.find("b.second");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
}

TEST(MetricsRegistryTest, JsonEscapesNames) {
  MetricsRegistry reg;
  reg.counter("weird \"name\" \\ here")->Add(1);
  std::ostringstream out;
  reg.WriteJson(out);
  EXPECT_TRUE(ValidateJson(out.str()).ok()) << out.str();
  EXPECT_NE(out.str().find("\\\"name\\\""), std::string::npos);
}

TEST(MetricsRegistryTest, EmptyRegistryJson) {
  MetricsRegistry reg;
  std::ostringstream out;
  reg.WriteJson(out);
  EXPECT_TRUE(ValidateJson(out.str()).ok()) << out.str();
}

// ---------------------------------------------------------------------------
// TraceWriter

TEST(TraceWriterTest, EmptyDocumentIsValid) {
  std::ostringstream out;
  {
    TraceWriter w(&out);
    w.Close();
  }
  EXPECT_TRUE(ValidateJson(out.str()).ok()) << out.str();
}

TEST(TraceWriterTest, EventsFormValidJson) {
  std::ostringstream out;
  TraceWriter w(&out);
  w.CompleteEvent("task #1 (CPU)", "task", 0, 1, 12.0, 340.5);
  w.CompleteEvent("deserialize", "stage", 0, 1, 12.0, 3.0);
  w.FlowStart("dep", 7, 0, 1, 352.5);
  w.FlowFinish("dep", 7, 0, 2, 400.0);
  w.ProcessName(0, "node 0");
  w.Close();
  const std::string json = out.str();
  EXPECT_TRUE(ValidateJson(json).ok()) << json;
  EXPECT_EQ(w.events_written(), 5u);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\": \"e\""), std::string::npos);
}

TEST(TraceWriterTest, EscapesNames) {
  std::ostringstream out;
  TraceWriter w(&out);
  w.CompleteEvent("evil \"quoted\" \\ name", "cat\n", 0, 0, 0.0, 1.0);
  w.Close();
  EXPECT_TRUE(ValidateJson(out.str()).ok()) << out.str();
  EXPECT_NE(out.str().find("\\\"quoted\\\""), std::string::npos);
}

TEST(TraceWriterTest, CloseIsIdempotentAndDestructorCloses) {
  std::ostringstream out;
  {
    TraceWriter w(&out);
    w.CompleteEvent("t", "task", 0, 0, 0.0, 1.0);
    w.Close();
    w.Close();  // second Close must not duplicate the epilogue
  }             // destructor must not either
  EXPECT_TRUE(ValidateJson(out.str()).ok()) << out.str();
}

TEST(TraceWriterTest, DestructorClosesUnclosedDocument) {
  std::ostringstream out;
  {
    TraceWriter w(&out);
    w.CompleteEvent("t", "task", 0, 0, 0.0, 1.0);
  }
  EXPECT_TRUE(ValidateJson(out.str()).ok()) << out.str();
}

}  // namespace
}  // namespace taskbench::obs
