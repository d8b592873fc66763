// Self-test of the end-to-end benchmark's arithmetic (e2e_accounting.h)
// and of the agreement between its metric catalogue and BENCHMARK.json.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "e2e_accounting.h"
#include "runtime/metrics.h"
#include "runtime/task_graph.h"
#include "wf/json.h"

namespace taskbench::bench::e2e {
namespace {

using runtime::DataId;
using runtime::Dir;
using runtime::RunReport;
using runtime::TaskGraph;
using runtime::TaskRecord;

/// t0 writes d0; t1 and t2 read d0 and write d1, d2.
TaskGraph Diamond() {
  TaskGraph graph;
  const DataId d0 = graph.AddData(uint64_t{100});
  const DataId d1 = graph.AddData(uint64_t{200});
  const DataId d2 = graph.AddData(uint64_t{300});
  auto submit = [&](std::vector<runtime::Param> params) {
    runtime::TaskSpec spec;
    spec.type = "t";
    spec.params = std::move(params);
    spec.cost.parallel.flops = 1000;
    EXPECT_TRUE(graph.Submit(spec).ok());
  };
  submit({{d0, Dir::kOut}});
  submit({{d0, Dir::kIn}, {d1, Dir::kOut}});
  submit({{d0, Dir::kIn}, {d2, Dir::kOut}});
  return graph;
}

TaskRecord Record(int64_t task, double start, double end, double deser,
                  double kernel, double ser, int node = -1) {
  TaskRecord r;
  r.task = task;
  r.start = start;
  r.end = end;
  r.node = node;
  r.stages.deserialize = deser;
  r.stages.parallel_fraction = kernel;
  r.stages.serialize = ser;
  return r;
}

RunReport KnownReport() {
  RunReport report;
  report.records = {Record(0, 0.10, 0.40, 0.05, 0.20, 0.03),
                    Record(1, 0.50, 0.90, 0.10, 0.20, 0.05),
                    Record(2, 0.45, 0.70, 0.05, 0.10, 0.05)};
  report.makespan = 0.90;
  return report;
}

TEST(AccountTest, SplitsKnownRunIntoLayers) {
  const TaskGraph graph = Diamond();
  auto l = Account(KnownReport(), graph, /*workers=*/2, /*wall=*/1.2);
  ASSERT_TRUE(l.ok()) << l.status().ToString();
  EXPECT_NEAR(l->outside, 0.30, 1e-12);
  EXPECT_NEAR(l->first_task, 0.10, 1e-12);
  EXPECT_NEAR(l->deserialize, 0.20, 1e-12);
  EXPECT_NEAR(l->kernel, 0.50, 1e-12);
  EXPECT_NEAR(l->serialize, 0.13, 1e-12);
  // busy 0.95 - stages 0.83
  EXPECT_NEAR(l->task_other, 0.12, 1e-12);
  // 2 x (0.9 - 0.1) - 0.95
  EXPECT_NEAR(l->idle, 0.65, 1e-12);
  // t1 and t2 wait on t0's end at 0.4: 0.1 + 0.05
  EXPECT_NEAR(l->ready_wait, 0.15, 1e-12);
  EXPECT_NEAR(l->Sum(), 2 * 1.2, 1e-12);
  EXPECT_DOUBLE_EQ(l->read_bytes, 200);
  EXPECT_DOUBLE_EQ(l->write_bytes, 600);
  EXPECT_DOUBLE_EQ(l->flops, 3000);
}

TEST(AccountTest, CatchesNegativeIdle) {
  // One worker cannot run t1 and t2 at the same time.
  const TaskGraph graph = Diamond();
  auto l = Account(KnownReport(), graph, /*workers=*/1, /*wall=*/1.2);
  ASSERT_FALSE(l.ok());
  EXPECT_NE(l.status().ToString().find("negative idle"), std::string::npos)
      << l.status().ToString();
}

TEST(AccountTest, CatchesNegativeOutside) {
  // A caller-side wall shorter than the executor's own timeline.
  const TaskGraph graph = Diamond();
  auto l = Account(KnownReport(), graph, /*workers=*/2, /*wall=*/0.8);
  ASSERT_FALSE(l.ok());
  EXPECT_NE(l.status().ToString().find("negative outside"), std::string::npos);
}

TEST(AccountTest, CatchesOverbookedWorker) {
  // Enough workers in aggregate, but worker 0 claims all three tasks,
  // two of which overlap: 0.95 s busy in a 0.8 s timeline.
  const TaskGraph graph = Diamond();
  RunReport report = KnownReport();
  for (TaskRecord& r : report.records) r.node = 0;
  auto l = Account(report, graph, /*workers=*/4, /*wall=*/1.2);
  ASSERT_FALSE(l.ok());
  EXPECT_NE(l.status().ToString().find("worker 0"), std::string::npos);
}

TEST(AccountTest, RejectsRecordOutsideTimeline) {
  const TaskGraph graph = Diamond();
  RunReport report = KnownReport();
  report.records[1].end = 1.0;  // past the makespan
  EXPECT_FALSE(Account(report, graph, 2, 1.2).ok());
  report = KnownReport();
  report.records.pop_back();  // a task without a record
  EXPECT_FALSE(Account(report, graph, 2, 1.2).ok());
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_EQ(NearestRank(v, 0.5), 50);
  EXPECT_EQ(NearestRank(v, 0.9), 90);
  EXPECT_EQ(NearestRank(v, 0.99), 99);
  EXPECT_EQ(NearestRank({7.0}, 0.9), 7);
  EXPECT_EQ(NearestRank({}, 0.5), 0);
}

TEST(PercentileTest, NeedsTenSamplesBeyond) {
  EXPECT_TRUE(Resolved(100, 0.9));
  EXPECT_FALSE(Resolved(99, 0.9));
  EXPECT_TRUE(Resolved(1000, 0.99));
  EXPECT_FALSE(Resolved(999, 0.99));
  EXPECT_TRUE(Resolved(20, 0.5));
  EXPECT_FALSE(Resolved(19, 0.5));
  EXPECT_FALSE(Resolved(0, 0.5));
}

TEST(QuartilesTest, MatchesPythonStatisticsQuantiles) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  Quartiles q = QuartilesOf({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  q = QuartilesOf({1, 2});
  EXPECT_DOUBLE_EQ(q.q1, 0.75);
  EXPECT_DOUBLE_EQ(q.median, 1.5);
  EXPECT_DOUBLE_EQ(q.q3, 2.25);
  q = QuartilesOf({3});
  EXPECT_DOUBLE_EQ(q.q1, 3);
  EXPECT_DOUBLE_EQ(q.q3, 3);
}

TEST(GoodputTest, HighestRungWithinLimitWithoutBacklog) {
  const double limit = 0.050;
  std::vector<Rung> rungs = {{200, 0.010, 2000, 0, 1},
                             {400, 0.030, 1500, 0, 5},
                             {800, 0.045, 1200, 0, 20}};
  EXPECT_EQ(Goodput(rungs, limit), 800);
  rungs[2].latency_p99_s = 0.060;  // misses the limit
  EXPECT_EQ(Goodput(rungs, limit), 400);
  rungs[2] = {800, 0.045, 1200, 1, 20};  // one rejection
  EXPECT_EQ(Goodput(rungs, limit), 400);
  rungs[2] = {800, 0.045, 1200, 0, 41};  // backlog above 800/s x 50 ms
  EXPECT_EQ(Goodput(rungs, limit), 400);
  rungs[2] = {800, 0.045, 999, 0, 20};  // p99 unresolved
  EXPECT_EQ(Goodput(rungs, limit), 400);
  EXPECT_EQ(Goodput({{200, 0.2, 2000, 0, 0}}, limit), 0);
}

/// BENCHMARK.json must list exactly the catalogue the bench prints.
TEST(CatalogueTest, MatchesBenchmarkJson) {
  std::ifstream in(TB_E2E_BENCHMARK_JSON);
  ASSERT_TRUE(in.good()) << "cannot read " << TB_E2E_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  auto doc = wf::ParseJson(text.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  auto check = [&](const char* key, const MetricDef* defs, size_t n) {
    const wf::JsonValue* list = doc->Find(key);
    ASSERT_NE(list, nullptr) << key;
    ASSERT_TRUE(list->IsArray());
    ASSERT_EQ(list->items.size(), n) << key;
    std::set<std::string> names;
    for (size_t i = 0; i < n; ++i) {
      const wf::JsonValue& m = list->items[i];
      ASSERT_TRUE(m.IsObject());
      EXPECT_EQ(m.Find("name")->string_value, defs[i].name);
      EXPECT_EQ(m.Find("unit")->string_value, defs[i].unit) << defs[i].name;
      EXPECT_EQ(m.Find("better")->string_value, defs[i].better)
          << defs[i].name;
      EXPECT_TRUE(names.insert(defs[i].name).second) << defs[i].name;
    }
  };
  check("end_to_end", kEndToEnd, std::size(kEndToEnd));
  check("per_layer", kPerLayer, std::size(kPerLayer));
}

}  // namespace
}  // namespace taskbench::bench::e2e
