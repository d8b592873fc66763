#include "runtime/trace.h"

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "common/json.h"
#include "hw/cluster.h"
#include "runtime/simulated_executor.h"

namespace taskbench::runtime {
namespace {

TaskRecord MakeRecord(TaskId id, const std::string& type, int node,
                      double start, double end) {
  TaskRecord rec;
  rec.task = id;
  rec.type = type;
  rec.node = node;
  rec.start = start;
  rec.end = end;
  rec.stages.deserialize = (end - start) * 0.25;
  rec.stages.parallel_fraction = (end - start) * 0.5;
  rec.stages.serialize = (end - start) * 0.25;
  return rec;
}

TEST(TraceTest, EmptyReportIsValidJson) {
  RunReport report;
  const std::string json = ChromeTraceJson(report);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("displayTimeUnit"), std::string::npos);
  EXPECT_TRUE(ValidateJson(json).ok()) << json;
}

TEST(TraceTest, EveryDocumentParsesCleanly) {
  RunReport report;
  report.records.push_back(MakeRecord(0, "matmul_func", 0, 0.0, 2.0));
  report.records.push_back(MakeRecord(1, "kmeans", 1, 0.5, 2.5));
  EXPECT_TRUE(ValidateJson(ChromeTraceJson(report)).ok());
}

TEST(TraceTest, EscapesHostileTaskTypeNames) {
  // A task type carrying quotes, backslashes and newlines must not
  // corrupt the document — this was the JsonEscape bug: names went
  // into the trace raw.
  RunReport report;
  report.records.push_back(
      MakeRecord(0, "evil \"type\" \\ with\nnewline", 0, 0.0, 1.0));
  const std::string json = ChromeTraceJson(report);
  EXPECT_TRUE(ValidateJson(json).ok()) << json;
  EXPECT_NE(json.find("\\\"type\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
}

TEST(TraceTest, ContainsTaskAndStageSlices) {
  RunReport report;
  report.records.push_back(MakeRecord(0, "matmul_func", 2, 1.0, 3.0));
  const std::string json = ChromeTraceJson(report);
  EXPECT_NE(json.find("matmul_func #0"), std::string::npos);
  EXPECT_NE(json.find("deserialize"), std::string::npos);
  EXPECT_NE(json.find("parallel fraction"), std::string::npos);
  EXPECT_NE(json.find("serialize"), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 2"), std::string::npos);
  EXPECT_NE(json.find("node 2"), std::string::npos);
  // Durations are microseconds: 2 s task -> 2000000 us.
  EXPECT_NE(json.find("\"dur\": 2000000.000"), std::string::npos);
}

TEST(TraceTest, OverlappingTasksGetDistinctLanes) {
  RunReport report;
  report.records.push_back(MakeRecord(0, "a", 0, 0.0, 2.0));
  report.records.push_back(MakeRecord(1, "b", 0, 1.0, 3.0));  // overlaps
  report.records.push_back(MakeRecord(2, "c", 0, 2.5, 4.0));  // fits lane 0
  const std::string json = ChromeTraceJson(report);
  // Task b must be on a different lane than a; c reuses lane 0.
  EXPECT_NE(json.find("\"tid\": 1"), std::string::npos);
  const size_t first_tid0 = json.find("\"tid\": 0");
  EXPECT_NE(first_tid0, std::string::npos);
}

TEST(TraceTest, TasksOnDifferentNodesShareLaneNumbers) {
  RunReport report;
  report.records.push_back(MakeRecord(0, "a", 0, 0.0, 2.0));
  report.records.push_back(MakeRecord(1, "b", 1, 0.0, 2.0));
  const std::string json = ChromeTraceJson(report);
  // Both can be lane 0 because they live in different processes.
  EXPECT_EQ(json.find("\"tid\": 1"), std::string::npos);
}

TEST(TraceTest, WritesFile) {
  RunReport report;
  report.records.push_back(MakeRecord(0, "t", 0, 0.0, 1.0));
  const auto path =
      std::filesystem::temp_directory_path() / "tb_trace_test.json";
  ASSERT_TRUE(WriteChromeTrace(report, path.string()).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, ChromeTraceJson(report));
  std::filesystem::remove(path);
}

TEST(TraceTest, AssignLanesSeparatesEqualStartTimes) {
  std::vector<TaskRecord> records;
  records.push_back(MakeRecord(0, "a", 0, 0.0, 1.0));
  records.push_back(MakeRecord(1, "b", 0, 0.0, 1.0));
  records.push_back(MakeRecord(2, "c", 0, 0.0, 1.0));
  const std::vector<int> lanes = AssignLanes(records);
  ASSERT_EQ(lanes.size(), 3u);
  EXPECT_NE(lanes[0], lanes[1]);
  EXPECT_NE(lanes[0], lanes[2]);
  EXPECT_NE(lanes[1], lanes[2]);
}

TEST(TraceTest, AssignLanesHandlesZeroDurationRecords) {
  // Instantaneous records (start == end) must still get lanes and not
  // push genuinely overlapping work onto one lane.
  std::vector<TaskRecord> records;
  records.push_back(MakeRecord(0, "a", 0, 1.0, 1.0));
  records.push_back(MakeRecord(1, "b", 0, 1.0, 1.0));
  records.push_back(MakeRecord(2, "c", 0, 0.0, 3.0));
  const std::vector<int> lanes = AssignLanes(records);
  ASSERT_EQ(lanes.size(), 3u);
  // The long task overlaps both point records.
  EXPECT_NE(lanes[2], lanes[0]);
  EXPECT_NE(lanes[2], lanes[1]);
}

TEST(TraceTest, AssignLanesIsPerNode) {
  // Records interleaved across nodes: lane numbering restarts per
  // node, and back-to-back records on one node reuse a lane.
  std::vector<TaskRecord> records;
  records.push_back(MakeRecord(0, "a", 0, 0.0, 1.0));
  records.push_back(MakeRecord(1, "b", 1, 0.0, 1.0));
  records.push_back(MakeRecord(2, "c", 0, 1.5, 2.0));
  records.push_back(MakeRecord(3, "d", 1, 1.5, 2.0));
  const std::vector<int> lanes = AssignLanes(records);
  EXPECT_EQ(lanes, (std::vector<int>{0, 0, 0, 0}));
}

TEST(TraceTest, EndToEndWithSimulatedRun) {
  // A real simulated run produces a well-formed trace with every
  // executed task present.
  TaskGraph graph;
  for (int i = 0; i < 10; ++i) {
    const DataId in = graph.AddData(1'000'000);
    const DataId out = graph.AddData(1'000'000);
    TaskSpec spec;
    spec.type = "work";
    spec.params = {{in, Dir::kIn}, {out, Dir::kOut}};
    spec.cost.parallel.flops = 1e9;
    spec.cost.input_bytes = 1'000'000;
    spec.cost.output_bytes = 1'000'000;
    ASSERT_TRUE(graph.Submit(spec).ok());
  }
  SimulatedExecutor executor(hw::MinotauroCluster(),
                             RunOptions{});
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok());
  const std::string json = ChromeTraceJson(*report);
  EXPECT_TRUE(ValidateJson(json).ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_NE(json.find("work #" + std::to_string(i)), std::string::npos);
  }
}

}  // namespace
}  // namespace taskbench::runtime
