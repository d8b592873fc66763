#include "analysis/observations.h"

#include <gtest/gtest.h>

#include "analysis/report.h"

namespace taskbench::analysis {
namespace {

TEST(ObservationsTest, O1HoldsForFlatSpeedups) {
  const auto check = CheckO1({1.2, 1.25, 1.3, 1.22, 1.28});
  EXPECT_TRUE(check.holds);
  EXPECT_EQ(check.id, "O1");
  EXPECT_FALSE(check.evidence.empty());
}

TEST(ObservationsTest, O1FailsForScalingSpeedups) {
  const auto check = CheckO1({2, 6, 12, 18, 21});
  EXPECT_FALSE(check.holds);
}

TEST(ObservationsTest, O1InsufficientData) {
  EXPECT_FALSE(CheckO1({1.0}).holds);
}

TEST(ObservationsTest, O2HoldsForPlateauThenNegativeShape) {
  // Positive plateau once the GPU pool saturates, negative at the
  // finest granularity (the Figure 7b parallel-task shape).
  std::vector<TaskCountSpeedup> points{
      {2, 1.20}, {8, 1.20}, {32, 1.12}, {128, -1.37}, {256, -1.35}};
  const auto check = CheckO2(points, /*gpu_slots=*/32);
  EXPECT_TRUE(check.holds) << check.evidence;
}

TEST(ObservationsTest, O2FailsWhenFineGrainWins) {
  std::vector<TaskCountSpeedup> points{
      {2, 0.5}, {32, 1.0}, {256, 3.0}};
  EXPECT_FALSE(CheckO2(points, 32).holds);
}

TEST(ObservationsTest, O2FailsWhenPlateauNegative) {
  std::vector<TaskCountSpeedup> points{
      {2, 1.5}, {32, -1.2}, {256, -1.5}};
  EXPECT_FALSE(CheckO2(points, 32).holds);
}

TEST(ObservationsTest, O2FailsWhenCoarseDwarfsPlateau) {
  std::vector<TaskCountSpeedup> points{
      {2, 12.0}, {32, 1.1}, {256, -1.3}};
  EXPECT_FALSE(CheckO2(points, 32).holds);
}

TEST(ObservationsTest, O3HoldsForFlatLowComplexity) {
  const auto check = CheckO3({-1.2, -1.3, -1.25, -1.2, -1.15});
  EXPECT_TRUE(check.holds);
}

TEST(ObservationsTest, O3FailsForScaling) {
  const auto check = CheckO3({1.0, 2.5, 5.0, 9.0});
  EXPECT_FALSE(check.holds);
}

TEST(ObservationsTest, O4HoldsForClusterScaling) {
  const auto check = CheckO4({1.24, 2.8, 7.5});
  EXPECT_TRUE(check.holds);
}

TEST(ObservationsTest, O4FailsWhenNotMonotone) {
  EXPECT_FALSE(CheckO4({1.24, 3.1, 2.0}).holds);
  EXPECT_FALSE(CheckO4({1.24, 1.3, 1.35}).holds);  // monotone but weak
}

TEST(ObservationsTest, MeanRelativeShiftBasics) {
  EXPECT_DOUBLE_EQ(MeanRelativeShift({1, 2}, {1, 2}), 0.0);
  EXPECT_NEAR(MeanRelativeShift({1}, {2}), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(MeanRelativeShift({1, 2}, {1}), 0.0);  // mismatch: 0
}

TEST(ObservationsTest, O5HoldsForInsensitiveLocalDisk) {
  PolicySensitivityInput local;
  local.cpu_gen_order = {100, 200, 300};
  local.cpu_locality = {102, 198, 305};
  local.gpu_gen_order = {150, 250, 350};
  local.gpu_locality = {151, 255, 345};
  EXPECT_TRUE(CheckO5(local).holds);
}

TEST(ObservationsTest, O5FailsForSensitiveLocalDisk) {
  PolicySensitivityInput local;
  local.cpu_gen_order = {100, 200};
  local.cpu_locality = {160, 350};
  local.gpu_gen_order = {100, 200};
  local.gpu_locality = {100, 200};
  EXPECT_FALSE(CheckO5(local).holds);
}

TEST(ObservationsTest, O6ComparesSharedVsLocal) {
  PolicySensitivityInput local;
  local.cpu_gen_order = {100, 200};
  local.cpu_locality = {101, 202};
  local.gpu_gen_order = {150, 250};
  local.gpu_locality = {149, 251};
  PolicySensitivityInput shared = local;
  shared.cpu_locality = {130, 260};
  EXPECT_TRUE(CheckO6(local, shared).holds);
  EXPECT_FALSE(CheckO6(shared, local).holds);
}

TEST(ReportTest, TextTableAligns) {
  TextTable table({"block", "cpu", "gpu"});
  table.AddRow({"32", "1.0", "2.0"});
  table.AddRow({"2048", "10.0", "3.5"});
  const std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("block"), std::string::npos);
  EXPECT_NE(rendered.find("2048"), std::string::npos);
  EXPECT_NE(rendered.find("---"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(ReportTest, TextTableHandlesRaggedRows) {
  TextTable table({"a", "b"});
  table.AddRow({"1"});
  table.AddRow({"1", "2", "3"});
  const std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("3"), std::string::npos);
}

TEST(ReportTest, FormatSpeedupMatchesPaperStyle) {
  EXPECT_EQ(FormatSpeedup(5.69), "5.69x");
  EXPECT_EQ(FormatSpeedup(-1.2), "-1.20x");
}

TEST(ReportTest, AsciiGanttRendersLanes) {
  runtime::RunReport report;
  runtime::TaskRecord a;
  a.task = 0;
  a.type = "matmul_func";
  a.node = 0;
  a.start = 0.0;
  a.end = 1.0;
  runtime::TaskRecord b = a;
  b.task = 1;
  b.type = "add_func";
  b.start = 1.0;
  b.end = 2.0;
  runtime::TaskRecord c = a;  // overlaps a -> second lane on node 0
  c.task = 2;
  c.type = "matmul_func";
  report.records = {a, b, c};
  report.makespan = 2.0;
  const std::string gantt = AsciiGantt(report, 20);
  // Two lanes on node 0.
  EXPECT_NE(gantt.find("0:0"), std::string::npos);
  EXPECT_NE(gantt.find("0:1"), std::string::npos);
  // First halves show 'm', the later half of lane 0 shows 'a'.
  EXPECT_NE(gantt.find('m'), std::string::npos);
  EXPECT_NE(gantt.find('a'), std::string::npos);
  EXPECT_NE(gantt.find('.'), std::string::npos);
}

TEST(ReportTest, AsciiGanttEmptyRun) {
  runtime::RunReport report;
  EXPECT_EQ(AsciiGantt(report), "(empty run)\n");
}

TEST(ReportTest, AsciiGanttRowCap) {
  runtime::RunReport report;
  for (int i = 0; i < 10; ++i) {
    runtime::TaskRecord rec;
    rec.task = i;
    rec.type = "t";
    rec.node = i;  // one lane per node
    rec.start = 0;
    rec.end = 1;
    report.records.push_back(rec);
  }
  report.makespan = 1.0;
  const std::string gantt = AsciiGantt(report, 10, /*max_rows=*/3);
  EXPECT_NE(gantt.find("more lanes"), std::string::npos);
}

}  // namespace
}  // namespace taskbench::analysis
