// Golden-fixture coverage of the WfFormat importer: the committed
// instances under tests/data/wf/ must import with exactly the task /
// edge / byte counts recorded here, re-export losslessly, build into
// runnable graphs, and run through the service layer; everything
// under tests/data/wf/bad/ must be rejected with InvalidArgument and
// a contextual message — no partial instance, no death.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "common/status.h"
#include "runtime/thread_pool_executor.h"
#include "service/workflow_service.h"
#include "wf/build.h"
#include "wf/import.h"
#include "wf/instance.h"

namespace taskbench::wf {
namespace {

std::string FixtureDir() { return std::string(TASKBENCH_TEST_DATA_DIR) + "/wf"; }

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

Instance ImportFixture(const std::string& name) {
  auto result = ImportWfFormat(ReadFile(FixtureDir() + "/" + name));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *result : Instance{};
}

TEST(WfImportTest, DiamondGoldenCounts) {
  const Instance instance = ImportFixture("diamond.json");
  EXPECT_EQ(instance.name, "diamond");
  EXPECT_EQ(instance.schema, "1.4");
  auto stats = ComputeStats(instance);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->tasks, 4);
  EXPECT_EQ(stats->files, 6);
  EXPECT_EQ(stats->edges, 4);
  EXPECT_EQ(stats->total_bytes, 21504u);
  EXPECT_EQ(stats->height, 3);
  EXPECT_EQ(stats->width, 2);
  // Types from the WfCommons name convention, runtimes from the
  // execution section.
  EXPECT_EQ(instance.tasks[0].type, "prep");
  EXPECT_EQ(instance.tasks[0].runtime_s, 1.5);
  EXPECT_EQ(instance.tasks[3].type, "merge");
  EXPECT_EQ(instance.tasks[3].runtime_s, 0.75);
}

TEST(WfImportTest, FlatSchemaGoldenCounts) {
  const Instance instance = ImportFixture("chain_flat.json");
  EXPECT_EQ(instance.name, "chain-flat");
  auto stats = ComputeStats(instance);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->tasks, 3);
  EXPECT_EQ(stats->files, 3);
  EXPECT_EQ(stats->edges, 2);
  EXPECT_EQ(stats->total_bytes, 4096u + 8192u + 128u);
  EXPECT_EQ(stats->height, 3);
  EXPECT_EQ(stats->width, 1);
  // Flat instances carry the type in `category` and the runtime in
  // either `runtime` or `runtimeInSeconds`.
  EXPECT_EQ(instance.tasks[0].type, "generate");
  EXPECT_EQ(instance.tasks[1].type, "compute");
  EXPECT_EQ(instance.tasks[1].runtime_s, 2.5);
  EXPECT_EQ(instance.tasks[2].type, "archive");
  EXPECT_EQ(instance.tasks[2].runtime_s, 0.5);
}

TEST(WfImportTest, MontageTrimmedGoldenCounts) {
  const Instance instance = ImportFixture("montage_trimmed.json");
  auto stats = ComputeStats(instance);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->tasks, 17);
  EXPECT_EQ(stats->files, 23);
  EXPECT_EQ(stats->edges, 31);
  EXPECT_EQ(stats->total_bytes, 60129013u);
  EXPECT_EQ(stats->height, 8);
  EXPECT_EQ(stats->width, 4);
  // Per-stage type counts of the Montage pipeline.
  std::map<std::string, int> by_type;
  for (const WfTask& task : instance.tasks) ++by_type[task.type];
  EXPECT_EQ(by_type["mProject"], 4);
  EXPECT_EQ(by_type["mDiffFit"], 4);
  EXPECT_EQ(by_type["mConcatFit"], 1);
  EXPECT_EQ(by_type["mBgModel"], 1);
  EXPECT_EQ(by_type["mBackground"], 4);
  EXPECT_EQ(by_type["mImgtbl"], 1);
  EXPECT_EQ(by_type["mAdd"], 1);
  EXPECT_EQ(by_type["mViewer"], 1);
  // Spot-check a recorded runtime survived the execution join.
  for (const WfTask& task : instance.tasks) {
    if (task.name == "mAdd_00001") {
      EXPECT_EQ(task.runtime_s, 8.7);
    }
  }
}

TEST(WfImportTest, GoldenFixturesRoundTripThroughExport) {
  for (const char* name :
       {"diamond.json", "chain_flat.json", "montage_trimmed.json"}) {
    SCOPED_TRACE(name);
    const Instance original = ImportFixture(name);
    auto reimported = ImportWfFormat(ExportWfFormat(original));
    ASSERT_TRUE(reimported.ok()) << reimported.status().ToString();
    std::string why;
    EXPECT_TRUE(StructurallyEqual(original, *reimported, &why)) << why;
  }
}

TEST(WfImportTest, MontageBuildsAndRunsOnThreadPool) {
  const Instance instance = ImportFixture("montage_trimmed.json");
  auto built = BuildInstance(instance, BuildOptions{});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->graph.num_tasks(), 17);
  EXPECT_EQ(built->graph.MaxHeight(), 8);
  EXPECT_EQ(built->graph.MaxWidth(), 4);
  runtime::RunOptions options;
  options.num_threads = 4;
  runtime::ThreadPoolExecutor executor(options);
  auto report = executor.Execute(built->graph);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->records.size(), 17u);
  for (const runtime::DataId id : built->data) {
    auto value = executor.FetchData(built->graph, id);
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_GT(value->size(), 0);
  }
}

TEST(WfImportTest, ImportedWorkflowRunsThroughService) {
  const Instance instance = ImportFixture("diamond.json");
  auto built = BuildInstance(instance, BuildOptions{});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto executor = std::make_shared<runtime::ThreadPoolExecutor>(
      runtime::RunOptions{});
  service::WorkflowService svc(executor, service::ServiceOptions{});
  auto handle = svc.Submit(std::move(built->graph));
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  auto report = svc.Wait(*handle);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->records.size(), 4u);
}

struct BadFixture {
  const char* file;
  const char* expected_substring;
};

TEST(WfImportTest, BadFixturesAreRejectedWithContext) {
  const BadFixture kCases[] = {
      {"cycle.json", "dependency cycle"},
      {"dangling_parent.json", "unknown parent 'ghost_1'"},
      {"self_parent.json", "lists itself as parent"},
      {"dup_task.json", "duplicate task 'a_1'"},
      {"dup_file.json", "duplicate file 'in.dat'"},
      {"neg_runtime.json", "runtime must be a finite non-negative"},
      {"inf_runtime.json", "runtime must be a finite non-negative"},
      {"string_runtime.json", "expected a number"},
      {"neg_bytes.json", "size must be a finite non-negative"},
      {"frac_bytes.json", "size must be an integral byte count"},
      {"two_writers.json", "written by both"},
      {"unknown_file.json", "unknown file 'missing.dat'"},
      {"io_file.json", "both input and output"},
      {"missing_tasks.json", "neither 'specification' nor 'tasks'"},
      {"truncated.json", "unterminated string"},
  };
  std::set<std::string> covered;
  for (const BadFixture& c : kCases) {
    SCOPED_TRACE(c.file);
    covered.insert(c.file);
    auto result =
        ImportWfFormat(ReadFile(FixtureDir() + "/bad/" + c.file));
    ASSERT_FALSE(result.ok()) << "bad fixture imported successfully";
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << result.status().ToString();
    EXPECT_NE(result.status().message().find(c.expected_substring),
              std::string::npos)
        << result.status().ToString();
  }
  // Every committed bad fixture must appear in the table above, so a
  // new one cannot land without a pinned error expectation.
  for (const auto& entry :
       std::filesystem::directory_iterator(FixtureDir() + "/bad")) {
    EXPECT_EQ(covered.count(entry.path().filename().string()), 1u)
        << entry.path() << " is not in the expectations table";
  }
}

TEST(WfImportTest, ParseErrorsNameTheByteOffset) {
  // The importer parses with the shared grammar, so a syntax error
  // carries the same "at byte N" suffix as every other JSON reader.
  const std::string text = ReadFile(FixtureDir() + "/bad/truncated.json");
  auto result = ImportWfFormat(text);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(
                "unterminated string at byte " + std::to_string(text.size())),
            std::string::npos)
      << result.status().ToString();
}

TEST(WfImportTest, TruncationsNeverCrashAndNeverLeakPartialGraphs) {
  // Chop the diamond fixture at every 16-byte boundary: every prefix
  // must fail cleanly (the only valid document is the full one).
  const std::string full = ReadFile(FixtureDir() + "/diamond.json");
  for (size_t cut = 0; cut + 1 < full.size(); cut += 16) {
    auto result = ImportWfFormat(full.substr(0, cut));
    ASSERT_FALSE(result.ok()) << "prefix of " << cut << " bytes imported";
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(WfImportTest, GarbageInputsAreRejected) {
  for (const char* text :
       {"", "   ", "null", "42", "\"wf\"", "[]", "{}",
        "{\"workflow\": []}", "{\"workflow\": {\"tasks\": 3}}",
        "{\"workflow\": {\"specification\": {\"tasks\": [], \"files\":"
        " []}}}",
        "{unquoted: true}", "\xff\xfe"}) {
    SCOPED_TRACE(text);
    auto result = ImportWfFormat(text);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(result.status().message().empty());
  }
}

}  // namespace
}  // namespace taskbench::wf
