// Initial values are staged inside the run: the thread pool's workers
// stage them in parallel before the first task is claimed, and the
// multi-process coordinator stages each one when it dispatches a task
// that reads it, only while the datum's directory slot is still empty.
// These graphs pin what every real executor must return either way.

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/executor_factory.h"
#include "runtime/multiproc_executor.h"
#include "runtime/task_graph.h"

namespace taskbench::runtime {
namespace {

struct StagingCase {
  const char* name;
  ExecutorKind kind;
  bool use_storage;
};

void PrintTo(const StagingCase& c, std::ostream* os) { *os << c.name; }

class InitialValueStaging : public ::testing::TestWithParam<StagingCase> {
 protected:
  void SetUp() override {
    if (GetParam().kind == ExecutorKind::kProcs &&
        !MultiProcExecutor::Supported()) {
      GTEST_SKIP() << "no multi-process plane on this platform";
    }
  }

  std::unique_ptr<Executor> Make() {
    ExecutorSpec spec;
    spec.kind = GetParam().kind;
    spec.options.num_threads = 3;
    spec.options.num_procs = 2;
    spec.options.use_storage = GetParam().use_storage;
    auto executor = MakeExecutor(spec);
    EXPECT_TRUE(executor.ok()) << executor.status().ToString();
    return std::move(executor).value();
  }

  /// Runs `graph` and returns the value of each of `ids`.
  std::vector<data::Matrix> RunAndFetch(TaskGraph& graph,
                                        const std::vector<DataId>& ids) {
    std::unique_ptr<Executor> executor = Make();
    auto report = executor->Run(graph);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    std::vector<data::Matrix> values;
    for (const DataId d : ids) {
      auto value = executor->Fetch(graph, d);
      EXPECT_TRUE(value.ok()) << "datum " << d << ": "
                              << value.status().ToString();
      values.push_back(value.ok() ? *value : data::Matrix());
    }
    return values;
  }
};

Status CopyKernel(const KernelInputs& inputs, const KernelOutputs& outputs) {
  *outputs[0] = *inputs[0];
  return Status::OK();
}

Status AddOneInPlace(const KernelInputs&, const KernelOutputs& outputs) {
  data::Matrix& m = *outputs[0];  // aliases the INOUT input value
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] += 1.0;
  return Status::OK();
}

TaskSpec Task(std::vector<Param> params, KernelFn kernel) {
  TaskSpec spec;
  spec.type = "staging";
  spec.params = std::move(params);
  spec.kernel = std::move(kernel);
  return spec;
}

// The datum's initial value is overwritten (OUT) before anything reads
// it; the later reader must get the written value. Staging the initial
// value once per datum, whenever its first reader is dispatched, would
// hand that reader the stale 1.0 here: the directory slot, which the
// writer already filled, is what says "staged".
TEST_P(InitialValueStaging, OverwrittenInitialValueReadsTheWrite) {
  TaskGraph graph;
  const DataId d = graph.AddData(data::Matrix(2, 2, 1.0));
  const DataId e = graph.AddData(static_cast<uint64_t>(32));
  ASSERT_TRUE(graph
                  .Submit(Task({{d, Dir::kOut}},
                               [](const KernelInputs&,
                                  const KernelOutputs& outputs) -> Status {
                                 *outputs[0] = data::Matrix(2, 2, 2.0);
                                 return Status::OK();
                               }))
                  .ok());
  ASSERT_TRUE(
      graph.Submit(Task({{d, Dir::kIn}, {e, Dir::kOut}}, CopyKernel)).ok());

  const std::vector<data::Matrix> got = RunAndFetch(graph, {d, e});
  EXPECT_TRUE(got[0] == data::Matrix(2, 2, 2.0));
  EXPECT_TRUE(got[1] == data::Matrix(2, 2, 2.0))
      << "the reader saw the initial value, not the write before it";
}

TEST_P(InitialValueStaging, InOutOverAnInitialValue) {
  TaskGraph graph;
  const DataId d = graph.AddData(data::Matrix(2, 2, 1.0));
  const DataId e = graph.AddData(static_cast<uint64_t>(32));
  ASSERT_TRUE(graph.Submit(Task({{d, Dir::kInOut}}, AddOneInPlace)).ok());
  ASSERT_TRUE(graph.Submit(Task({{d, Dir::kInOut}}, AddOneInPlace)).ok());
  ASSERT_TRUE(
      graph.Submit(Task({{d, Dir::kIn}, {e, Dir::kOut}}, CopyKernel)).ok());

  const std::vector<data::Matrix> got = RunAndFetch(graph, {d, e});
  EXPECT_TRUE(got[0] == data::Matrix(2, 2, 3.0));
  EXPECT_TRUE(got[1] == data::Matrix(2, 2, 3.0));
}

// No task touches `unread`: the multi-process plane never stages it,
// and Fetch must still return it.
TEST_P(InitialValueStaging, UnreadInitialValueIsStillFetched) {
  TaskGraph graph;
  const DataId unread = graph.AddData(data::Matrix(3, 2, 5.0));
  const DataId x = graph.AddData(data::Matrix(2, 2, 1.0));
  const DataId y = graph.AddData(static_cast<uint64_t>(32));
  ASSERT_TRUE(
      graph.Submit(Task({{x, Dir::kIn}, {y, Dir::kOut}}, CopyKernel)).ok());

  const std::vector<data::Matrix> got = RunAndFetch(graph, {unread, y});
  EXPECT_TRUE(got[0] == data::Matrix(3, 2, 5.0));
  EXPECT_TRUE(got[1] == data::Matrix(2, 2, 1.0));
}

INSTANTIATE_TEST_SUITE_P(
    Executors, InitialValueStaging,
    ::testing::Values(StagingCase{"ThreadsStorage", ExecutorKind::kThreads,
                                  true},
                      StagingCase{"ThreadsMemory", ExecutorKind::kThreads,
                                  false},
                      StagingCase{"Procs", ExecutorKind::kProcs, false}),
    [](const ::testing::TestParamInfo<StagingCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace taskbench::runtime
