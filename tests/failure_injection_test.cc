// Failure-injection tests: storage faults and hostile inputs must
// surface as Status errors, never crash or hang the runtime.

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algos/matmul.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool_executor.h"
#include "storage/block_storage.h"
#include "storage/faulty_storage.h"
#include "storage/serializer.h"

namespace taskbench::runtime {
namespace {

using storage::FaultyStorage;

algos::MatmulWorkflow SmallWorkflow() {
  auto spec = data::GridSpec::CreateFromGridDim(
      data::DatasetSpec{"m", 32, 32}, 2, 2);
  EXPECT_TRUE(spec.ok());
  algos::MatmulOptions options;
  options.materialize = true;
  auto wf = algos::BuildMatmul(*spec, options);
  EXPECT_TRUE(wf.ok());
  return std::move(*wf);
}

RunOptions StorageOptions() {
  RunOptions options;
  options.num_threads = 4;
  options.use_storage = true;
  return options;
}

TEST(FailureInjectionTest, PutFailureSurfacesDuringStaging) {
  auto faulty = std::make_shared<FaultyStorage>(
      std::make_shared<storage::InMemoryStorage>());
  faulty->ops_until_put_failure = 2;  // fail staging the third block
  algos::MatmulWorkflow wf = SmallWorkflow();
  ThreadPoolExecutor executor(StorageOptions(), faulty);
  auto report = executor.Execute(wf.graph);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInternal);
  EXPECT_NE(report.status().message().find("injected"), std::string::npos);
}

// `n` initial blocks filled with their index, each read by one task
// that copies it into a fresh output and counts its kernel call. Block
// 0 is `dim0` x `dim0`, the others 4x4.
std::atomic<int> copy_calls{0};

TaskGraph CountedCopies(int n, int64_t dim0, std::vector<DataId>* outputs) {
  TaskGraph graph;
  for (int i = 0; i < n; ++i) {
    const int64_t dim = i == 0 ? dim0 : 4;
    const DataId in = graph.AddData(data::Matrix(dim, dim, i));
    const DataId out = graph.AddData(static_cast<uint64_t>(dim * dim * 8));
    TaskSpec spec;
    spec.type = "copy";
    spec.params = {{in, Dir::kIn}, {out, Dir::kOut}};
    spec.kernel = [](const std::vector<const data::Matrix*>& inputs,
                     const std::vector<data::Matrix*>& outputs) -> Status {
      copy_calls.fetch_add(1);
      *outputs[0] = *inputs[0];
      return Status::OK();
    };
    EXPECT_TRUE(graph.Submit(std::move(spec)).ok());
    outputs->push_back(out);
  }
  return graph;
}

// Staging writes every initial value before any task starts, and a
// staging failure is not a task's: it names the datum, runs no task
// and is not retried, even with a retry budget and a fault that heals.
TEST(FailureInjectionTest, PutBudgetBelowTheInitialPutsFailsStaging) {
  for (const int threads : {1, 4}) {
    auto faulty = std::make_shared<FaultyStorage>(
        std::make_shared<storage::InMemoryStorage>());
    faulty->ops_until_put_failure = 3;  // the fourth of eight puts fails
    faulty->put_failures_remaining = 1;
    std::vector<DataId> outputs;
    TaskGraph graph = CountedCopies(8, 4, &outputs);
    RunOptions options = StorageOptions();
    options.num_threads = threads;
    options.max_retries = 3;
    options.retry_backoff_s = 1e-4;
    ThreadPoolExecutor executor(options, faulty);
    copy_calls = 0;
    auto report = executor.Execute(graph);
    ASSERT_FALSE(report.ok()) << threads << " threads";
    EXPECT_EQ(report.status().code(), StatusCode::kInternal);
    const std::string& message = report.status().message();
    EXPECT_EQ(message.rfind("staging datum ", 0), 0u) << message;
    EXPECT_NE(message.find("injected put failure"), std::string::npos);
    EXPECT_EQ(message.find("task"), std::string::npos) << message;
    EXPECT_EQ(copy_calls.load(), 0) << "a task ran before staging finished";
    if (threads == 1) {
      // One worker stages in datum order: inputs are the even ids.
      EXPECT_EQ(message, "staging datum 6: injected put failure");
    }
  }
}

// With a budget of exactly the initial puts, every staging write
// lands and the first task write fails: that is a task failure, which
// the retry loop recovers by storing the output the failed attempt
// still holds, so every kernel runs once. Were a task claimed before
// staging finished,
// its write could draw on the budget ahead of the last staging writes
// (the worker staging the 8 MiB block 0 draws for the other nine
// blocks of its chunk only after serializing it), and the fault would
// fail staging.
TEST(FailureInjectionTest, PutBudgetOfExactlyTheInitialPutsFailsATaskWrite) {
  auto faulty = std::make_shared<FaultyStorage>(
      std::make_shared<storage::InMemoryStorage>());
  faulty->ops_until_put_failure = 320;
  faulty->put_failures_remaining = 1;
  std::vector<DataId> outputs;
  TaskGraph graph = CountedCopies(320, 1024, &outputs);
  RunOptions options = StorageOptions();
  options.max_retries = 2;
  options.retry_backoff_s = 1e-4;
  ThreadPoolExecutor executor(options, faulty);
  copy_calls = 0;
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->faults.retries, 1);
  int failed_attempts = 0;
  for (const TaskAttempt& attempt : report->attempts) {
    if (attempt.outcome == AttemptOutcome::kFailed) ++failed_attempts;
  }
  EXPECT_EQ(failed_attempts, 1);
  EXPECT_EQ(copy_calls.load(), 320);
  for (size_t i = 0; i < outputs.size(); ++i) {
    auto value = executor.FetchData(graph, outputs[i]);
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_EQ(value->At(0, 0), static_cast<double>(i));
  }
}

TEST(FailureInjectionTest, PutFailureMidRunAborts) {
  auto faulty = std::make_shared<FaultyStorage>(
      std::make_shared<storage::InMemoryStorage>());
  faulty->ops_until_put_failure = 12;  // initial staging (8) + some tasks
  algos::MatmulWorkflow wf = SmallWorkflow();
  ThreadPoolExecutor executor(StorageOptions(), faulty);
  auto report = executor.Execute(wf.graph);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInternal);
}

TEST(FailureInjectionTest, GetFailureMidRunAborts) {
  auto faulty = std::make_shared<FaultyStorage>(
      std::make_shared<storage::InMemoryStorage>());
  faulty->ops_until_get_failure = 5;
  algos::MatmulWorkflow wf = SmallWorkflow();
  ThreadPoolExecutor executor(StorageOptions(), faulty);
  auto report = executor.Execute(wf.graph);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInternal);
}

TEST(FailureInjectionTest, CorruptedBlocksDetectedByChecksum) {
  auto faulty = std::make_shared<FaultyStorage>(
      std::make_shared<storage::InMemoryStorage>());
  faulty->corrupt_reads = true;
  algos::MatmulWorkflow wf = SmallWorkflow();
  ThreadPoolExecutor executor(StorageOptions(), faulty);
  auto report = executor.Execute(wf.graph);
  ASSERT_FALSE(report.ok());
  // The serializer's CRC turns silent corruption into a loud error.
  EXPECT_TRUE(report.status().IsInvalidArgument());
  EXPECT_NE(report.status().message().find("checksum"), std::string::npos);
}

TEST(FailureInjectionTest, EachReadOrWriteDrawsOneBudgetUnit) {
  // The fuzzer's faulty-store legs count operations, so every access
  // style must draw exactly one unit, hit or miss.
  auto faulty = std::make_shared<FaultyStorage>(
      std::make_shared<storage::InMemoryStorage>());
  faulty->ops_until_put_failure = 2;
  faulty->ops_until_get_failure = 2;
  auto fill = [](uint8_t* out) { out[0] = 7; };
  auto read = [](const uint8_t*, size_t) { return Status::OK(); };
  ASSERT_TRUE(faulty->Write("a", 1, fill).ok());
  EXPECT_EQ(faulty->ops_until_put_failure.load(), 1);
  ASSERT_TRUE(faulty->Write("b", 1, fill).ok());
  EXPECT_EQ(faulty->ops_until_put_failure.load(), 0);
  const Status put = faulty->Write("c", 1, fill);
  EXPECT_EQ(put.message(), "injected put failure");
  EXPECT_FALSE(faulty->Contains("c"));

  ASSERT_TRUE(faulty->Read("a", read).ok());
  EXPECT_EQ(faulty->ops_until_get_failure.load(), 1);
  EXPECT_TRUE(faulty->Read("absent", read).IsNotFound());
  EXPECT_EQ(faulty->ops_until_get_failure.load(), 0);
  const Status get = faulty->Read("a", read);
  EXPECT_EQ(get.message(), "injected get failure");
}

TEST(FailureInjectionTest, CorruptReadsFailDeserializeByChecksum) {
  auto faulty = std::make_shared<FaultyStorage>(
      std::make_shared<storage::InMemoryStorage>());
  const data::Matrix block(16, 16, 0.5);
  ASSERT_TRUE(faulty
                  ->Write("k", storage::Serializer::SerializedSize(block),
                          [&block](uint8_t* out) {
                            storage::Serializer::SerializeTo(block, out);
                          })
                  .ok());
  auto deserialize = [](const uint8_t* data, size_t size) {
    return storage::Serializer::Deserialize(data, size).status();
  };
  faulty->corrupt_reads = true;
  const Status corrupt = faulty->Read("k", deserialize);
  EXPECT_TRUE(corrupt.IsInvalidArgument());
  EXPECT_NE(corrupt.message().find("checksum"), std::string::npos);
  // The corruption is the reader's private copy: the stored block is
  // intact.
  faulty->corrupt_reads = false;
  EXPECT_TRUE(faulty->Read("k", deserialize).ok());
}

TEST(FailureInjectionTest, RetriesRecoverFromTransientGetFaults) {
  // With a retry budget, a storage fault that heals after a few
  // injected failures is absorbed: the run completes and the report
  // carries the retry accounting.
  auto faulty = std::make_shared<FaultyStorage>(
      std::make_shared<storage::InMemoryStorage>());
  faulty->ops_until_get_failure = 5;
  faulty->get_failures_remaining = 2;  // heal after two failures
  algos::MatmulWorkflow wf = SmallWorkflow();
  RunOptions options = StorageOptions();
  options.max_retries = 3;
  options.retry_backoff_s = 1e-4;
  ThreadPoolExecutor executor(options, faulty);
  auto report = executor.Execute(wf.graph);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->faults.retries, 1);
  EXPECT_FALSE(report->attempts.empty());
  bool saw_failed_attempt = false;
  for (const TaskAttempt& attempt : report->attempts) {
    if (attempt.outcome == AttemptOutcome::kFailed) saw_failed_attempt = true;
  }
  EXPECT_TRUE(saw_failed_attempt);
  bool saw_retried_record = false;
  for (const TaskRecord& rec : report->records) {
    if (rec.attempt > 1) saw_retried_record = true;
  }
  EXPECT_TRUE(saw_retried_record);
}

TEST(FailureInjectionTest, RetriesExhaustedSurfaceCleanStatus) {
  // A permanent fault defeats the retry budget; the failure surfaces
  // as the task's final Status (with attempt context), never a hang.
  auto faulty = std::make_shared<FaultyStorage>(
      std::make_shared<storage::InMemoryStorage>());
  faulty->ops_until_get_failure = 5;  // permanent: default huge budget
  algos::MatmulWorkflow wf = SmallWorkflow();
  RunOptions options = StorageOptions();
  options.max_retries = 2;
  options.retry_backoff_s = 1e-4;
  ThreadPoolExecutor executor(options, faulty);
  auto report = executor.Execute(wf.graph);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInternal);
  EXPECT_NE(report.status().message().find("attempt"), std::string::npos);
}

// Versioned block cache under fault-driven INOUT retries: a failed
// write attempt must not leave a poisoned cache entry that the retry
// (or any later reader) can consume. The accumulator chain detects
// any stale serve as a wrong final value; the run's own cache-hit
// invariant check (on by default) cross-checks every hit against the
// version oracle while it runs.
TEST(FailureInjectionTest, BlockCacheStaysExactUnderInOutRetry) {
  const auto build = [] {
    TaskGraph graph;
    const DataId base = graph.AddData(data::Matrix(4, 4, 1.0));
    const DataId acc = graph.AddData(data::Matrix(4, 4, 0.0));
    for (int i = 0; i < 3; ++i) {
      TaskSpec spec;
      spec.type = "accumulate";
      spec.params = {{base, Dir::kIn}, {acc, Dir::kInOut}};
      spec.kernel = [](const std::vector<const data::Matrix*>& inputs,
                       const std::vector<data::Matrix*>& outputs) -> Status {
        data::Matrix& m = *outputs[0];  // aliases the INOUT input
        for (int64_t j = 0; j < m.size(); ++j) {
          m.data()[j] += inputs[0]->data()[j];
        }
        return Status::OK();
      };
      EXPECT_TRUE(graph.Submit(std::move(spec)).ok());
    }
    return std::make_pair(std::move(graph), acc);
  };

  // Put schedule: staging writes base and acc (2 puts), then each
  // link writes acc once. Failing the third put kills the first
  // link's write *after* it already populated the read cache, the
  // nastiest interleaving: the retry must re-read the accumulator at
  // its pre-write version and republish.
  auto faulty = std::make_shared<FaultyStorage>(
      std::make_shared<storage::InMemoryStorage>());
  faulty->ops_until_put_failure = 2;
  faulty->put_failures_remaining = 1;
  auto [graph, acc] = build();
  RunOptions options = StorageOptions();
  options.num_threads = 1;  // chain is serial anyway; determinism
  options.block_cache = true;
  options.max_retries = 2;
  options.retry_backoff_s = 1e-4;
  ThreadPoolExecutor executor(options, faulty);
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->faults.retries, 1);

  auto got = executor.FetchData(graph, acc);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got == data::Matrix(4, 4, 3.0))
      << "retry consumed a stale or poisoned cached accumulator";

  // Same chain, cache off, clean storage: the cached faulted run must
  // match it bit-for-bit.
  auto [clean_graph, clean_acc] = build();
  RunOptions clean_options = StorageOptions();
  clean_options.num_threads = 1;
  ThreadPoolExecutor clean_executor(clean_options);
  ASSERT_TRUE(clean_executor.Execute(clean_graph).ok());
  auto want = clean_executor.FetchData(clean_graph, clean_acc);
  ASSERT_TRUE(want.ok());
  EXPECT_TRUE(*got == *want);
}

// One task {acc INOUT, y OUT} whose kernel does acc += 1; y = acc.
// The store of y fails once, after the attempt already stored acc: the
// retry must store y from the outputs it holds, not rerun the kernel
// over the acc its failed attempt left behind (which read 12).
TEST(FailureInjectionTest, RetryAfterAFailedStoreAppliesAnInOutOnce) {
  auto faulty = std::make_shared<FaultyStorage>(
      std::make_shared<storage::InMemoryStorage>());
  faulty->ops_until_put_failure = 2;  // staging acc, then the task's acc
  faulty->put_failures_remaining = 1;
  TaskGraph graph;
  const DataId acc = graph.AddData(data::Matrix(1, 1, 10.0));
  const DataId y = graph.AddData(static_cast<uint64_t>(8));
  TaskSpec spec;
  spec.type = "increment";
  spec.params = {{acc, Dir::kInOut}, {y, Dir::kOut}};
  spec.kernel = [](const KernelInputs&, const KernelOutputs& outputs) {
    outputs[0]->data()[0] += 1;  // acc, aliased by the INOUT input
    *outputs[1] = *outputs[0];
    return Status::OK();
  };
  ASSERT_TRUE(graph.Submit(std::move(spec)).ok());
  RunOptions options = StorageOptions();
  options.num_threads = 1;
  options.max_retries = 2;
  options.retry_backoff_s = 1e-4;
  ThreadPoolExecutor executor(options, faulty);
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->faults.retries, 1);
  EXPECT_EQ(executor.FetchData(graph, acc)->At(0, 0), 11.0);
  EXPECT_EQ(executor.FetchData(graph, y)->At(0, 0), 11.0);
}

TEST(FailureInjectionTest, RecoveryAfterTransientFault) {
  // A fresh executor over intact storage succeeds after a failed run
  // (no poisoned global state).
  auto faulty = std::make_shared<FaultyStorage>(
      std::make_shared<storage::InMemoryStorage>());
  faulty->ops_until_get_failure = 3;
  {
    algos::MatmulWorkflow wf = SmallWorkflow();
    ThreadPoolExecutor executor(StorageOptions(), faulty);
    ASSERT_FALSE(executor.Execute(wf.graph).ok());
  }
  faulty->ops_until_get_failure = 1 << 30;
  algos::MatmulWorkflow wf = SmallWorkflow();
  ThreadPoolExecutor executor(StorageOptions(), faulty);
  EXPECT_TRUE(executor.Execute(wf.graph).ok());
}

}  // namespace
}  // namespace taskbench::runtime
