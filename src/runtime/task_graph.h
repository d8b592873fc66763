#ifndef TASKBENCH_RUNTIME_TASK_GRAPH_H_
#define TASKBENCH_RUNTIME_TASK_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "data/matrix.h"
#include "perf/task_cost.h"

namespace taskbench::runtime {

using TaskId = int64_t;
using DataId = int64_t;

/// Direction of a task parameter, the COMPSs annotation that drives
/// automatic dependency detection (Section 3.1).
enum class Dir { kIn, kOut, kInOut };

/// One task parameter: a logical datum plus its access direction.
struct Param {
  DataId data;
  Dir dir;
};

/// What a kernel reads: IN then INOUT param values, in declaration
/// order. INOUT entries alias their output slots.
using KernelInputs = std::vector<const data::Matrix*>;
/// What a kernel writes: OUT then INOUT param slots.
using KernelOutputs = std::vector<data::Matrix*>;

/// A kernel without arguments.
using PlainKernel = Status (*)(const KernelInputs& inputs,
                               const KernelOutputs& outputs);

/// A kernel as plain data: a function pointer plus argument bytes.
/// Every executor calls `fn(args, inputs, outputs)`. The multi-process
/// executor copies `fn` and `args` into shared memory for workers that
/// were forked before the graph existed: the address of a function is
/// the same in every worker because workers are forked, never exec'd.
///
/// Arguments are copied bytes, so a pointer in them means something
/// only where the kernel runs. On the thread pool that is the caller's
/// address space; on the multi-process plane it is a worker forked
/// from the caller, where only MAP_SHARED memory mapped before the
/// executor forked its workers is both visible and shared.
/// Process-global state a kernel reads (data::SetDefaultKernelVariant)
/// is likewise fixed in a worker at its fork.
///
/// Build one from a plain kernel function or captureless lambda
/// (`spec.kernel = MyKernel;`), with BindKernel for trivially copyable
/// arguments, or directly from `fn` and hand-packed bytes for
/// variable-length arguments.
struct KernelFn {
  using Fn = Status (*)(std::string_view args, const KernelInputs& inputs,
                        const KernelOutputs& outputs);

  KernelFn() = default;
  /// No kernel, as a null function pointer would say.
  KernelFn(std::nullptr_t) {}
  KernelFn(Fn f, std::string a) : fn(f), args(std::move(a)) {}
  /// A kernel without arguments; also accepts a captureless lambda.
  template <typename F>
    requires std::is_convertible_v<F, PlainKernel>
  KernelFn(F f);

  Status operator()(const KernelInputs& inputs,
                    const KernelOutputs& outputs) const {
    return fn(args, inputs, outputs);
  }
  friend bool operator==(const KernelFn& k, std::nullptr_t) {
    return k.fn == nullptr;
  }

  Fn fn = nullptr;
  std::string args;
};

namespace kernel_internal {

template <typename T>
T Take(const char*& p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  p += sizeof(T);
  return value;
}

/// Unpacks what BindKernel packed: the bound function, then each
/// argument in order (a braced list evaluates left to right).
template <typename... A>
Status CallBound(std::string_view args, const KernelInputs& inputs,
                 const KernelOutputs& outputs) {
  using Bound = Status (*)(const KernelInputs&, const KernelOutputs&, A...);
  const char* p = args.data();
  const Bound fn = Take<Bound>(p);
  std::tuple<A...> values{Take<A>(p)...};
  return std::apply([&](A... a) { return fn(inputs, outputs, a...); },
                    values);
}

}  // namespace kernel_internal

/// Binds trivially copyable arguments (pointers, enums, doubles) to
/// `fn`, which receives them after the inputs and outputs. The bytes
/// are the function pointer then each argument, so a kernel with up
/// to 7 bytes of arguments stays in std::string's inline buffer.
template <typename... A>
KernelFn BindKernel(Status (*fn)(const KernelInputs&, const KernelOutputs&,
                                 A...),
                    std::type_identity_t<A>... args) {
  static_assert(((std::is_trivially_copyable_v<A> &&
                  !std::is_reference_v<A> && !std::is_const_v<A>) &&
                 ...),
                "kernel arguments travel as bytes: pass them by value");
  std::string bytes(sizeof(fn) + (sizeof(A) + ... + 0), '\0');
  char* p = bytes.data();
  std::memcpy(p, &fn, sizeof(fn));
  p += sizeof(fn);
  ((std::memcpy(p, &args, sizeof(A)), p += sizeof(A)), ...);
  return KernelFn(&kernel_internal::CallBound<A...>, std::move(bytes));
}

template <typename F>
  requires std::is_convertible_v<F, PlainKernel>
KernelFn::KernelFn(F f) : KernelFn(BindKernel(static_cast<PlainKernel>(f))) {}

/// Everything the runtime needs to know about one submitted task.
struct TaskSpec {
  /// Task type name, e.g. "matmul_func"; metrics aggregate by type
  /// (Section 4.2 "tasks running the same code are aggregated").
  std::string type;
  std::vector<Param> params;
  /// Kernel for the real (thread-pool and multi-process) execution
  /// paths. May be null when the graph is only simulated.
  KernelFn kernel;
  /// Cost descriptor for the simulated path and the analytic model.
  perf::TaskCost cost;
  /// Processor the parallel fraction targets when accelerating.
  Processor processor = Processor::kCpu;
};

/// A task node: the spec plus the dependencies the runtime derived.
struct Task {
  TaskId id = -1;
  TaskSpec spec;
  std::vector<TaskId> deps;        ///< must complete before this task
  std::vector<TaskId> successors;  ///< tasks depending on this one
  int level = 0;                   ///< longest-path depth in the DAG
};

/// A logical datum (usually one block) tracked by the runtime.
struct DataEntry {
  DataId id = -1;
  std::string name;
  uint64_t bytes = 0;
  /// Node the datum currently lives on (locality scheduling input);
  /// -1 = unplaced.
  int home_node = -1;
  /// Materialized value; absent in simulation-only graphs.
  std::optional<data::Matrix> value;
  /// Version counter; bumped on every write (diagnostics).
  int version = 0;
};

/// The workflow DAG builder — the COMPSs-equivalent runtime frontend.
///
/// Applications register data, then submit tasks with IN/OUT/INOUT
/// parameter annotations; the graph derives true (RAW), anti (WAR)
/// and output (WAW) dependencies from the access history of each
/// datum, exactly as a task-based system builds its execution DAG
/// (Section 3.1). The DAG shape exposes the paper's structural
/// metrics: width = degree of task parallelism, height = degree of
/// task dependency.
class TaskGraph {
 public:
  TaskGraph() = default;
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;
  TaskGraph(TaskGraph&&) = default;
  TaskGraph& operator=(TaskGraph&&) = default;

  /// Registers a logical datum of `bytes` (simulation mode).
  DataId AddData(uint64_t bytes, std::string name = "", int home_node = -1);

  /// Registers a materialized datum (real-execution mode).
  DataId AddData(data::Matrix value, std::string name = "",
                 int home_node = -1);

  /// Submits a task; dependencies are derived automatically.
  /// Fails when a parameter references an unknown datum or the spec
  /// has no parameters.
  Result<TaskId> Submit(TaskSpec spec);

  int64_t num_tasks() const { return static_cast<int64_t>(tasks_.size()); }
  int64_t num_data() const { return static_cast<int64_t>(data_.size()); }

  const Task& task(TaskId id) const { return tasks_[static_cast<size_t>(id)]; }
  const DataEntry& data(DataId id) const {
    return data_[static_cast<size_t>(id)];
  }
  DataEntry& mutable_data(DataId id) { return data_[static_cast<size_t>(id)]; }

  /// Tasks grouped by DAG level (level = longest dependency path from
  /// any root). The paper's "parallel task execution time" metric is
  /// computed per level.
  std::vector<std::vector<TaskId>> LevelSets() const;

  /// Maximum number of tasks in one level — the DAG width feature of
  /// the correlation analysis (Figure 11).
  int64_t MaxWidth() const;

  /// Number of levels — the DAG height feature.
  int64_t MaxHeight() const {
    return static_cast<int64_t>(level_widths_.size());
  }

  /// Graphviz DOT rendering (Figure 6 style: one node per task,
  /// labeled with type; edges are dependencies).
  std::string ToDot() const;

  /// Validates the graph is acyclic and consistent (defensive; the
  /// builder cannot create cycles, but subclasses of executors rely
  /// on this invariant).
  Status Validate() const;

 private:
  struct AccessHistory {
    TaskId last_writer = -1;
    std::vector<TaskId> readers_since_write;
  };

  std::vector<Task> tasks_;
  std::vector<DataEntry> data_;
  std::vector<AccessHistory> history_;
  std::vector<int64_t> level_widths_;  ///< tasks per level, by level
};

}  // namespace taskbench::runtime

#endif  // TASKBENCH_RUNTIME_TASK_GRAPH_H_
