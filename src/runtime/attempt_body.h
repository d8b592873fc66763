#ifndef TASKBENCH_RUNTIME_ATTEMPT_BODY_H_
#define TASKBENCH_RUNTIME_ATTEMPT_BODY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/matrix.h"
#include "perf/cost_model.h"
#include "runtime/task_graph.h"
#include "storage/block_cache.h"

namespace taskbench::runtime {

/// Where a real executor keeps a run's blocks: the thread pool's block
/// storage or in-memory value store, or the multi-process arena.
/// AttemptBody reads and stores every block through one, behind the
/// worker's block cache.
class BlockPlane {
 public:
  virtual ~BlockPlane() = default;

  /// The version param `param` of task `t` reads datum `d` at, which
  /// the block cache keys it by.
  virtual Result<uint64_t> ReadVersion(TaskId t, size_t param, DataId d) = 0;
  /// A private copy of `d` at `version`, which a kernel may update in
  /// place; adds the time spent deserializing to `*seconds`.
  virtual Result<data::Matrix> Copy(DataId d, uint64_t version,
                                    double* seconds) = 0;
  /// A shared handle on `d` at `version`; by default a wrapped Copy.
  virtual Result<std::shared_ptr<const data::Matrix>> Share(DataId d,
                                                            uint64_t version,
                                                            double* seconds);
  /// Stores `value` as what param `param` of task `t` writes to `d`,
  /// adding the time spent serializing to `*seconds`; returns the
  /// version its readers ask for. A plane without a cache may move
  /// `value` out.
  virtual Result<uint64_t> Store(TaskId t, size_t param, DataId d,
                                 data::Matrix& value, double* seconds) = 0;
};

/// One attempt of one task on a real executor. Compute reads the
/// task's inputs and runs its kernel; Store writes its outputs. The
/// caller decides what happens in between (the thread pool takes the
/// ledger's claim there, the process plane checks its directory tags),
/// so outputs reach shared state only from the attempt allowed to
/// publish them.
class AttemptBody {
 public:
  AttemptBody(TaskId task, std::span<const Param> params, KernelFn::Fn fn,
              std::string_view args)
      : task_(task), params_(params), fn_(fn), args_(args) {}

  /// Reads the inputs through `cache` (when set) and `plane`, and runs
  /// the kernel, starting over on every call. IN values are shared;
  /// INOUT values are private copies the kernel updates in place (a
  /// cache hit is copied, a miss not inserted: this task is about to
  /// overwrite the datum) and come after the IN values.
  Status Compute(BlockPlane& plane, storage::BlockCache* cache);
  /// Stores the outputs not stored yet, writing each through `cache`.
  /// After a failed store a call resumes with that output, from the
  /// values this attempt holds: nothing is reread or recomputed.
  Status Store(BlockPlane& plane, storage::BlockCache* cache);

  /// The kernel ran and the outputs await Store.
  bool computed() const { return computed_; }

  /// Deserialize, kernel (parallel_fraction) and serialize time; the
  /// caller resets it when an attempt starts.
  perf::StageTimes stages;

 private:
  struct Output {
    size_t param = 0;
    data::Matrix value;
  };

  TaskId task_;
  std::span<const Param> params_;
  KernelFn::Fn fn_;
  std::string_view args_;
  std::vector<Output> outputs_;  ///< non-IN params, in declaration order
  size_t stored_ = 0;
  bool computed_ = false;
};

/// FailedPrecondition naming the first task without a kernel: a
/// simulation-only graph cannot run on `executor` (a real executor).
Status CheckKernels(const TaskGraph& graph, std::string_view executor);

}  // namespace taskbench::runtime

#endif  // TASKBENCH_RUNTIME_ATTEMPT_BODY_H_
