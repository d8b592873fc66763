#ifndef TASKBENCH_RUNTIME_METRICS_H_
#define TASKBENCH_RUNTIME_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "perf/cost_model.h"
#include "runtime/task_graph.h"

namespace taskbench::runtime {

/// Execution record of one task: placement, per-stage durations and
/// the start/end timestamps (simulated seconds for the simulated
/// executor, wall-clock seconds for the thread-pool executor).
struct TaskRecord {
  TaskId task = -1;
  std::string type;
  int level = 0;
  Processor processor = Processor::kCpu;
  int node = -1;
  int slot = -1;
  perf::StageTimes stages;
  double start = 0;
  double end = 0;
  /// Which attempt finally completed (1 = first try; > 1 means the
  /// task was retried after an injected fault).
  int attempt = 1;

  double duration() const { return end - start; }
};

/// Outcome of one task attempt under fault injection.
enum class AttemptOutcome : uint8_t {
  kCompleted,       ///< ran to completion
  kNodeLost,        ///< killed mid-flight by a node crash
  kDeviceLost,      ///< killed mid-flight by a GPU loss
  kStorageFault,    ///< a storage read or write failed transiently
  kFailed,          ///< non-recoverable failure (retries exhausted)
  kHedgeCancelled,  ///< speculative duplicate cancelled — its twin won
};

std::string ToString(AttemptOutcome outcome);

/// One ended task attempt, as RunReport::attempts logs it.
struct TaskAttempt {
  TaskId task = -1;
  int attempt = 1;
  int node = -1;
  Processor processor = Processor::kCpu;
  double start = 0;
  double end = 0;
  AttemptOutcome outcome = AttemptOutcome::kCompleted;
};

/// Fault-tolerance counters for one run. All zero on fault-free runs.
struct FaultStats {
  int64_t faults_injected = 0;   ///< discrete fault events fired
  int64_t storage_faults = 0;    ///< transient storage op failures
  int64_t retries = 0;           ///< task attempts beyond the first
  int64_t recomputed_tasks = 0;  ///< completed tasks re-run to rebuild
                                 ///< blocks lost with a node
  int64_t lost_blocks = 0;       ///< data blocks lost with dead nodes
  int64_t dead_nodes = 0;        ///< nodes out of service at the end
  int64_t hedges = 0;            ///< speculative straggler duplicates
                                 ///< launched (cost-model policy)

  bool any() const {
    return faults_injected || storage_faults || retries ||
           recomputed_tasks || lost_blocks || dead_nodes || hedges;
  }
};

/// Master scheduling time split by decision phase — the breakdown of
/// the paper's `scheduler_overhead` scalar (Section 4.4.3's
/// "scheduler-side" accounting). Per decision the simulated master
/// spends time (a) popping the candidate off the ready heaps, (b)
/// consulting data locations (zero for location-blind policies, and
/// the dominant term for locality scheduling on shared storage, where
/// it is a metadata query), and (c) picking the target slot. The
/// three accumulators sum to `RunReport::scheduler_overhead` by
/// construction.
struct SchedulerPhaseBreakdown {
  double ready_pop_s = 0;   ///< candidate selection off the ready set
  double locality_s = 0;    ///< data-location lookups
  double slot_pick_s = 0;   ///< free-slot search / node assignment

  double total() const { return ready_pop_s + locality_s + slot_pick_s; }
  bool any() const {
    return ready_pop_s != 0 || locality_s != 0 || slot_pick_s != 0;
  }
};

/// Timing of one DAG level — the paper's "parallel task execution
/// time" is the average level duration (Section 4.2, task level
/// metrics), including all data movement overheads.
struct LevelStat {
  int level = 0;
  int num_tasks = 0;
  /// max(end) - min(start) over the level's tasks.
  double duration = 0;
};

/// Aggregated outcome of one workflow execution.
struct RunReport {
  std::vector<TaskRecord> records;
  /// Total execution time (last task end).
  double makespan = 0;
  /// Master time spent making scheduling decisions.
  double scheduler_overhead = 0;
  /// Per-phase split of scheduler_overhead (simulated executor only;
  /// all zero on the thread-pool path, which has no modeled master).
  SchedulerPhaseBreakdown sched_phases;
  /// Discrete events the simulator executed for this run (simulated
  /// executor only; 0 for the thread-pool path). Lets the scaling
  /// benches report events/second of the engine itself.
  uint64_t sim_events = 0;
  /// Fault-tolerance counters; all zero when no faults were injected.
  FaultStats faults;
  /// Per-task attempt log (runtime::AttemptLedger): kept by the
  /// simulator under a fault plan and by the real executors under a
  /// retry budget (max_retries > 0); empty otherwise.
  std::vector<TaskAttempt> attempts;

  /// Mean per-stage times per task type ("tasks running the same code
  /// are aggregated together", Section 4.2).
  std::map<std::string, perf::StageTimes> MeanStagesByType() const;

  /// Number of executed tasks per type.
  std::map<std::string, int> CountByType() const;

  /// Mean stages across all tasks.
  perf::StageTimes MeanStages() const;

  /// Per-level durations, ordered by level.
  std::vector<LevelStat> LevelStats() const;

  /// Mean level duration — the "parallel task execution time" metric.
  double MeanLevelTime() const;

  /// Total (de)serialization time summed over tasks — the data
  /// movement overhead the paper groups per CPU core.
  double TotalDeserializeTime() const;
  double TotalSerializeTime() const;

  /// Sum of all task durations (slot-seconds of occupied slots).
  double TotalBusyTime() const;

  /// Mean slot utilization over the run: TotalBusyTime divided by
  /// (total_slots x makespan). The "resource wastage" indicator —
  /// pure GPU execution on the Minotauro shape leaves ~120 of 160
  /// slots idle; hybrid placement closes the gap.
  double SlotUtilization(int total_slots) const;

  /// Busy slot-seconds per node (index = node id; -1 records land in
  /// node 0).
  std::vector<double> BusyTimeByNode() const;
};

}  // namespace taskbench::runtime

#endif  // TASKBENCH_RUNTIME_METRICS_H_
