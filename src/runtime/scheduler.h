#ifndef TASKBENCH_RUNTIME_SCHEDULER_H_
#define TASKBENCH_RUNTIME_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "hw/cluster.h"
#include "hw/slot_index.h"
#include "runtime/metrics.h"
#include "runtime/ready_queue.h"
#include "runtime/task_graph.h"

namespace taskbench::runtime {

/// Per-task cache of "input bytes per node" for the data-locality
/// policy.
///
/// The locality scheduler weighs candidate nodes by how many input
/// bytes they already hold. Rebuilding that tally from scratch on
/// every visit (the legacy std::map per decision) is wasted work: a
/// task's tally only changes when one of *its* inputs moves. The
/// cache keeps every task's node-ascending (node, bytes) tally in one
/// flat array, each task's range sized once to its input count, and a
/// flat reverse datum→consumers index; a data-home change dirties
/// exactly the consuming tasks' entries. Nothing allocates after
/// construction.
class LocalityCache {
 public:
  using Tally = std::span<const std::pair<int, uint64_t>>;

  /// `data_home` is the executor's live placement vector (index =
  /// DataId); the cache reads it lazily on rebuild.
  LocalityCache(const TaskGraph& graph, const std::vector<int>* data_home);

  /// Input-bytes-per-node tally of `id`, sorted by node ascending.
  /// Nodes holding none of the task's inputs are absent. The span
  /// points into the cache; its entries are rewritten when a moved
  /// input forces the next TallyFor(id) to rebuild them.
  Tally TallyFor(TaskId id);

  /// Invalidates the cached tallies of every task reading `d`. Call
  /// whenever data_home[d] changes.
  void OnDataHomeChanged(DataId d);

  /// Invariant check (docs/TESTING.md): true iff TallyFor(id) matches
  /// a fresh recompute from the live data_home. A clean-but-stale
  /// entry — some data_home write path forgot OnDataHomeChanged, e.g.
  /// lineage-based re-materialization after a fault — returns false.
  /// Executors sample this behind check_invariants on tallies they
  /// actually used in a decision.
  bool VerifyTally(TaskId id);

 private:
  const TaskGraph& graph_;
  const std::vector<int>* data_home_;
  /// Datum d's reader tasks are consumers_[consumer_begin_[d] ..
  /// consumer_begin_[d + 1]).
  std::vector<size_t> consumer_begin_;
  std::vector<TaskId> consumers_;
  /// Task t's tally is tally_[tally_begin_[t] .. + tally_size_[t]); its
  /// range holds one entry per input param, the most a tally can need.
  std::vector<size_t> tally_begin_;
  std::vector<uint32_t> tally_size_;
  std::vector<std::pair<int, uint64_t>> tally_;
  std::vector<char> dirty_;
  /// VerifyTally's fresh recompute, sized to the largest input count.
  std::vector<std::pair<int, uint64_t>> scratch_;
};

/// The incrementally-maintained cluster state a scheduler decides on.
/// All pointers are owned by the executor and stay valid (and live —
/// they are not snapshots) across the run.
struct SchedulerView {
  const TaskGraph* graph = nullptr;
  /// Ready tasks, bucketed by placement class, FIFO by submission id
  /// within each class (the "task generation order").
  const ReadyQueue* ready = nullptr;
  /// Free CPU-core / GPU-device slots per node with O(1) aggregates.
  const hw::SlotIndex* cpu_slots = nullptr;
  const hw::SlotIndex* gpu_slots = nullptr;
  /// Current home node of every datum (index = DataId); -1 unknown.
  const std::vector<int>* data_home = nullptr;
  /// Cached input-locality tallies; may be null (the locality policy
  /// then computes tallies ad hoc).
  LocalityCache* locality = nullptr;
};

/// One scheduling decision: run `task` on `node` using `processor`
/// (which may differ from the task's preferred processor in hybrid
/// mode).
struct Assignment {
  TaskId task = -1;
  int node = -1;
  Processor processor = Processor::kCpu;
};

/// Pluggable scheduling policy (Section 3.2). Implementations must be
/// deterministic: given the same view they return the same decision.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  /// Master-side cost of one scheduling decision, seconds. The
  /// simulated executor serializes decisions through the master, so
  /// expensive policies throttle fine-grained workloads — the
  /// "task scheduling overhead" system function of Table 1. The cost
  /// depends on the storage architecture: locality decisions consult
  /// data locations, which is an in-memory lookup for node-local data
  /// the master placed itself but a metadata query against the shared
  /// filesystem otherwise — the reason policy changes are felt more
  /// on shared disks (observation O6).
  virtual double DecisionOverhead(hw::StorageArchitecture storage) const = 0;

  /// DecisionOverhead(storage) split by decision phase: popping the
  /// candidate off the ready heaps, consulting data locations, and
  /// picking the target slot. The three components sum exactly to
  /// DecisionOverhead(storage) — the executor relies on that to keep
  /// the profiled breakdown consistent with `scheduler_overhead`.
  virtual SchedulerPhaseBreakdown DecisionPhases(
      hw::StorageArchitecture storage) const = 0;

  /// Returns the next assignment, or nullopt when no ready task can
  /// be placed (all slots busy). Called repeatedly until nullopt.
  /// Both built-in policies run in O(log ready) per call: placement
  /// feasibility is uniform within a ReadyQueue class, so only the
  /// class heads are ever candidates.
  virtual std::optional<Assignment> Decide(const SchedulerView& view) = 0;
};

/// Creates the scheduler implementing `policy`.
std::unique_ptr<Scheduler> MakeScheduler(SchedulingPolicy policy);

/// Parses a policy name (CLI / service config). Accepts the canonical
/// ToString form plus short aliases: "fifo" | "gen" |
/// "task-gen-order", "locality" | "data-locality", "cost" |
/// "cost-model". Returns nullopt for anything else.
std::optional<SchedulingPolicy> ParseSchedulingPolicy(const std::string& name);

/// FIFO by task submission id; places on the first node with a free
/// slot. Cheap decisions (the paper's low-overhead policy).
class TaskGenerationOrderScheduler final : public Scheduler {
 public:
  std::string name() const override { return "task-gen-order"; }
  double DecisionOverhead(hw::StorageArchitecture) const override {
    return 0.8e-3;
  }
  /// No locality phase: the policy never looks at data locations.
  SchedulerPhaseBreakdown DecisionPhases(
      hw::StorageArchitecture) const override {
    return {0.5e-3, 0.0, 0.3e-3};
  }
  std::optional<Assignment> Decide(const SchedulerView& view) override;
};

/// FIFO by task submission id; places each task on the free node
/// holding the most input bytes. More expensive per decision (it
/// inspects data locations), the paper's high-overhead policy.
class DataLocalityScheduler final : public Scheduler {
 public:
  std::string name() const override { return "data-locality"; }
  double DecisionOverhead(hw::StorageArchitecture storage) const override {
    return storage == hw::StorageArchitecture::kLocalDisk ? 1.5e-3 : 12e-3;
  }
  /// The locality lookup dominates on shared storage, where data
  /// locations are a metadata query against the shared filesystem
  /// rather than the master's in-memory placement table.
  SchedulerPhaseBreakdown DecisionPhases(
      hw::StorageArchitecture storage) const override {
    const double locality =
        storage == hw::StorageArchitecture::kLocalDisk ? 0.7e-3 : 11.2e-3;
    return {0.5e-3, locality, 0.3e-3};
  }
  std::optional<Assignment> Decide(const SchedulerView& view) override;
};

/// Scored policy (ROADMAP item 2, docs/SCHEDULERS.md): picks the
/// highest-scoring ready task (HEFT-style upward rank blended with
/// slack and age — the executor installs the score function on the
/// ReadyQueue, see SchedulerConfig) and places it like the locality
/// policy, on the free node holding the most input bytes. The
/// scheduler itself is stateless: the score lives in the ready heaps,
/// so a decision still touches only the four class heads — O(log
/// ready). Hedging and escalation are executor-side mechanisms keyed
/// off this policy, not part of Decide.
class CostModelScheduler final : public Scheduler {
 public:
  std::string name() const override { return "cost-model"; }
  /// Locality lookup cost matches the locality policy (same metadata
  /// queries); the score comparison adds 0.2e-3 to the ready-pop
  /// phase.
  double DecisionOverhead(hw::StorageArchitecture storage) const override {
    return storage == hw::StorageArchitecture::kLocalDisk ? 1.7e-3 : 12.2e-3;
  }
  SchedulerPhaseBreakdown DecisionPhases(
      hw::StorageArchitecture storage) const override {
    const double locality =
        storage == hw::StorageArchitecture::kLocalDisk ? 0.7e-3 : 11.2e-3;
    return {0.7e-3, locality, 0.3e-3};
  }
  std::optional<Assignment> Decide(const SchedulerView& view) override;
};

}  // namespace taskbench::runtime

#endif  // TASKBENCH_RUNTIME_SCHEDULER_H_
