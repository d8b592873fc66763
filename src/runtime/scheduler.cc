#include "runtime/scheduler.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace taskbench::runtime {

namespace {

/// The task the legacy front-to-back ready scan would pick, plus the
/// processor it lands on: the lowest ready TaskId among the heads of
/// the placeable classes. A class is placeable iff the processor
/// kind(s) it may use have a free slot somewhere — an O(1) aggregate
/// lookup, so one decision never touches more than the four heads.
struct Candidate {
  TaskId id = -1;
  Processor processor = Processor::kCpu;
  PlacementClass cls = PlacementClass::kCpuOnly;
};

std::optional<Candidate> PickTask(const SchedulerView& view) {
  const bool cpu_free = view.cpu_slots->total_free() > 0;
  const bool gpu_free = view.gpu_slots->total_free() > 0;
  Candidate best;
  auto consider = [&](PlacementClass cls, bool placeable, Processor proc) {
    if (!placeable) return;
    const TaskId head = view.ready->Head(cls);
    if (head >= 0 && (best.id < 0 || head < best.id)) {
      best = Candidate{head, proc, cls};
    }
  };
  consider(PlacementClass::kCpuOnly, cpu_free, Processor::kCpu);
  consider(PlacementClass::kGpuOnly, gpu_free, Processor::kGpu);
  // A within-budget hybrid task prefers a device and spills to a core
  // only when every device is busy.
  consider(PlacementClass::kGpuOrCpu, gpu_free || cpu_free,
           gpu_free ? Processor::kGpu : Processor::kCpu);
  consider(PlacementClass::kCpuSpill, cpu_free, Processor::kCpu);
  if (best.id < 0) return std::nullopt;
  return best;
}

/// Scored variant of PickTask for the cost-model policy: the class
/// head with the highest push score among placeable classes, ties to
/// the lowest TaskId. With no scorer installed every score is 0 and
/// this degenerates to PickTask exactly.
std::optional<Candidate> PickScoredTask(const SchedulerView& view) {
  const bool cpu_free = view.cpu_slots->total_free() > 0;
  const bool gpu_free = view.gpu_slots->total_free() > 0;
  Candidate best;
  double best_score = -std::numeric_limits<double>::infinity();
  auto consider = [&](PlacementClass cls, bool placeable, Processor proc) {
    if (!placeable) return;
    const TaskId head = view.ready->Head(cls);
    if (head < 0) return;
    const double score = view.ready->HeadScore(cls);
    if (best.id < 0 || score > best_score ||
        (score == best_score && head < best.id)) {
      best = Candidate{head, proc, cls};
      best_score = score;
    }
  };
  consider(PlacementClass::kCpuOnly, cpu_free, Processor::kCpu);
  consider(PlacementClass::kGpuOnly, gpu_free, Processor::kGpu);
  consider(PlacementClass::kGpuOrCpu, gpu_free || cpu_free,
           gpu_free ? Processor::kGpu : Processor::kCpu);
  consider(PlacementClass::kCpuSpill, cpu_free, Processor::kCpu);
  if (best.id < 0) return std::nullopt;
  return best;
}

const hw::SlotIndex& SlotsFor(const SchedulerView& view, Processor p) {
  return p == Processor::kCpu ? *view.cpu_slots : *view.gpu_slots;
}

size_t NumInputs(const TaskGraph& graph, TaskId id) {
  size_t n = 0;
  for (const Param& p : graph.task(id).spec.params) {
    if (p.dir != Dir::kOut) ++n;
  }
  return n;
}

/// The one tally computation: writes `id`'s input-bytes-per-node
/// tally to `out` (room for NumInputs(graph, id) entries) — sorted by
/// node ascending, duplicate nodes merged, nodes holding none of the
/// inputs absent — and returns its entry count.
size_t ComputeTally(const TaskGraph& graph, const std::vector<int>& data_home,
                    TaskId id, std::pair<int, uint64_t>* out) {
  size_t n = 0;
  for (const Param& p : graph.task(id).spec.params) {
    if (p.dir == Dir::kOut) continue;
    const int home = data_home[static_cast<size_t>(p.data)];
    if (home >= 0) out[n++] = {home, graph.data(p.data).bytes};
  }
  std::sort(out, out + n,
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t merged = 0;
  for (size_t i = 0; i < n; ++i) {
    if (merged > 0 && out[merged - 1].first == out[i].first) {
      out[merged - 1].second += out[i].second;
    } else {
      out[merged++] = out[i];
    }
  }
  return merged;
}

/// Locality-weighted node pick shared by the data-locality and
/// cost-model policies: among free nodes, the one holding the most of
/// `id`'s input bytes; ties (including the all-zero case) go to the
/// lowest node id. The tie-break is explicit and order-independent —
/// it must not lean on the tally's vector order, which is only
/// node-ascending for a freshly (re)built entry (a partially rebuilt
/// LocalityCache entry after OnDataHomeChanged once broke this; see
/// the regression test in scheduler_test.cc).
int PickLocalityNode(const SchedulerView& view, TaskId id,
                     const hw::SlotIndex& slots) {
  std::vector<std::pair<int, uint64_t>> scratch;
  LocalityCache::Tally tally;
  if (view.locality != nullptr) {
    tally = view.locality->TallyFor(id);
  } else {
    scratch.resize(NumInputs(*view.graph, id));
    tally = LocalityCache::Tally(
        scratch.data(),
        ComputeTally(*view.graph, *view.data_home, id, scratch.data()));
  }

  // Seed with the first free node (the lowest free node id) and its
  // byte count, then let only strictly-better or lower-id-equal-bytes
  // nodes beat it. Both scans are order-independent.
  int best_node = slots.FirstFreeNode();
  TB_CHECK(best_node >= 0);
  uint64_t best_bytes = 0;
  for (const auto& [node, bytes] : tally) {
    if (node == best_node) {
      best_bytes = bytes;
      break;
    }
  }
  for (const auto& [node, bytes] : tally) {
    if (node >= slots.num_nodes() || slots.free_at(node) <= 0) continue;
    if (bytes > best_bytes || (bytes == best_bytes && node < best_node)) {
      best_node = node;
      best_bytes = bytes;
    }
  }
  return best_node;
}

}  // namespace

LocalityCache::LocalityCache(const TaskGraph& graph,
                             const std::vector<int>* data_home)
    : graph_(graph), data_home_(data_home) {
  TB_CHECK(data_home_ != nullptr);
  const auto num_tasks = static_cast<size_t>(graph.num_tasks());
  const auto num_data = static_cast<size_t>(graph.num_data());
  // Count first, then fill: the reader index and the tally ranges are
  // each one flat array.
  consumer_begin_.assign(num_data + 1, 0);
  tally_begin_.assign(num_tasks + 1, 0);
  size_t max_inputs = 0;
  for (TaskId t = 0; t < graph.num_tasks(); ++t) {
    const size_t inputs = NumInputs(graph, t);
    tally_begin_[static_cast<size_t>(t) + 1] =
        tally_begin_[static_cast<size_t>(t)] + inputs;
    max_inputs = std::max(max_inputs, inputs);
    for (const Param& p : graph.task(t).spec.params) {
      if (p.dir != Dir::kOut) {
        ++consumer_begin_[static_cast<size_t>(p.data) + 1];
      }
    }
  }
  for (size_t d = 0; d < num_data; ++d) {
    consumer_begin_[d + 1] += consumer_begin_[d];
  }
  consumers_.resize(consumer_begin_[num_data]);
  std::vector<size_t> next(consumer_begin_.begin(), consumer_begin_.end() - 1);
  for (TaskId t = 0; t < graph.num_tasks(); ++t) {
    for (const Param& p : graph.task(t).spec.params) {
      if (p.dir != Dir::kOut) {
        consumers_[next[static_cast<size_t>(p.data)]++] = t;
      }
    }
  }
  tally_.resize(tally_begin_[num_tasks]);
  tally_size_.assign(num_tasks, 0);
  dirty_.assign(num_tasks, 1);
  scratch_.resize(max_inputs);
}

LocalityCache::Tally LocalityCache::TallyFor(TaskId id) {
  const auto t = static_cast<size_t>(id);
  std::pair<int, uint64_t>* entries = tally_.data() + tally_begin_[t];
  if (dirty_[t] != 0) {
    tally_size_[t] = static_cast<uint32_t>(
        ComputeTally(graph_, *data_home_, id, entries));
    dirty_[t] = 0;
  }
  return Tally(entries, tally_size_[t]);
}

void LocalityCache::OnDataHomeChanged(DataId d) {
  const auto ds = static_cast<size_t>(d);
  for (size_t i = consumer_begin_[ds]; i < consumer_begin_[ds + 1]; ++i) {
    dirty_[static_cast<size_t>(consumers_[i])] = 1;
  }
}

bool LocalityCache::VerifyTally(TaskId id) {
  const Tally cached = TallyFor(id);
  const size_t n = ComputeTally(graph_, *data_home_, id, scratch_.data());
  return std::equal(cached.begin(), cached.end(), scratch_.begin(),
                    scratch_.begin() + static_cast<std::ptrdiff_t>(n));
}

std::unique_ptr<Scheduler> MakeScheduler(SchedulingPolicy policy) {
  switch (policy) {
    case SchedulingPolicy::kTaskGenerationOrder:
      return std::make_unique<TaskGenerationOrderScheduler>();
    case SchedulingPolicy::kDataLocality:
      return std::make_unique<DataLocalityScheduler>();
    case SchedulingPolicy::kCostModel:
      return std::make_unique<CostModelScheduler>();
  }
  return std::make_unique<TaskGenerationOrderScheduler>();
}

std::optional<SchedulingPolicy> ParseSchedulingPolicy(
    const std::string& name) {
  if (name == "fifo" || name == "gen" || name == "gen-order" ||
      name == "task-gen-order") {
    return SchedulingPolicy::kTaskGenerationOrder;
  }
  if (name == "locality" || name == "data-locality") {
    return SchedulingPolicy::kDataLocality;
  }
  if (name == "cost" || name == "cost-model") {
    return SchedulingPolicy::kCostModel;
  }
  return std::nullopt;
}

std::optional<Assignment> TaskGenerationOrderScheduler::Decide(
    const SchedulerView& view) {
  TB_CHECK(view.graph && view.ready && view.cpu_slots && view.gpu_slots);
  const auto pick = PickTask(view);
  if (!pick.has_value()) return std::nullopt;
  const int node = SlotsFor(view, pick->processor).FirstFreeNode();
  TB_CHECK(node >= 0);
  return Assignment{pick->id, node, pick->processor};
}

std::optional<Assignment> DataLocalityScheduler::Decide(
    const SchedulerView& view) {
  TB_CHECK(view.graph && view.ready && view.cpu_slots && view.gpu_slots &&
           view.data_home);
  const auto pick = PickTask(view);
  if (!pick.has_value()) return std::nullopt;
  const hw::SlotIndex& slots = SlotsFor(view, pick->processor);
  const int node = PickLocalityNode(view, pick->id, slots);
  return Assignment{pick->id, node, pick->processor};
}

std::optional<Assignment> CostModelScheduler::Decide(
    const SchedulerView& view) {
  TB_CHECK(view.graph && view.ready && view.cpu_slots && view.gpu_slots &&
           view.data_home);
  const auto pick = PickScoredTask(view);
  if (!pick.has_value()) return std::nullopt;
  const hw::SlotIndex& slots = SlotsFor(view, pick->processor);
  const int node = PickLocalityNode(view, pick->id, slots);
  return Assignment{pick->id, node, pick->processor};
}

}  // namespace taskbench::runtime
