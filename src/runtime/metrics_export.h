#ifndef TASKBENCH_RUNTIME_METRICS_EXPORT_H_
#define TASKBENCH_RUNTIME_METRICS_EXPORT_H_

#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "runtime/metrics.h"
#include "storage/block_cache.h"

namespace taskbench::obs {
class Histogram;
class MetricsRegistry;
}

namespace taskbench::runtime {

/// One task type's stage histograms, which every executor records each
/// completed task into: task.<type>.deserialize_s, .compute_s,
/// .serialize_s and .duration_s. Resolve them once per type and run;
/// a record is then four histogram updates, with no name formatting
/// or lookup.
struct StageHists {
  obs::Histogram* deserialize = nullptr;
  obs::Histogram* compute = nullptr;
  obs::Histogram* serialize = nullptr;
  obs::Histogram* duration = nullptr;

  /// Finds or creates the four histograms of `type` in `registry`.
  static StageHists Resolve(obs::MetricsRegistry* registry,
                            const std::string& type);
  /// Records one completed task's stage times and duration. The
  /// compute sample is the user code time (serial + parallel + CPU-GPU
  /// communication), which is the kernel time on the real executors.
  void Record(const TaskRecord& rec) const;
};

/// Records completed tasks into their type's StageHists in one
/// registry, resolving a type's histograms the first time it is seen.
class StageRecorder {
 public:
  explicit StageRecorder(obs::MetricsRegistry* registry)
      : registry_(registry) {}
  void Record(const TaskRecord& rec);

 private:
  obs::MetricsRegistry* registry_;
  std::map<std::string, StageHists, std::less<>> types_;
};

/// Adds one run's block-cache counters (cache.hits, .misses,
/// .evictions, .invalidations) and raises the cache.peak_bytes gauge to
/// the largest worker's peak. `caches` holds each worker's stats.
void ExportCacheStats(const std::vector<storage::BlockCache::Stats>& caches,
                      obs::MetricsRegistry* registry);

/// Streams the run-metrics JSON document:
///
///   {
///     "schema": "taskbench.metrics.v1",
///     "run": {
///       "makespan_s": ..., "scheduler_overhead_s": ...,
///       "scheduler_phases": {"ready_pop_s": ..., "locality_s": ...,
///                            "slot_pick_s": ...},
///       "tasks": ..., "sim_events": ...,
///       "faults": {...}            // only when any fault fired
///     },
///     "metrics": {"counters": ..., "gauges": ..., "histograms": ...}
///   }
///
/// `registry` may be null (telemetry disabled); "metrics" is then {}.
/// Every string is JSON-escaped and the document parses cleanly.
void StreamMetricsJson(const RunReport& report,
                       const obs::MetricsRegistry* registry,
                       std::ostream& out);

/// StreamMetricsJson to `path`.
Status WriteMetricsJson(const RunReport& report,
                        const obs::MetricsRegistry* registry,
                        const std::string& path);

}  // namespace taskbench::runtime

#endif  // TASKBENCH_RUNTIME_METRICS_EXPORT_H_
