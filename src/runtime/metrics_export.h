#ifndef TASKBENCH_RUNTIME_METRICS_EXPORT_H_
#define TASKBENCH_RUNTIME_METRICS_EXPORT_H_

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "runtime/metrics.h"

namespace taskbench::obs {
class Histogram;
class MetricsRegistry;
}

namespace taskbench::runtime {

/// One task type's stage histograms, which both real executors record
/// every completed task into: task.<type>.deserialize_s, .compute_s,
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
  /// Records one completed task's stage times and duration.
  void Record(const TaskRecord& rec) const;
};

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
