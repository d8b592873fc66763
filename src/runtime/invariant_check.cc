#include "runtime/invariant_check.h"

#include <algorithm>

#include "common/strings.h"

namespace taskbench::runtime {

VersionOracle VersionOracle::Build(const TaskGraph& graph) {
  VersionOracle oracle;
  oracle.offsets_.reserve(static_cast<size_t>(graph.num_tasks()));
  std::vector<int> write_count(static_cast<size_t>(graph.num_data()), 0);
  for (TaskId t = 0; t < graph.num_tasks(); ++t) {
    oracle.offsets_.push_back(oracle.ordinals_.size());
    for (const Param& p : graph.task(t).spec.params) {
      int& count = write_count[static_cast<size_t>(p.data)];
      if (p.dir == Dir::kIn) {
        oracle.ordinals_.push_back(count);
      } else {
        oracle.ordinals_.push_back(++count);
      }
    }
  }
  return oracle;
}

Status CheckBusyTimeBound(const std::vector<TaskRecord>& records,
                          int workers) {
  double busy = 0;
  double makespan = 0;
  for (const TaskRecord& rec : records) {
    busy += rec.duration();
    makespan = std::max(makespan, rec.end);
  }
  const double cap = makespan * workers;
  if (busy > cap + 1e-9 * cap + 1e-12) {
    return Status::FailedPrecondition(StrFormat(
        "invariant violation: total busy time %.17g exceeds %d "
        "workers x makespan %.17g",
        busy, workers, makespan));
  }
  return Status::OK();
}

}  // namespace taskbench::runtime
