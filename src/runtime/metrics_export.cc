#include "runtime/metrics_export.h"

#include <fstream>
#include <ostream>

#include "common/strings.h"
#include "obs/metrics.h"

namespace taskbench::runtime {

namespace {

// %.9g round-trips every value the run section carries (seconds and
// counts well below 2^53) while keeping the document compact.
std::string Num(double v) { return StrFormat("%.9g", v); }

}  // namespace

StageHists StageHists::Resolve(obs::MetricsRegistry* registry,
                               const std::string& type) {
  StageHists h;
  h.deserialize =
      registry->histogram(StrFormat("task.%s.deserialize_s", type.c_str()));
  h.compute = registry->histogram(StrFormat("task.%s.compute_s", type.c_str()));
  h.serialize =
      registry->histogram(StrFormat("task.%s.serialize_s", type.c_str()));
  h.duration =
      registry->histogram(StrFormat("task.%s.duration_s", type.c_str()));
  return h;
}

void StageHists::Record(const TaskRecord& rec) const {
  deserialize->Record(rec.stages.deserialize);
  compute->Record(rec.stages.user_code());
  serialize->Record(rec.stages.serialize);
  duration->Record(rec.duration());
}

void StageRecorder::Record(const TaskRecord& rec) {
  auto it = types_.find(rec.type);
  if (it == types_.end()) {
    it = types_.emplace(rec.type, StageHists::Resolve(registry_, rec.type))
             .first;
  }
  it->second.Record(rec);
}

void ExportCacheStats(const std::vector<storage::BlockCache::Stats>& caches,
                      obs::MetricsRegistry* registry) {
  obs::Counter* hits = registry->counter("cache.hits");
  obs::Counter* misses = registry->counter("cache.misses");
  obs::Counter* evictions = registry->counter("cache.evictions");
  obs::Counter* invalidations = registry->counter("cache.invalidations");
  obs::Gauge* peak = registry->gauge("cache.peak_bytes");
  for (const storage::BlockCache::Stats& s : caches) {
    hits->Add(s.hits);
    misses->Add(s.misses);
    evictions->Add(s.evictions);
    invalidations->Add(s.invalidations);
    peak->SetMax(static_cast<double>(s.peak_bytes));
  }
}

void StreamMetricsJson(const RunReport& report,
                       const obs::MetricsRegistry* registry,
                       std::ostream& out) {
  out << "{\n\"schema\": \"taskbench.metrics.v1\",\n";
  out << "\"run\": {\n";
  out << "  \"makespan_s\": " << Num(report.makespan) << ",\n";
  out << "  \"scheduler_overhead_s\": " << Num(report.scheduler_overhead)
      << ",\n";
  out << "  \"scheduler_phases\": {\"ready_pop_s\": "
      << Num(report.sched_phases.ready_pop_s)
      << ", \"locality_s\": " << Num(report.sched_phases.locality_s)
      << ", \"slot_pick_s\": " << Num(report.sched_phases.slot_pick_s)
      << "},\n";
  out << "  \"tasks\": " << report.records.size() << ",\n";
  out << "  \"sim_events\": " << report.sim_events;
  if (report.faults.any()) {
    out << ",\n  \"faults\": {\"injected\": " << report.faults.faults_injected
        << ", \"storage_faults\": " << report.faults.storage_faults
        << ", \"retries\": " << report.faults.retries
        << ", \"recomputed_tasks\": " << report.faults.recomputed_tasks
        << ", \"lost_blocks\": " << report.faults.lost_blocks
        << ", \"dead_nodes\": " << report.faults.dead_nodes << "}";
  }
  out << "\n},\n";
  out << "\"metrics\": ";
  if (registry != nullptr && !registry->empty()) {
    registry->WriteJson(out);
  } else {
    out << "{}";
  }
  out << "\n}\n";
}

Status WriteMetricsJson(const RunReport& report,
                        const obs::MetricsRegistry* registry,
                        const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    return Status::Internal(
        StrFormat("cannot open metrics file '%s'", path.c_str()));
  }
  StreamMetricsJson(report, registry, file);
  if (!file) {
    return Status::Internal(StrFormat("short write to '%s'", path.c_str()));
  }
  return Status::OK();
}

}  // namespace taskbench::runtime
