// Fault-recovery study (extension beyond the paper's fault-free
// measurements): how the simulated makespan degrades as deterministic
// faults are injected, and what the recovery machinery pays for it.
// Series:
//   (a) transient storage faults — makespan and retry volume vs the
//       per-op failure probability, both storage architectures;
//   (b) node crashes — makespan, recomputed tasks and lost blocks vs
//       the number of nodes crashing mid-run (local disk, where block
//       loss forces lineage recovery);
//   (c) degraded hardware — one slow node vs one lost GPU.
// Every row replays a fixed seeded FaultPlan, so reruns print
// identical numbers.

#include <cstdio>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/report.h"
#include "common/logging.h"
#include "common/strings.h"
#include "data/generators.h"
#include "runtime/fault.h"

namespace tb = taskbench;
using tb::analysis::Algorithm;
using tb::analysis::ExperimentConfig;
using tb::runtime::FaultEvent;
using tb::runtime::FaultKind;

namespace {

tb::analysis::ExperimentResult MustRun(const ExperimentConfig& config) {
  auto result = tb::analysis::RunExperiment(config);
  TB_CHECK_OK(result.status());
  return *std::move(result);
}

ExperimentConfig BaseConfig() {
  ExperimentConfig config;
  config.algorithm = Algorithm::kKMeans;
  config.dataset = tb::data::PaperDatasets::KMeans10GB();
  config.grid_rows = 256;
  config.iterations = 3;
  config.processor = tb::Processor::kCpu;
  config.run.max_retries = 12;
  config.run.retry_backoff_s = 1e-3;
  return config;
}

void StorageFaultSweep() {
  std::printf("--- (a) transient storage faults, K-means 10 GB 256x1 ---\n");
  tb::analysis::TextTable table({"storage", "fault rate", "makespan",
                                 "slowdown", "storage faults", "retries"});
  for (tb::hw::StorageArchitecture storage :
       {tb::hw::StorageArchitecture::kLocalDisk,
        tb::hw::StorageArchitecture::kSharedDisk}) {
    double baseline = 0;
    // The wide merge task reads all 256 partials in one attempt, so
    // its survival probability is (1-p)^257 — rates much above 1e-3
    // exhaust any sane retry budget (by design: the CLI reports that
    // as a clean ResourceExhausted error).
    for (double rate : {0.0, 1e-4, 5e-4, 2e-3}) {
      ExperimentConfig config = BaseConfig();
      config.run.storage = storage;
      config.run.faults.storage_fault_rate = rate;
      config.run.faults.seed = 42;
      const auto result = MustRun(config);
      if (rate == 0.0) baseline = result.makespan;
      table.AddRow(
          {tb::hw::ToString(storage),
           tb::StrFormat("%g", rate),
           tb::StrFormat("%.2f s", result.makespan),
           tb::StrFormat("%.2fx", result.makespan / baseline),
           tb::StrFormat("%lld",
                         static_cast<long long>(
                             result.report.faults.storage_faults)),
           tb::StrFormat("%lld", static_cast<long long>(
                                     result.report.faults.retries))});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
}

void NodeCrashSweep() {
  std::printf("--- (b) node crashes at makespan/2, local disk ---\n");
  ExperimentConfig fault_free = BaseConfig();
  fault_free.run.storage = tb::hw::StorageArchitecture::kLocalDisk;
  const double baseline = MustRun(fault_free).makespan;
  tb::analysis::TextTable table({"crashed nodes", "makespan", "slowdown",
                                 "recomputed", "lost blocks", "retries"});
  for (int crashes : {0, 1, 2, 4}) {
    ExperimentConfig config = BaseConfig();
    config.run.storage = tb::hw::StorageArchitecture::kLocalDisk;
    for (int n = 0; n < crashes; ++n) {
      FaultEvent crash;
      crash.kind = FaultKind::kNodeCrash;
      crash.time = baseline / 2;
      crash.node = n + 1;
      config.run.faults.events.push_back(crash);
    }
    const auto result = MustRun(config);
    const tb::runtime::FaultStats& faults = result.report.faults;
    table.AddRow(
        {tb::StrFormat("%d", crashes),
         tb::StrFormat("%.2f s", result.makespan),
         tb::StrFormat("%.2fx", result.makespan / baseline),
         tb::StrFormat("%lld", static_cast<long long>(faults.recomputed_tasks)),
         tb::StrFormat("%lld", static_cast<long long>(faults.lost_blocks)),
         tb::StrFormat("%lld", static_cast<long long>(faults.retries))});
  }
  std::printf("%s\n", table.ToString().c_str());
}

void DegradedHardware() {
  std::printf("--- (c) degraded hardware, K-means 10 GB 256x1 (GPU) ---\n");
  ExperimentConfig gpu = BaseConfig();
  gpu.processor = tb::Processor::kGpu;
  const double baseline = MustRun(gpu).makespan;
  tb::analysis::TextTable table({"fault", "makespan", "slowdown"});
  table.AddRow({"none", tb::StrFormat("%.2f s", baseline), "1.00x"});

  for (const char* spec : {"slow@0:n0:x4", "gpuloss@0:n0"}) {
    ExperimentConfig config = gpu;
    auto plan = tb::runtime::FaultPlan::Parse(spec);
    TB_CHECK_OK(plan.status());
    config.run.faults = *plan;
    const auto result = MustRun(config);
    table.AddRow({spec, tb::StrFormat("%.2f s", result.makespan),
                  tb::StrFormat("%.2fx", result.makespan / baseline)});
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace

int main() {
  std::printf(
      "Fault recovery: makespan degradation and recovery cost under "
      "deterministic fault injection (extension; not a paper figure)\n\n");
  StorageFaultSweep();
  NodeCrashSweep();
  DegradedHardware();
  return 0;
}
