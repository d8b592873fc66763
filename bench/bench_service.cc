// Resident-service bench: control-plane throughput and per-tenant
// tail latency of WorkflowService under skewed multi-tenant load.
//
//   load     — three tenants offer geometrically skewed Poisson rates
//              (base, 2x, 4x) through the open-loop driver for the
//              measurement window; tenant-0 additionally cancels
//              every 4th of its own submissions. The service runs the
//              graphs on the simulated executor, so makespans are
//              simulated seconds (deterministic) while queue waits
//              and submissions/s are wall-clock service-plane
//              numbers.
//   cancel   — a deterministic slot-accounting check on a gated
//              thread-pool service: at max_in_flight capacity a
//              Submit is rejected, cancelling a queued submission
//              admits the next one immediately. The committed JSON
//              asserts it (`cancellation_frees_slots`).
//
// Usage: bench_service [--smoke] [--duration=S] [--rate=HZ]
//                      [--runners=N] [--out=BENCH_service.json]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/args.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/strings.h"
#include "data/matrix.h"
#include "hw/topology.h"
#include "runtime/executor_factory.h"
#include "runtime/thread_pool_executor.h"
#include "service/load.h"
#include "service/workflow_service.h"

namespace taskbench::bench {
namespace {

using runtime::DataId;
using runtime::Dir;
using runtime::TaskGraph;
using runtime::TaskSpec;
using service::ServiceOptions;
using service::ServiceReport;
using service::SubmitOptions;
using service::TenantLoad;
using service::WorkflowService;

/// Deterministic demonstration that cancelling a queued submission
/// frees its admission slot immediately: a single gated runner holds
/// the service at max_in_flight, the next Submit is rejected, and a
/// Cancel makes the one after that admissible. Returns true when the
/// sequence behaves exactly that way.
bool CancellationFreesSlots() {
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool release = false;
    std::atomic<bool> entered{false};
  } gate;

  // A null gate copies at once; a gated copy waits for the release.
  auto one_task_graph = [&](bool gated) {
    TaskGraph graph;
    const DataId in = graph.AddData(data::Matrix(2, 2, 1.0));
    const DataId out = graph.AddData(static_cast<uint64_t>(32));
    TaskSpec spec;
    spec.type = "unit";
    spec.params = {{in, Dir::kIn}, {out, Dir::kOut}};
    spec.kernel = runtime::BindKernel(
        +[](const runtime::KernelInputs& inputs,
            const runtime::KernelOutputs& outputs, Gate* g) -> Status {
          if (g != nullptr) {
            g->entered.store(true);
            std::unique_lock<std::mutex> lock(g->mu);
            g->cv.wait(lock, [g] { return g->release; });
          }
          *outputs[0] = *inputs[0];
          return Status::OK();
        },
        gated ? &gate : nullptr);
    TB_CHECK_OK(graph.Submit(std::move(spec)).status());
    return graph;
  };

  runtime::RunOptions exec_options;
  exec_options.num_threads = 2;
  exec_options.use_storage = false;
  ServiceOptions options;
  options.num_runners = 1;
  options.max_in_flight = 2;
  WorkflowService service(
      std::make_shared<runtime::ThreadPoolExecutor>(exec_options), options);

  auto running = service.Submit(one_task_graph(/*gated=*/true));
  TB_CHECK_OK(running.status());
  while (!gate.entered.load()) std::this_thread::yield();
  auto queued = service.Submit(one_task_graph(false));
  TB_CHECK_OK(queued.status());

  const bool rejected_at_cap =
      service.Submit(one_task_graph(false)).status().IsRejectedAdmission();
  auto cancel = service.Cancel(*queued);
  TB_CHECK_OK(cancel.status());
  auto readmitted = service.Submit(one_task_graph(false));
  const bool slot_freed = readmitted.ok();

  {
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.release = true;
  }
  gate.cv.notify_all();
  TB_CHECK_OK(service.Wait(*running).status());
  if (slot_freed) TB_CHECK_OK(service.Wait(*readmitted).status());
  return rejected_at_cap && *cancel && slot_freed;
}

std::string LatencyJson(const service::LatencySummary& s) {
  return StrFormat(
      "{\"count\": %lld, \"mean_s\": %.6g, \"p50_s\": %.6g, "
      "\"p95_s\": %.6g, \"p99_s\": %.6g}",
      static_cast<long long>(s.count), s.mean, s.p50, s.p95, s.p99);
}

int Main(int argc, char** argv) {
  const Args args = Args::Parse(argc, argv);
  const Status flags =
      args.CheckFlags({"out", "duration", "rate", "runners"}, {"smoke"});
  if (!flags.ok()) {
    std::fprintf(stderr, "bench_service: %s\n", flags.message().c_str());
    return 2;
  }
  const bool smoke = args.GetBool("smoke", false).value_or(false);
  const double duration_s =
      args.GetDouble("duration", smoke ? 1.0 : 5.0).value_or(5.0);
  const double base_rate_hz = args.GetDouble("rate", 8.0).value_or(8.0);
  const int runners = static_cast<int>(args.GetInt("runners", 4).value_or(4));
  const std::string out_path = args.GetString("out", "BENCH_service.json");

  const bool cancel_frees_slots = CancellationFreesSlots();
  TB_CHECK(cancel_frees_slots) << "queued-cancel did not free its slot";

  runtime::ExecutorSpec spec;
  spec.kind = runtime::ExecutorKind::kSim;
  auto executor = runtime::MakeExecutor(spec);
  TB_CHECK_OK(executor.status());

  ServiceOptions options;
  options.num_runners = runners;
  options.max_in_flight = 8 * runners;
  WorkflowService workflow_service(std::move(*executor), options);

  std::vector<TenantLoad> loads;
  std::vector<double> rates;
  for (int i = 0; i < 3; ++i) {
    TenantLoad load;
    load.tenant = StrFormat("tenant-%d", i);
    load.arrivals.rate_hz = base_rate_hz * (1 << i);  // skew: 1x/2x/4x
    load.seed = 1000 + static_cast<uint64_t>(i);
    if (i == 0) load.cancel_every = 4;
    rates.push_back(load.arrivals.rate_hz);
    loads.push_back(std::move(load));
  }

  const auto t0 = std::chrono::steady_clock::now();
  auto stats = service::RunOpenLoad(&workflow_service, loads, duration_s);
  TB_CHECK_OK(stats.status());
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  workflow_service.Shutdown();
  const ServiceReport report = workflow_service.Report();
  TB_CHECK(report.still_queued == 0 && report.still_running == 0)
      << "stuck submissions after drain";
  const double submissions_per_s =
      static_cast<double>(stats->admitted) / std::max(wall_s, 1e-9);

  std::printf("%-10s %9s %9s %9s %9s %12s %12s\n", "tenant", "rate/s",
              "admitted", "done", "cancel", "mk_p50_s", "mk_p99_s");
  std::string tenants_json;
  for (size_t i = 0; i < report.tenants.size(); ++i) {
    const service::TenantReport& t = report.tenants[i];
    std::printf("%-10s %9.1f %9lld %9lld %9lld %12.4f %12.4f\n",
                t.tenant.c_str(), rates[i],
                static_cast<long long>(t.submitted),
                static_cast<long long>(t.completed),
                static_cast<long long>(t.cancelled), t.makespan.p50,
                t.makespan.p99);
    tenants_json += StrFormat(
        "    {\"tenant\": \"%s\", \"offered_rate_hz\": %.3f, "
        "\"submitted\": %lld, \"rejected\": %lld, \"completed\": %lld, "
        "\"failed\": %lld, \"cancelled\": %lld, \"expired\": %lld,\n"
        "     \"makespan\": %s,\n"
        "     \"queue_wait\": %s}%s\n",
        JsonEscape(t.tenant).c_str(), rates[i],
        static_cast<long long>(t.submitted),
        static_cast<long long>(t.rejected),
        static_cast<long long>(t.completed),
        static_cast<long long>(t.failed),
        static_cast<long long>(t.cancelled),
        static_cast<long long>(t.expired), LatencyJson(t.makespan).c_str(),
        LatencyJson(t.queue_wait).c_str(),
        i + 1 < report.tenants.size() ? "," : "");
  }
  std::printf("admitted %lld of %lld offered (%lld rejected) in %.2fs -> "
              "%.1f submissions/s; cancellation_frees_slots: %s\n",
              static_cast<long long>(stats->admitted),
              static_cast<long long>(stats->offered),
              static_cast<long long>(stats->rejected), wall_s,
              submissions_per_s, cancel_frees_slots ? "true" : "false");

  std::string json = "{\n";
  json += StrFormat("  \"smoke\": %s,\n", smoke ? "true" : "false");
  json += StrFormat("  \"duration_s\": %.3f,\n", duration_s);
  json += StrFormat("  \"hardware_threads\": %u,\n",
                    std::thread::hardware_concurrency());
  json += StrFormat("  \"cpu_model\": \"%s\",\n",
                    hw::HostCpuModel().c_str());
  json += StrFormat("  \"numa_domains\": %d,\n",
                    hw::DetectTopology().num_domains());
  json += "  \"executor\": \"simulated\",\n";
  json += StrFormat("  \"runners\": %d,\n", runners);
  json += StrFormat("  \"max_in_flight\": %d,\n", options.max_in_flight);
  json += "  \"arrivals\": \"poisson\",\n";
  json += StrFormat("  \"offered\": %lld,\n",
                    static_cast<long long>(stats->offered));
  json += StrFormat("  \"admitted\": %lld,\n",
                    static_cast<long long>(stats->admitted));
  json += StrFormat("  \"rejected\": %lld,\n",
                    static_cast<long long>(stats->rejected));
  json += StrFormat("  \"driver_cancelled\": %lld,\n",
                    static_cast<long long>(stats->cancelled));
  json += StrFormat("  \"submissions_per_s\": %.1f,\n", submissions_per_s);
  json += StrFormat("  \"cancellation_frees_slots\": %s,\n",
                    cancel_frees_slots ? "true" : "false");
  json += "  \"tenants\": [\n" + tenants_json + "  ]\n}\n";
  TB_CHECK_OK(ValidateJson(json));

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  TB_CHECK(f != nullptr) << "cannot open " << out_path;
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace taskbench::bench

int main(int argc, char** argv) { return taskbench::bench::Main(argc, argv); }
