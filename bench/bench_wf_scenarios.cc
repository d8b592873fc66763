// Real-workflow scenario sweep: the committed WfFormat fixtures (a
// trimmed Montage-class instance, the diamond) and two WfBench-style
// synthetic instances (heavy-tailed runtimes; straggler injection
// with a GPU type mix) through the three scheduling policies — task
// generation order, data locality, cost model — on the simulated
// Minotauro cluster.
//
// All legs are simulation-only builds (materialize=false), so the
// graphs carry the true WfFormat byte sizes and every run is
// deterministic: each row records the report digest, the JSON
// records their FNV fold as digest_total, and re-running the bench
// must reproduce both bit-for-bit (the CI smoke diffs two runs).
//
// Usage: bench_wf_scenarios [--smoke] [--out=BENCH_wf_scenarios.json]
//                           [--fixtures=DIR]   (default ../tests/data/wf)

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/digest.h"
#include "common/args.h"
#include "common/logging.h"
#include "common/strings.h"
#include "hw/cluster.h"
#include "runtime/simulated_executor.h"
#include "wf/build.h"
#include "wf/generator.h"
#include "wf/import.h"
#include "wf/instance.h"

namespace taskbench::bench {
namespace {

struct Variant {
  const char* name;
  SchedulingPolicy policy;
};

constexpr Variant kVariants[] = {
    {"fifo", SchedulingPolicy::kTaskGenerationOrder},
    {"locality", SchedulingPolicy::kDataLocality},
    {"cost", SchedulingPolicy::kCostModel},
};

struct Row {
  std::string scenario;
  std::string variant;
  int tasks = 0;
  unsigned long long bytes = 0;
  double makespan = 0;
  double overhead = 0;
  uint64_t digest = 0;
};

wf::Instance LoadFixture(const std::string& dir, const char* file) {
  const std::string path = dir + "/" + file;
  std::ifstream in(path, std::ios::binary);
  TB_CHECK(in.good()) << "cannot open fixture " << path
                      << " (set --fixtures=DIR)";
  std::ostringstream text;
  text << in.rdbuf();
  auto instance = wf::ImportWfFormat(text.str());
  TB_CHECK_OK(instance.status());
  return *std::move(instance);
}

/// One scenario x policy leg: sim-only build at true byte sizes.
Row RunLeg(const std::string& scenario, const wf::Instance& instance,
           const Variant& v) {
  wf::BuildOptions build;
  build.materialize = false;
  auto built = wf::BuildInstance(instance, build);
  TB_CHECK_OK(built.status());
  runtime::RunOptions options;
  options.policy = v.policy;
  auto report =
      runtime::SimulatedExecutor(hw::MinotauroCluster(), options)
          .Execute(built->graph);
  TB_CHECK_OK(report.status());
  Row row;
  row.scenario = scenario;
  row.variant = v.name;
  row.tasks = static_cast<int>(built->graph.num_tasks());
  row.bytes = built->stats.total_bytes;
  row.makespan = report->makespan;
  row.overhead = report->scheduler_overhead;
  row.digest = check::DigestReport(*report);
  return row;
}

std::string ToJson(const std::vector<Row>& rows, bool smoke) {
  uint64_t total = check::kFnvOffsetBasis;
  std::string out = "{\n";
  out += StrFormat("  \"smoke\": %s,\n", smoke ? "true" : "false");
  out += "  \"runs\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const std::string digest = StrFormat(
        "%016llx", static_cast<unsigned long long>(r.digest));
    total = check::Fnv1a(total, digest);
    out += StrFormat(
        "    {\"scenario\": \"%s\", \"policy\": \"%s\", "
        "\"tasks\": %d, \"total_bytes\": %llu, "
        "\"makespan_s\": %.6f, \"scheduler_overhead_s\": %.6f, "
        "\"report_digest\": \"%s\"}%s\n",
        r.scenario.c_str(), r.variant.c_str(), r.tasks, r.bytes,
        r.makespan, r.overhead, digest.c_str(),
        i + 1 < rows.size() ? "," : "");
  }
  out += "  ],\n";
  out += StrFormat("  \"digest_total\": \"%016llx\"\n",
                   static_cast<unsigned long long>(total));
  out += "}\n";
  return out;
}

int Main(int argc, char** argv) {
  const Args args = Args::Parse(argc, argv);
  const Status flags = args.CheckFlags({"out", "fixtures"}, {"smoke"});
  if (!flags.ok()) {
    std::fprintf(stderr, "bench_wf_scenarios: %s\n", flags.message().c_str());
    return 2;
  }
  const bool smoke = args.GetBool("smoke", false).value_or(false);
  const std::string out_path =
      args.GetString("out", "BENCH_wf_scenarios.json");
  const std::string fixtures =
      args.GetString("fixtures", "../tests/data/wf");

  // The two committed fixtures plus two synthetic instances. The
  // smoke run shrinks the synthetic shapes; the fixtures are tiny
  // enough to run as committed either way.
  struct Scenario {
    std::string name;
    wf::Instance instance;
  };
  std::vector<Scenario> scenarios;
  scenarios.push_back(
      {"montage-trimmed", LoadFixture(fixtures, "montage_trimmed.json")});
  scenarios.push_back({"diamond", LoadFixture(fixtures, "diamond.json")});

  wf::GenOptions heavy;
  heavy.seed = 7;
  heavy.name = "wfbench-heavytail";
  heavy.levels = smoke ? 3 : 6;
  heavy.width = smoke ? 3 : 8;
  heavy.max_parents = 3;
  heavy.heavy_tail_alpha = 1.3;
  heavy.input_bytes = 4 << 20;
  scenarios.push_back({heavy.name, wf::GenerateWfBench(heavy)});

  wf::GenOptions strag;
  strag.seed = 11;
  strag.name = "wfbench-straggler";
  strag.levels = smoke ? 3 : 5;
  strag.width = smoke ? 3 : 10;
  strag.max_parents = 2;
  strag.straggler_fraction = 0.2;
  strag.straggler_factor = 8;
  strag.types = wf::DefaultTaskTypes(2);
  scenarios.push_back({strag.name, wf::GenerateWfBench(strag)});

  std::vector<Row> rows;
  std::printf("%-20s %-10s %6s %12s %12s  %s\n", "scenario", "policy",
              "tasks", "makespan_s", "overhead_s", "digest");
  for (const Scenario& s : scenarios) {
    for (const Variant& v : kVariants) {
      Row row = RunLeg(s.name, s.instance, v);
      std::printf("%-20s %-10s %6d %12.6f %12.6f  %016llx\n",
                  row.scenario.c_str(), row.variant.c_str(), row.tasks,
                  row.makespan, row.overhead,
                  static_cast<unsigned long long>(row.digest));
      rows.push_back(std::move(row));
    }
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  TB_CHECK(f != nullptr) << "cannot open " << out_path;
  const std::string json = ToJson(rows, smoke);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace taskbench::bench

int main(int argc, char** argv) { return taskbench::bench::Main(argc, argv); }
