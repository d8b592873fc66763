// Diffs two result sets of the end-to-end benchmark against the bounds
// in BENCHMARK.json.
//
// A result set is a directory; every bench_e2e result file below it
// (any *.json but *.trace.json and meta.json) belongs to the set;
// end-to-end metrics are read from its untraced runs, per-layer ones
// from its traced runs. For each (workload, metric) the tool prints
// both sets' median and quartiles and a verdict:
//
//   better      B's median beats A's by more than the bound
//   same        within the bound
//   worse       B's median is worse than A's by more than the bound
//   unresolved  either set's spread (q3 - q1) / median exceeds the
//               bound, unless every B run beats every A run (better)
//   -           per-layer metric: no bound, medians only
//
// Deterministic values (value digests, task counts, simulated
// makespans) of runs with the same workload and seed must be equal
// across both sets, exactly.
//
// Usage: bench_e2e_compare SET_A SET_B [--benchmark BENCHMARK.json]
//                          [--json OUT.json]
// Exit: 0 no worse verdict and no deterministic mismatch; 1 otherwise;
// 2 on bad input.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/strings.h"
#include "e2e_accounting.h"
#include "obs/json.h"
#include "wf/json.h"

namespace taskbench::bench::e2e {
namespace {

using wf::JsonValue;

struct RunResult {
  std::string path;
  std::string workload;
  std::string seed;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> deterministic;
  double generator_lag_p99_s = 0;
  /// The run's host metadata, re-rendered as one JSON object.
  std::string host;
};

/// Flat JSON object of `value`'s string and number members.
std::string FlatJson(const JsonValue* value) {
  std::string out = "{";
  if (value != nullptr && value->IsObject()) {
    for (const auto& [k, v] : value->members) {
      if (!v.IsString() && !v.IsNumber()) continue;
      out += StrFormat("%s\"%s\": ", out.size() > 1 ? ", " : "",
                       JsonEscape(k).c_str());
      out += v.IsString() ? StrFormat("\"%s\"", JsonEscape(v.string_value).c_str())
                          : StrFormat("%.17g", v.number_value);
    }
  }
  return out + "}";
}

Result<JsonValue> ReadJson(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return Status::NotFound("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  auto doc = wf::ParseJson(text.str());
  if (!doc.ok()) return doc.status().WithContext(path);
  return doc;
}

void ReadMetrics(const JsonValue* group, RunResult* r) {
  if (group == nullptr || !group->IsObject()) return;
  for (const auto& [name, m] : group->members) {
    const JsonValue* value = m.Find("value");
    if (value != nullptr && value->IsNumber()) {
      r->metrics[name] = value->number_value;
    }
  }
}

/// Every result file under `dir`, parsed.
Result<std::vector<RunResult>> LoadSet(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    return Status::NotFound(dir + " is not a directory");
  }
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    const std::string path = entry.path().string();
    const std::string name = entry.path().filename().string();
    if (!entry.is_regular_file() || name == "meta.json" ||
        name.size() < 5 || name.compare(name.size() - 5, 5, ".json") != 0 ||
        name.find(".trace.json") != std::string::npos) {
      continue;
    }
    paths.push_back(path);
  }
  std::sort(paths.begin(), paths.end());
  std::vector<RunResult> set;
  for (const std::string& path : paths) {
    TB_ASSIGN_OR_RETURN(JsonValue doc, ReadJson(path));
    const JsonValue* workload = doc.Find("workload");
    const JsonValue* seed = doc.Find("seed");
    if (workload == nullptr || !workload->IsString() || seed == nullptr ||
        !seed->IsNumber()) {
      continue;  // not a bench_e2e result
    }
    RunResult r;
    r.path = path;
    r.workload = workload->string_value;
    r.seed = StrFormat("%.0f", seed->number_value);
    r.host = FlatJson(doc.Find("host"));
    // End-to-end numbers come from untraced runs only: a traced run's
    // untraced window is shorter and its peak RSS includes the tracing.
    const JsonValue* trace = doc.Find("trace");
    const bool traced = trace != nullptr && trace->IsBool() && trace->bool_value;
    ReadMetrics(doc.Find(traced ? "per_layer" : "end_to_end"), &r);
    if (const JsonValue* det = doc.Find("deterministic");
        det != nullptr && det->IsObject()) {
      for (const auto& [k, v] : det->members) {
        if (v.IsString()) r.deterministic[k] = v.string_value;
      }
    }
    const auto lag = r.metrics.find("service.generator_lag_p99_s");
    if (lag != r.metrics.end()) r.generator_lag_p99_s = lag->second;
    set.push_back(std::move(r));
  }
  if (set.empty()) return Status::NotFound("no bench_e2e results under " + dir);
  return set;
}

struct Bound {
  std::string unit;
  bool lower_is_better = true;
  double bound = -1;  ///< < 0: per-layer, no bound
};

Result<std::vector<std::pair<std::string, Bound>>> LoadBounds(
    const std::string& path) {
  TB_ASSIGN_OR_RETURN(JsonValue doc, ReadJson(path));
  std::vector<std::pair<std::string, Bound>> out;
  for (const char* key : {"end_to_end", "per_layer"}) {
    const JsonValue* list = doc.Find(key);
    if (list == nullptr || !list->IsArray()) {
      return Status::InvalidArgument(StrFormat("%s: no %s list", path.c_str(), key));
    }
    for (const JsonValue& m : list->items) {
      const JsonValue* name = m.Find("name");
      const JsonValue* unit = m.Find("unit");
      const JsonValue* better = m.Find("better");
      if (name == nullptr || unit == nullptr || better == nullptr) {
        return Status::InvalidArgument(path + ": metric without name/unit/better");
      }
      Bound b;
      b.unit = unit->string_value;
      b.lower_is_better = better->string_value == "lower";
      if (const JsonValue* bound = m.Find("bound"); bound != nullptr) {
        b.bound = bound->number_value;
      }
      out.emplace_back(name->string_value, b);
    }
  }
  return out;
}

struct Row {
  std::string workload;
  std::string metric;
  std::string unit;
  Quartiles a;
  Quartiles b;
  size_t na = 0;
  size_t nb = 0;
  double change = 0;  ///< signed share; > 0 is worse
  double bound = -1;
  std::string verdict;
};

double Spread(const Quartiles& q) {
  return q.median != 0 ? (q.q3 - q.q1) / std::abs(q.median) : 0;
}

Row Judge(const std::string& workload, const std::string& metric,
          const Bound& bound, const std::vector<double>& a,
          const std::vector<double>& b) {
  Row row;
  row.workload = workload;
  row.metric = metric;
  row.unit = bound.unit;
  row.a = QuartilesOf(a);
  row.b = QuartilesOf(b);
  row.na = a.size();
  row.nb = b.size();
  row.bound = bound.bound;
  const double sign = bound.lower_is_better ? 1 : -1;
  row.change = row.a.median != 0
                   ? sign * (row.b.median - row.a.median) / std::abs(row.a.median)
                   : (row.b.median == row.a.median ? 0 : sign);
  if (bound.bound < 0) {
    row.verdict = "-";
    return row;
  }
  const auto [a_min, a_max] = std::minmax_element(a.begin(), a.end());
  const auto [b_min, b_max] = std::minmax_element(b.begin(), b.end());
  const bool b_always_better =
      bound.lower_is_better ? *b_max < *a_min : *b_min > *a_max;
  if (std::max(Spread(row.a), Spread(row.b)) > bound.bound) {
    row.verdict = b_always_better ? "better" : "unresolved";
  } else if (row.change > bound.bound) {
    row.verdict = "worse";
  } else if (row.change < -bound.bound) {
    row.verdict = "better";
  } else {
    row.verdict = "same";
  }
  return row;
}

std::string RowsJson(const std::vector<Row>& rows, const std::string& host_a,
                     const std::string& host_b) {
  auto q = [](const Quartiles& x) {
    return StrFormat("{\"q1\": %.17g, \"median\": %.17g, \"q3\": %.17g}", x.q1,
                     x.median, x.q3);
  };
  std::string out = "{\"host_a\": " + host_a + ",\n \"host_b\": " + host_b +
                    ",\n \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out += StrFormat(
        "  {\"workload\": \"%s\", \"metric\": \"%s\", \"unit\": \"%s\", "
        "\"a\": %s, \"na\": %zu, \"b\": %s, \"nb\": %zu, \"verdict\": \"%s\"}%s\n",
        JsonEscape(r.workload).c_str(), JsonEscape(r.metric).c_str(),
        JsonEscape(r.unit).c_str(), q(r.a).c_str(), r.na, q(r.b).c_str(), r.nb,
        r.verdict.c_str(), i + 1 < rows.size() ? "," : "");
  }
  return out + "]}\n";
}

int Main(int argc, char** argv) {
  const Args args = Args::Parse(argc, argv);
  if (args.positional().size() != 2 ||
      !args.UnknownKeys({"benchmark", "json"}).empty()) {
    std::fprintf(stderr,
                 "usage: bench_e2e_compare SET_A SET_B "
                 "[--benchmark BENCHMARK.json] [--json OUT.json]\n");
    return 2;
  }
  auto bounds = LoadBounds(args.GetString("benchmark", "BENCHMARK.json"));
  auto set_a = LoadSet(args.positional()[0]);
  auto set_b = LoadSet(args.positional()[1]);
  for (const Status& s : {bounds.status(), set_a.status(), set_b.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "bench_e2e_compare: %s\n", s.ToString().c_str());
      return 2;
    }
  }

  std::set<std::string> workloads;
  for (const RunResult& r : *set_a) workloads.insert(r.workload);
  std::vector<Row> rows;
  int worse = 0, unresolved = 0, mismatches = 0;
  for (const std::string& w : workloads) {
    for (const auto& [metric, bound] : *bounds) {
      std::vector<double> a, b;
      for (const RunResult& r : *set_a) {
        const auto it = r.metrics.find(metric);
        if (r.workload == w && it != r.metrics.end()) a.push_back(it->second);
      }
      for (const RunResult& r : *set_b) {
        const auto it = r.metrics.find(metric);
        if (r.workload == w && it != r.metrics.end()) b.push_back(it->second);
      }
      if (a.empty() || b.empty()) continue;
      rows.push_back(Judge(w, metric, bound, a, b));
      worse += rows.back().verdict == "worse";
      unresolved += rows.back().verdict == "unresolved";
    }
  }

  std::printf("%-10s %-36s %-9s %34s %34s %8s %6s  %s\n", "workload", "metric",
              "unit", "A median [q1, q3] (n)", "B median [q1, q3] (n)",
              "change", "bound", "verdict");
  for (const Row& r : rows) {
    std::printf("%-10s %-36s %-9s %10.4g [%.4g, %.4g] (%zu) %10.4g [%.4g, "
                "%.4g] (%zu) %+7.1f%% %6s  %s\n",
                r.workload.c_str(), r.metric.c_str(), r.unit.c_str(),
                r.a.median, r.a.q1, r.a.q3, r.na, r.b.median, r.b.q1, r.b.q3,
                r.nb, 100 * r.change,
                r.bound < 0 ? "-" : StrFormat("%.2f", r.bound).c_str(),
                r.verdict.c_str());
  }

  // Deterministic values: equal for equal (workload, seed), across and
  // within both sets.
  std::map<std::string, std::pair<std::string, std::string>> seen;
  for (const auto* set : {&*set_a, &*set_b}) {
    for (const RunResult& r : *set) {
      for (const auto& [key, value] : r.deterministic) {
        const std::string id = r.workload + " seed " + r.seed + " " + key;
        auto [it, inserted] = seen.emplace(id, std::pair{value, r.path});
        if (!inserted && it->second.first != value) {
          std::printf("MISMATCH %s: %s (%s) vs %s (%s)\n", id.c_str(),
                      it->second.first.c_str(), it->second.second.c_str(),
                      value.c_str(), r.path.c_str());
          ++mismatches;
        }
      }
      if (r.generator_lag_p99_s > 1e-3) {
        std::printf("warning: %s: load generator p99 lag %.3g ms > 1 ms; its "
                    "service latencies are not trustworthy\n",
                    r.path.c_str(), r.generator_lag_p99_s * 1e3);
      }
    }
  }
  std::printf("%zu rows: %d worse, %d unresolved, %d deterministic "
              "mismatches (%zu values checked)\n",
              rows.size(), worse, unresolved, mismatches, seen.size());

  if (args.Has("json")) {
    const std::string json =
        RowsJson(rows, set_a->front().host, set_b->front().host);
    const std::string path = args.GetString("json");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << json;
    out.close();
    if (!obs::ValidateJson(json).ok() || !out) {
      std::fprintf(stderr, "bench_e2e_compare: cannot write %s\n", path.c_str());
      return 2;
    }
  }
  return worse > 0 || mismatches > 0 ? 1 : 0;
}

}  // namespace
}  // namespace taskbench::bench::e2e

int main(int argc, char** argv) {
  return taskbench::bench::e2e::Main(argc, argv);
}
