#include "wf/build.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include "common/strings.h"

namespace taskbench::wf {

namespace {

using runtime::DataId;
using runtime::Dir;
using runtime::Param;
using runtime::TaskSpec;

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Bit-exact hash -> double in [0, 1): 53 mantissa bits scaled by
/// 2^-53. Pure integer + power-of-two arithmetic, so every executor
/// and platform produces identical bits.
double UnitFromHash(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

int64_t DimForBytes(uint64_t bytes, int64_t max_dim) {
  const int64_t dim = static_cast<int64_t>(
      std::sqrt(static_cast<double>(bytes) / 8.0));
  return std::clamp<int64_t>(dim, 1, max_dim);
}

data::Matrix SeededMatrix(int64_t dim, uint64_t seed) {
  data::Matrix m(dim, dim);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = UnitFromHash(Mix64(seed + static_cast<uint64_t>(i)));
  }
  return m;
}

/// Kernel shared by every workflow task: folds all input bits into one
/// hash and fills each output deterministically from it. Any missed,
/// extra, or reordered dependency flips the fold and therefore every
/// downstream output bit. `args` holds the task hash (u64), then one
/// dimension (i64) per output, as MakeKernel packs them.
Status WfKernel(std::string_view args, const runtime::KernelInputs& inputs,
                const runtime::KernelOutputs& outputs) {
  uint64_t fold = 0;
  std::memcpy(&fold, args.data(), sizeof(fold));
  for (const data::Matrix* in : inputs) {
    for (int64_t i = 0; i < in->size(); ++i) {
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(double), "");
      std::memcpy(&bits, in->data() + i, sizeof(bits));
      fold = Mix64(fold ^ bits);
    }
  }
  const size_t num_dims = args.size() / 8 - 1;
  if (outputs.size() != num_dims) {
    return Status::Internal(StrFormat(
        "wf kernel: expected %zu outputs, got %zu", num_dims, outputs.size()));
  }
  for (size_t o = 0; o < outputs.size(); ++o) {
    int64_t dim = 0;
    std::memcpy(&dim, args.data() + 8 * (o + 1), sizeof(dim));
    data::Matrix m(dim, dim);
    const uint64_t out_seed = Mix64(fold + 0x10001ull * (o + 1));
    for (int64_t i = 0; i < m.size(); ++i) {
      m.data()[i] = UnitFromHash(Mix64(out_seed + static_cast<uint64_t>(i)));
    }
    *outputs[o] = std::move(m);
  }
  return Status::OK();
}

runtime::KernelFn MakeKernel(uint64_t task_hash,
                             const std::vector<int64_t>& out_dims) {
  std::string args(8 * (1 + out_dims.size()), '\0');
  std::memcpy(args.data(), &task_hash, sizeof(task_hash));
  if (!out_dims.empty()) {
    std::memcpy(args.data() + 8, out_dims.data(), 8 * out_dims.size());
  }
  return runtime::KernelFn(&WfKernel, std::move(args));
}

bool IsGpuType(const std::string& type) {
  std::string lower = type;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return lower.find("gpu") != std::string::npos;
}

}  // namespace

Result<BuiltInstance> BuildInstance(const Instance& instance,
                                    const BuildOptions& options) {
  TB_ASSIGN_OR_RETURN(const InstanceStats stats, ComputeStats(instance));

  std::map<std::string, size_t> file_index;
  for (size_t f = 0; f < instance.files.size(); ++f) {
    file_index.emplace(instance.files[f].name, f);
  }
  std::map<std::string, size_t> task_index;
  for (size_t t = 0; t < instance.tasks.size(); ++t) {
    task_index.emplace(instance.tasks[t].name, t);
  }

  // Producer of each file (-1 = workflow input) — Validate() already
  // guaranteed uniqueness.
  std::vector<int64_t> producer(instance.files.size(), -1);
  for (size_t t = 0; t < instance.tasks.size(); ++t) {
    for (const std::string& out : instance.tasks[t].outputs) {
      producer[file_index.at(out)] = static_cast<int64_t>(t);
    }
  }

  // Edges already carried by file dataflow; explicit parents beyond
  // these need a control datum to surface in the access history.
  std::set<std::pair<size_t, size_t>> file_edges;
  for (size_t t = 0; t < instance.tasks.size(); ++t) {
    for (const std::string& in : instance.tasks[t].inputs) {
      const int64_t p = producer[file_index.at(in)];
      if (p >= 0) file_edges.emplace(static_cast<size_t>(p), t);
    }
  }

  // Topological order via Kahn on the full (file + parent) edge set;
  // seed and queue processed in index order for determinism.
  std::vector<std::vector<size_t>> children(instance.tasks.size());
  std::vector<int> indegree(instance.tasks.size(), 0);
  {
    std::set<std::pair<size_t, size_t>> edges = file_edges;
    for (size_t t = 0; t < instance.tasks.size(); ++t) {
      for (const std::string& parent : instance.tasks[t].parents) {
        edges.emplace(task_index.at(parent), t);
      }
    }
    for (const auto& [from, to] : edges) {
      children[from].push_back(to);
      ++indegree[to];
    }
  }
  std::vector<size_t> topo;
  topo.reserve(instance.tasks.size());
  for (size_t t = 0; t < instance.tasks.size(); ++t) {
    if (indegree[t] == 0) topo.push_back(t);
  }
  for (size_t head = 0; head < topo.size(); ++head) {
    for (const size_t child : children[topo[head]]) {
      if (--indegree[child] == 0) topo.push_back(child);
    }
  }
  if (topo.size() != instance.tasks.size()) {
    return Status::Internal("wf build: cycle survived validation");
  }

  BuiltInstance built;
  built.stats = stats;

  // One datum per file. Materialized graphs miniaturize to
  // max_dim x max_dim blocks; sim-only graphs carry the true bytes.
  std::vector<int64_t> dims(instance.files.size(), 1);
  built.file_ids.resize(instance.files.size(), -1);
  for (size_t f = 0; f < instance.files.size(); ++f) {
    const WfFile& file = instance.files[f];
    dims[f] = DimForBytes(file.bytes, options.max_dim);
    if (!options.materialize) {
      built.file_ids[f] =
          built.graph.AddData(std::max<uint64_t>(1, file.bytes), file.name);
    } else if (producer[f] < 0) {
      // Workflow input: materialized up front, content derived from
      // the file name so imports are reproducible byte-for-byte.
      built.file_ids[f] = built.graph.AddData(
          SeededMatrix(dims[f], HashString(file.name)), file.name);
    } else {
      // Produced file: registered by size, filled by its task.
      const uint64_t bytes =
          static_cast<uint64_t>(dims[f]) * static_cast<uint64_t>(dims[f]) * 8;
      built.file_ids[f] = built.graph.AddData(bytes, file.name);
    }
    built.data.push_back(built.file_ids[f]);
  }

  // Control data: one 1x1 datum per explicit-parent edge not implied
  // by files, written by the parent, read by the child.
  // ctrl_out[t] lists ctrl data task t must write; ctrl_in[t] those
  // it must read.
  std::vector<std::vector<DataId>> ctrl_out(instance.tasks.size());
  std::vector<std::vector<DataId>> ctrl_in(instance.tasks.size());
  for (size_t t = 0; t < instance.tasks.size(); ++t) {
    for (const std::string& parent : instance.tasks[t].parents) {
      const size_t p = task_index.at(parent);
      if (file_edges.count({p, t}) != 0) continue;
      const std::string name =
          StrFormat("ctrl:%s->%s", parent.c_str(),
                    instance.tasks[t].name.c_str());
      const DataId id = options.materialize
                            ? built.graph.AddData(uint64_t{8}, name)
                            : built.graph.AddData(uint64_t{1}, name);
      ctrl_out[p].push_back(id);
      ctrl_in[t].push_back(id);
      built.data.push_back(id);
    }
  }

  for (const size_t t : topo) {
    const WfTask& task = instance.tasks[t];
    TaskSpec spec;
    spec.type = task.type.empty() ? std::string("task") : task.type;
    spec.processor =
        IsGpuType(spec.type) ? Processor::kGpu : Processor::kCpu;

    uint64_t in_bytes = 0;
    uint64_t out_bytes = 0;
    std::vector<int64_t> out_dims;
    for (const std::string& in : task.inputs) {
      const size_t f = file_index.at(in);
      spec.params.push_back({built.file_ids[f], Dir::kIn});
      in_bytes += built.graph.data(built.file_ids[f]).bytes;
    }
    for (const DataId id : ctrl_in[t]) {
      spec.params.push_back({id, Dir::kIn});
      in_bytes += built.graph.data(id).bytes;
    }
    for (const std::string& out : task.outputs) {
      const size_t f = file_index.at(out);
      spec.params.push_back({built.file_ids[f], Dir::kOut});
      out_bytes += built.graph.data(built.file_ids[f]).bytes;
      out_dims.push_back(dims[f]);
    }
    for (const DataId id : ctrl_out[t]) {
      spec.params.push_back({id, Dir::kOut});
      out_bytes += built.graph.data(id).bytes;
      out_dims.push_back(1);
    }

    // Recorded runtime -> modeled work: mostly parallel with a small
    // serial fraction, so executor scaling studies stay meaningful.
    const double flops = task.runtime_s * options.flops_per_s;
    spec.cost.parallel.flops = flops;
    spec.cost.parallel.bytes = static_cast<double>(in_bytes + out_bytes);
    spec.cost.serial.flops = flops / 16.0;
    spec.cost.input_bytes = in_bytes;
    spec.cost.output_bytes = out_bytes;
    if (spec.processor == Processor::kGpu) {
      spec.cost.h2d_bytes = in_bytes;
      spec.cost.d2h_bytes = out_bytes;
      spec.cost.num_transfers = 2;
      spec.cost.gpu_working_set_bytes = in_bytes + out_bytes;
    }

    if (options.materialize) {
      spec.kernel = MakeKernel(HashString(task.name), out_dims);
    }
    TB_RETURN_IF_ERROR(built.graph.Submit(std::move(spec)).status());
  }

  return built;
}

}  // namespace taskbench::wf
