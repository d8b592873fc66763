#include "runtime/attempt_body.h"

#include <chrono>
#include <utility>

#include "common/strings.h"

namespace taskbench::runtime {

Result<std::shared_ptr<const data::Matrix>> BlockPlane::Share(
    DataId d, uint64_t version, double* seconds) {
  TB_ASSIGN_OR_RETURN(data::Matrix value, Copy(d, version, seconds));
  return std::make_shared<const data::Matrix>(std::move(value));
}

Status AttemptBody::Compute(BlockPlane& plane, storage::BlockCache* cache) {
  computed_ = false;
  stored_ = 0;
  outputs_.clear();
  std::vector<std::shared_ptr<const data::Matrix>> in_values;
  std::vector<size_t> inouts;  // outputs_ slots of the INOUT params
  in_values.reserve(params_.size());
  outputs_.reserve(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    const Param& p = params_[i];
    if (p.dir == Dir::kOut) {
      outputs_.push_back(Output{i, data::Matrix()});
      continue;
    }
    TB_ASSIGN_OR_RETURN(const uint64_t version,
                        plane.ReadVersion(task_, i, p.data));
    const auto key = static_cast<uint64_t>(p.data);
    storage::BlockCache::ValuePtr block =
        cache != nullptr ? cache->Get(key, version) : nullptr;
    if (p.dir == Dir::kIn) {
      if (block == nullptr) {
        TB_ASSIGN_OR_RETURN(block,
                            plane.Share(p.data, version, &stages.deserialize));
        if (cache != nullptr) {
          block = cache->Put(key, version, std::move(block));
        }
      }
      in_values.push_back(std::move(block));
      continue;
    }
    inouts.push_back(outputs_.size());
    if (block != nullptr) {  // a cache hit: copy, never mutate, the entry
      outputs_.push_back(Output{i, *block});
      continue;
    }
    TB_ASSIGN_OR_RETURN(data::Matrix value,
                        plane.Copy(p.data, version, &stages.deserialize));
    outputs_.push_back(Output{i, std::move(value)});
  }

  KernelInputs inputs;
  KernelOutputs outputs;
  inputs.reserve(in_values.size() + inouts.size());
  outputs.reserve(outputs_.size());
  for (const auto& value : in_values) inputs.push_back(value.get());
  for (size_t k : inouts) inputs.push_back(&outputs_[k].value);
  for (Output& out : outputs_) outputs.push_back(&out.value);

  const auto kernel_start = std::chrono::steady_clock::now();
  TB_RETURN_IF_ERROR(fn_(args_, inputs, outputs));
  stages.parallel_fraction = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() -
                                 kernel_start)
                                 .count();
  computed_ = true;
  return Status::OK();
}

Status AttemptBody::Store(BlockPlane& plane, storage::BlockCache* cache) {
  for (; stored_ < outputs_.size(); ++stored_) {
    Output& out = outputs_[stored_];
    const DataId d = params_[out.param].data;
    TB_ASSIGN_OR_RETURN(
        const uint64_t version,
        plane.Store(task_, out.param, d, out.value, &stages.serialize));
    // Write-through at the stored version: a successor reading it on
    // this worker hits without touching the serializer.
    if (cache != nullptr) {
      cache->Put(static_cast<uint64_t>(d), version, std::move(out.value));
    }
  }
  return Status::OK();
}

Status CheckKernels(const TaskGraph& graph, std::string_view executor) {
  for (TaskId t = 0; t < graph.num_tasks(); ++t) {
    if (graph.task(t).spec.kernel == nullptr) {
      return Status::FailedPrecondition(StrFormat(
          "task %lld (%s) has no kernel; simulation-only graphs cannot "
          "run on the %.*s executor",
          static_cast<long long>(t), graph.task(t).spec.type.c_str(),
          static_cast<int>(executor.size()), executor.data()));
    }
  }
  return Status::OK();
}

}  // namespace taskbench::runtime
