#include "runtime/executor.h"

#include "common/strings.h"

namespace taskbench::runtime {

Result<data::Matrix> Executor::Fetch(const TaskGraph& graph,
                                     DataId id) const {
  (void)graph;
  return Status::Unimplemented(StrFormat(
      "executor '%s' does not materialize data (datum %lld)",
      name().c_str(), static_cast<long long>(id)));
}

Status CheckDataId(const TaskGraph& graph, DataId id) {
  if (id < 0 || id >= graph.num_data()) {
    return Status::InvalidArgument(
        StrFormat("unknown data id %lld", static_cast<long long>(id)));
  }
  return Status::OK();
}

Result<data::Matrix> FetchGraphValue(const TaskGraph& graph, DataId id) {
  TB_RETURN_IF_ERROR(CheckDataId(graph, id));
  const DataEntry& entry = graph.data(id);
  if (!entry.value.has_value()) {
    return Status::NotFound(
        StrFormat("datum %lld has no value", static_cast<long long>(id)));
  }
  return *entry.value;
}

}  // namespace taskbench::runtime
