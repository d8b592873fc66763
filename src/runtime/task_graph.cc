#include "runtime/task_graph.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/strings.h"

namespace taskbench::runtime {

DataId TaskGraph::AddData(uint64_t bytes, std::string name, int home_node) {
  DataEntry& entry = data_.emplace_back();
  entry.id = static_cast<DataId>(data_.size() - 1);
  entry.name = name.empty() ? StrFormat("d%lld", static_cast<long long>(entry.id))
                            : std::move(name);
  entry.bytes = bytes;
  entry.home_node = home_node;
  history_.emplace_back();
  return entry.id;
}

DataId TaskGraph::AddData(data::Matrix value, std::string name,
                          int home_node) {
  const uint64_t bytes = value.bytes();
  const DataId id = AddData(bytes, std::move(name), home_node);
  data_[static_cast<size_t>(id)].value = std::move(value);
  return id;
}

Result<TaskId> TaskGraph::Submit(TaskSpec spec) {
  if (spec.params.empty()) {
    return Status::InvalidArgument(
        StrFormat("task '%s' has no parameters", spec.type.c_str()));
  }
  for (const Param& param : spec.params) {
    if (param.data < 0 || param.data >= num_data()) {
      return Status::InvalidArgument(
          StrFormat("task '%s' references unknown data id %lld",
                    spec.type.c_str(), static_cast<long long>(param.data)));
    }
  }

  Task& task = tasks_.emplace_back();
  task.id = static_cast<TaskId>(tasks_.size() - 1);
  task.spec = std::move(spec);

  // Derive dependencies from each datum's access history, in
  // ascending order without duplicates. The task itself is in no
  // history yet, so it cannot depend on itself.
  std::vector<TaskId>& deps = task.deps;
  for (const Param& param : task.spec.params) {
    const AccessHistory& h = history_[static_cast<size_t>(param.data)];
    // True (read-after-write) and output (write-after-write)
    // dependencies: every direction depends on the last writer.
    if (h.last_writer >= 0) deps.push_back(h.last_writer);
    if (param.dir == Dir::kOut || param.dir == Dir::kInOut) {
      // Anti dependency: write-after-read.
      deps.insert(deps.end(), h.readers_since_write.begin(),
                  h.readers_since_write.end());
    }
  }
  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());

  int level = 0;
  for (TaskId dep : task.deps) {
    level = std::max(level, tasks_[static_cast<size_t>(dep)].level + 1);
  }
  task.level = level;
  if (static_cast<size_t>(level) == level_widths_.size()) {
    level_widths_.push_back(0);
  }
  ++level_widths_[static_cast<size_t>(level)];

  // Update access histories after dependency extraction so a task
  // reading and writing the same datum does not depend on itself.
  for (const Param& param : task.spec.params) {
    AccessHistory& h = history_[static_cast<size_t>(param.data)];
    if (param.dir == Dir::kOut || param.dir == Dir::kInOut) {
      h.last_writer = task.id;
      h.readers_since_write.clear();
      ++data_[static_cast<size_t>(param.data)].version;
    } else {
      h.readers_since_write.push_back(task.id);
    }
  }

  for (TaskId dep : task.deps) {
    tasks_[static_cast<size_t>(dep)].successors.push_back(task.id);
  }
  return task.id;
}

std::vector<std::vector<TaskId>> TaskGraph::LevelSets() const {
  std::vector<std::vector<TaskId>> levels;
  for (const Task& task : tasks_) {
    if (static_cast<size_t>(task.level) >= levels.size()) {
      levels.resize(static_cast<size_t>(task.level) + 1);
    }
    levels[static_cast<size_t>(task.level)].push_back(task.id);
  }
  return levels;
}

int64_t TaskGraph::MaxWidth() const {
  int64_t width = 0;
  for (int64_t tasks : level_widths_) width = std::max(width, tasks);
  return width;
}

std::string TaskGraph::ToDot() const {
  std::ostringstream out;
  out << "digraph workflow {\n  rankdir=TB;\n";
  for (const Task& task : tasks_) {
    out << "  t" << task.id << " [label=\"" << task.spec.type << " #"
        << task.id << "\"];\n";
  }
  for (const Task& task : tasks_) {
    for (TaskId dep : task.deps) {
      out << "  t" << dep << " -> t" << task.id << ";\n";
    }
  }
  out << "}\n";
  return out.str();
}

Status TaskGraph::Validate() const {
  for (const Task& task : tasks_) {
    for (TaskId dep : task.deps) {
      if (dep < 0 || dep >= num_tasks()) {
        return Status::Internal(StrFormat(
            "task %lld has out-of-range dependency %lld",
            static_cast<long long>(task.id), static_cast<long long>(dep)));
      }
      // Builder-created graphs only depend on earlier tasks, which
      // also guarantees acyclicity.
      if (dep >= task.id) {
        return Status::Internal(StrFormat(
            "task %lld depends on later task %lld (cycle risk)",
            static_cast<long long>(task.id), static_cast<long long>(dep)));
      }
    }
  }
  return Status::OK();
}

}  // namespace taskbench::runtime
