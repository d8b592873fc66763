#include "wf/import.h"

#include <cmath>
#include <map>
#include <utility>

#include "common/json.h"
#include "common/strings.h"

namespace taskbench::wf {

namespace {

Status TypeError(const std::string& context, const char* expected) {
  return Status::InvalidArgument(context + ": expected " + expected);
}

Result<const JsonValue*> RequireObject(const JsonValue& value,
                                       const std::string& context) {
  if (!value.IsObject()) return TypeError(context, "an object");
  return &value;
}

Result<const JsonValue*> RequireArray(const JsonValue* value,
                                      const std::string& context) {
  if (value == nullptr || !value->IsArray()) {
    return TypeError(context, "an array");
  }
  return value;
}

Result<std::string> RequireString(const JsonValue* value,
                                  const std::string& context) {
  if (value == nullptr || !value->IsString()) {
    return TypeError(context, "a string");
  }
  if (value->string_value.empty()) {
    return Status::InvalidArgument(context + ": must not be empty");
  }
  return value->string_value;
}

/// A WfFormat byte size: a non-negative integral JSON number small
/// enough to be exact in a double.
Result<uint64_t> RequireBytes(const JsonValue* value,
                              const std::string& context) {
  if (value == nullptr || !value->IsNumber()) {
    return TypeError(context, "a number");
  }
  const double v = value->number_value;
  if (!std::isfinite(v) || v < 0) {
    return Status::InvalidArgument(StrFormat(
        "%s: size must be a finite non-negative number (got %g)",
        context.c_str(), v));
  }
  if (v > 9007199254740992.0 || std::floor(v) != v) {
    return Status::InvalidArgument(StrFormat(
        "%s: size must be an integral byte count (got %.17g)",
        context.c_str(), v));
  }
  return static_cast<uint64_t>(v);
}

Result<double> RequireRuntime(const JsonValue* value,
                              const std::string& context) {
  if (value == nullptr || !value->IsNumber()) {
    return TypeError(context, "a number");
  }
  const double v = value->number_value;
  if (!std::isfinite(v) || v < 0) {
    return Status::InvalidArgument(StrFormat(
        "%s: runtime must be a finite non-negative number (got %g)",
        context.c_str(), v));
  }
  return v;
}

Result<std::vector<std::string>> StringList(const JsonValue* value,
                                            const std::string& context) {
  std::vector<std::string> out;
  if (value == nullptr) return out;  // absent = empty
  if (!value->IsArray()) return TypeError(context, "an array of strings");
  out.reserve(value->items.size());
  for (size_t i = 0; i < value->items.size(); ++i) {
    TB_ASSIGN_OR_RETURN(
        std::string name,
        RequireString(&value->items[i],
                      StrFormat("%s[%zu]", context.c_str(), i)));
    out.push_back(std::move(name));
  }
  return out;
}

/// WfFormat 1.4+: workflow.specification + workflow.execution.
Status ImportSpecification(const JsonValue& workflow, Instance* out) {
  TB_ASSIGN_OR_RETURN(
      const JsonValue* spec,
      RequireObject(*workflow.Find("specification"),
                    "workflow.specification"));
  TB_ASSIGN_OR_RETURN(
      const JsonValue* tasks,
      RequireArray(spec->Find("tasks"), "workflow.specification.tasks"));
  TB_ASSIGN_OR_RETURN(
      const JsonValue* files,
      RequireArray(spec->Find("files"), "workflow.specification.files"));

  for (size_t f = 0; f < files->items.size(); ++f) {
    const std::string context =
        StrFormat("workflow.specification.files[%zu]", f);
    TB_ASSIGN_OR_RETURN(const JsonValue* file,
                        RequireObject(files->items[f], context));
    WfFile entry;
    TB_ASSIGN_OR_RETURN(entry.name,
                        RequireString(file->Find("id"), context + ".id"));
    TB_ASSIGN_OR_RETURN(
        entry.bytes,
        RequireBytes(file->Find("sizeInBytes"),
                     context + ".sizeInBytes ('" + entry.name + "')"));
    out->files.push_back(std::move(entry));
  }

  for (size_t t = 0; t < tasks->items.size(); ++t) {
    const std::string context =
        StrFormat("workflow.specification.tasks[%zu]", t);
    TB_ASSIGN_OR_RETURN(const JsonValue* task,
                        RequireObject(tasks->items[t], context));
    WfTask entry;
    TB_ASSIGN_OR_RETURN(entry.name,
                        RequireString(task->Find("name"), context + ".name"));
    const std::string name_context = "task '" + entry.name + "'";
    if (const JsonValue* category = task->Find("category");
        category != nullptr) {
      TB_ASSIGN_OR_RETURN(
          entry.type, RequireString(category, name_context + ".category"));
    } else {
      entry.type = TypeFromName(entry.name);
    }
    TB_ASSIGN_OR_RETURN(
        entry.parents,
        StringList(task->Find("parents"), name_context + ".parents"));
    TB_ASSIGN_OR_RETURN(
        entry.inputs,
        StringList(task->Find("inputFiles"), name_context + ".inputFiles"));
    TB_ASSIGN_OR_RETURN(
        entry.outputs,
        StringList(task->Find("outputFiles"),
                   name_context + ".outputFiles"));
    // `children` is redundant with the other tasks' parents; tolerate
    // it but require well-formedness.
    TB_ASSIGN_OR_RETURN(
        const std::vector<std::string> children,
        StringList(task->Find("children"), name_context + ".children"));
    (void)children;
    out->tasks.push_back(std::move(entry));
  }

  // Execution runtimes, keyed by task id. Optional: simulation-only
  // instances without measurements keep the 1 s default.
  const JsonValue* execution = workflow.Find("execution");
  if (execution != nullptr) {
    TB_ASSIGN_OR_RETURN(const JsonValue* exec,
                        RequireObject(*execution, "workflow.execution"));
    TB_ASSIGN_OR_RETURN(
        const JsonValue* exec_tasks,
        RequireArray(exec->Find("tasks"), "workflow.execution.tasks"));
    std::map<std::string, size_t> task_index;
    for (size_t t = 0; t < out->tasks.size(); ++t) {
      task_index.emplace(out->tasks[t].name, t);
    }
    for (size_t t = 0; t < exec_tasks->items.size(); ++t) {
      const std::string context =
          StrFormat("workflow.execution.tasks[%zu]", t);
      TB_ASSIGN_OR_RETURN(const JsonValue* task,
                          RequireObject(exec_tasks->items[t], context));
      TB_ASSIGN_OR_RETURN(const std::string id,
                          RequireString(task->Find("id"), context + ".id"));
      const auto it = task_index.find(id);
      if (it == task_index.end()) {
        return Status::InvalidArgument(
            context + ": execution entry for unknown task '" + id + "'");
      }
      TB_ASSIGN_OR_RETURN(
          out->tasks[it->second].runtime_s,
          RequireRuntime(task->Find("runtimeInSeconds"),
                         "task '" + id + "'.runtimeInSeconds"));
    }
  }
  return Status::OK();
}

/// WfFormat <= 1.3: flat workflow.tasks with inline files.
Status ImportFlat(const JsonValue& workflow, Instance* out) {
  TB_ASSIGN_OR_RETURN(const JsonValue* tasks,
                      RequireArray(workflow.Find("tasks"),
                                   "workflow.tasks"));
  std::map<std::string, uint64_t> file_bytes;
  std::vector<std::string> file_order;
  for (size_t t = 0; t < tasks->items.size(); ++t) {
    const std::string context = StrFormat("workflow.tasks[%zu]", t);
    TB_ASSIGN_OR_RETURN(const JsonValue* task,
                        RequireObject(tasks->items[t], context));
    WfTask entry;
    TB_ASSIGN_OR_RETURN(entry.name,
                        RequireString(task->Find("name"), context + ".name"));
    const std::string name_context = "task '" + entry.name + "'";
    if (const JsonValue* category = task->Find("category");
        category != nullptr) {
      TB_ASSIGN_OR_RETURN(
          entry.type, RequireString(category, name_context + ".category"));
    } else {
      entry.type = TypeFromName(entry.name);
    }
    const JsonValue* runtime = task->Find("runtimeInSeconds");
    if (runtime == nullptr) runtime = task->Find("runtime");
    if (runtime != nullptr) {
      TB_ASSIGN_OR_RETURN(entry.runtime_s,
                          RequireRuntime(runtime, name_context + ".runtime"));
    }
    TB_ASSIGN_OR_RETURN(
        entry.parents,
        StringList(task->Find("parents"), name_context + ".parents"));
    if (const JsonValue* files = task->Find("files"); files != nullptr) {
      if (!files->IsArray()) {
        return TypeError(name_context + ".files", "an array");
      }
      for (size_t f = 0; f < files->items.size(); ++f) {
        const std::string file_context =
            StrFormat("%s.files[%zu]", name_context.c_str(), f);
        TB_ASSIGN_OR_RETURN(const JsonValue* file,
                            RequireObject(files->items[f], file_context));
        const JsonValue* id = file->Find("name");
        if (id == nullptr) id = file->Find("id");
        TB_ASSIGN_OR_RETURN(const std::string file_name,
                            RequireString(id, file_context + ".name"));
        const JsonValue* size = file->Find("sizeInBytes");
        if (size == nullptr) size = file->Find("size");
        TB_ASSIGN_OR_RETURN(
            const uint64_t bytes,
            RequireBytes(size, file_context + " ('" + file_name + "')"));
        TB_ASSIGN_OR_RETURN(
            const std::string link,
            RequireString(file->Find("link"), file_context + ".link"));
        if (link == "input") {
          entry.inputs.push_back(file_name);
        } else if (link == "output") {
          entry.outputs.push_back(file_name);
        } else {
          return Status::InvalidArgument(
              file_context + ".link: expected \"input\" or \"output\", got "
              "\"" + link + "\"");
        }
        const auto [it, inserted] = file_bytes.emplace(file_name, bytes);
        if (inserted) {
          file_order.push_back(file_name);
        } else if (it->second != bytes) {
          return Status::InvalidArgument(StrFormat(
              "file '%s': conflicting sizes %llu and %llu",
              file_name.c_str(),
              static_cast<unsigned long long>(it->second),
              static_cast<unsigned long long>(bytes)));
        }
      }
    }
    out->tasks.push_back(std::move(entry));
  }
  for (const std::string& name : file_order) {
    out->files.push_back({name, file_bytes.at(name)});
  }
  return Status::OK();
}

}  // namespace

Result<Instance> ImportWfFormat(std::string_view json_text) {
  TB_ASSIGN_OR_RETURN(const JsonValue root, ParseJson(json_text));
  if (!root.IsObject()) {
    return Status::InvalidArgument(
        "WfFormat document root must be an object");
  }
  Instance instance;
  if (const JsonValue* name = root.Find("name"); name != nullptr) {
    TB_ASSIGN_OR_RETURN(instance.name, RequireString(name, "name"));
  }
  const JsonValue* schema = root.Find("schemaVersion");
  if (schema == nullptr) schema = root.Find("schema");
  if (schema != nullptr && schema->IsString()) {
    instance.schema = schema->string_value;
  }
  const JsonValue* workflow = root.Find("workflow");
  if (workflow == nullptr || !workflow->IsObject()) {
    return Status::InvalidArgument(
        "missing 'workflow' object (not a WfFormat document?)");
  }
  if (workflow->Find("specification") != nullptr) {
    TB_RETURN_IF_ERROR(ImportSpecification(*workflow, &instance));
  } else if (workflow->Find("tasks") != nullptr) {
    TB_RETURN_IF_ERROR(ImportFlat(*workflow, &instance));
  } else {
    return Status::InvalidArgument(
        "workflow has neither 'specification' nor 'tasks'");
  }
  TB_RETURN_IF_ERROR(Validate(instance));
  return instance;
}

}  // namespace taskbench::wf
