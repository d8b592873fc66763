#include "runtime/executor_factory.h"

#include <utility>

#include "common/strings.h"
#include "runtime/multiproc_executor.h"
#include "runtime/simulated_executor.h"
#include "runtime/thread_pool_executor.h"

namespace taskbench::runtime {

Result<ExecutorKind> ParseExecutorKind(std::string_view name) {
  if (name == "threads") return ExecutorKind::kThreads;
  if (name == "sim") return ExecutorKind::kSim;
  if (name == "procs") return ExecutorKind::kProcs;
  return Status::InvalidArgument(StrFormat(
      "unknown executor '%.*s' (expected threads, sim, or procs)",
      static_cast<int>(name.size()), name.data()));
}

std::string_view ExecutorKindName(ExecutorKind kind) {
  switch (kind) {
    case ExecutorKind::kThreads:
      return "threads";
    case ExecutorKind::kSim:
      return "sim";
    case ExecutorKind::kProcs:
      return "procs";
  }
  return "unknown";
}

Result<std::unique_ptr<Executor>> MakeExecutor(const ExecutorSpec& spec) {
  TB_RETURN_IF_ERROR(spec.options.Validate());
  switch (spec.kind) {
    case ExecutorKind::kThreads:
      return std::unique_ptr<Executor>(
          std::make_unique<ThreadPoolExecutor>(spec.options, spec.store));
    case ExecutorKind::kSim:
      return std::unique_ptr<Executor>(
          std::make_unique<SimulatedExecutor>(spec.cluster, spec.options));
    case ExecutorKind::kProcs:
      if (!MultiProcExecutor::Supported()) {
        return Status::Unimplemented(
            "multi-process execution is unsupported on this platform");
      }
      return std::unique_ptr<Executor>(
          std::make_unique<MultiProcExecutor>(spec.options));
  }
  return Status::InvalidArgument("unknown executor kind");
}

}  // namespace taskbench::runtime
