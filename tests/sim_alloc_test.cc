// Allocation guard for the simulated executor's event core: a
// fault-free Execute may allocate while it sizes its arrays, but not
// per event. The binary replaces the global operator new with a
// counting one (so it is its own test executable) and counts only the
// allocations made inside Execute.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "algos/matmul.h"
#include "common/types.h"
#include "data/generators.h"
#include "data/grid.h"
#include "hw/cluster.h"
#include "runtime/simulated_executor.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace taskbench::runtime {
namespace {

// The per-event budget: set-up allocations (arrays sized once per run)
// amortize far below it, one allocation per scheduled callback or per
// task would not.
constexpr double kMaxAllocationsPerEvent = 0.05;

TEST(SimAllocTest, FaultFreeRunsDoNotAllocatePerEvent) {
  const auto spec = data::GridSpec::CreateFromGridDim(
      data::PaperDatasets::Matmul8GB(), 16, 16);
  ASSERT_TRUE(spec.ok());
  auto workflow = algos::BuildMatmul(*spec, algos::MatmulOptions{});
  ASSERT_TRUE(workflow.ok());
  const TaskGraph& graph = workflow->graph;

  for (auto policy : {SchedulingPolicy::kTaskGenerationOrder,
                      SchedulingPolicy::kDataLocality,
                      SchedulingPolicy::kCostModel}) {
    for (auto storage : {hw::StorageArchitecture::kSharedDisk,
                         hw::StorageArchitecture::kLocalDisk}) {
      RunOptions options;
      options.policy = policy;
      options.storage = storage;
      const SimulatedExecutor executor(hw::MinotauroCluster(), options);
      const uint64_t before = g_allocations.load();
      auto report = executor.Execute(graph);
      const uint64_t allocations = g_allocations.load() - before;
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ASSERT_GT(report->sim_events, 0u);
      const double per_event = static_cast<double>(allocations) /
                               static_cast<double>(report->sim_events);
      std::printf("%-16s %-11s %8llu allocations / %8llu events = %.4f\n",
                  ToString(policy).c_str(), ToString(storage).c_str(),
                  static_cast<unsigned long long>(allocations),
                  static_cast<unsigned long long>(report->sim_events),
                  per_event);
      EXPECT_LT(per_event, kMaxAllocationsPerEvent)
          << ToString(policy) << " on " << ToString(storage) << ": "
          << allocations << " allocations over " << report->sim_events
          << " events";
    }
  }
}

}  // namespace
}  // namespace taskbench::runtime
