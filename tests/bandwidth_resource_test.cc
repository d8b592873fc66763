#include "sim/bandwidth_resource.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace taskbench::sim {
namespace {

constexpr double kTol = 1e-6;

BandwidthResourceOptions Opts(double capacity, double per_flow,
                              double latency = 0) {
  BandwidthResourceOptions o;
  o.capacity_bps = capacity;
  o.per_flow_cap_bps = per_flow;
  o.per_op_latency_s = latency;
  return o;
}

TEST(BandwidthResourceTest, SingleFlowLimitedByPerFlowCap) {
  Simulator sim;
  BandwidthResource disk(&sim, Opts(1000.0, 100.0));
  double done_at = -1;
  disk.Transfer(200, [&] { done_at = sim.Now(); });
  sim.Run();
  // 200 bytes at the 100 B/s per-flow cap, not the 1000 B/s aggregate.
  EXPECT_NEAR(done_at, 2.0, kTol);
}

TEST(BandwidthResourceTest, ManyFlowsSplitAggregate) {
  Simulator sim;
  BandwidthResource disk(&sim, Opts(1000.0, 1000.0));
  std::vector<double> done(4, -1);
  for (int i = 0; i < 4; ++i) {
    disk.Transfer(250, [&done, &sim, i] { done[static_cast<size_t>(i)] = sim.Now(); });
  }
  sim.Run();
  // 4 x 250 bytes sharing 1000 B/s -> each runs at 250 B/s, 1 s total.
  for (double t : done) EXPECT_NEAR(t, 1.0, kTol);
}

TEST(BandwidthResourceTest, LateArrivalSlowsEarlierFlow) {
  Simulator sim;
  BandwidthResource disk(&sim, Opts(100.0, 100.0));
  double first_done = -1, second_done = -1;
  disk.Transfer(100, [&] { first_done = sim.Now(); });
  sim.At(0.5, [&] {
    disk.Transfer(50, [&] { second_done = sim.Now(); });
  });
  sim.Run();
  // First flow: 50 bytes alone (0.5 s), then shares 100 B/s -> 50 B/s.
  // Remaining 50 bytes take 1 s -> done at 1.5 s. Second flow: 50
  // bytes at 50 B/s -> also done at 1.5 s.
  EXPECT_NEAR(first_done, 1.5, 1e-4);
  EXPECT_NEAR(second_done, 1.5, 1e-4);
}

TEST(BandwidthResourceTest, PerOpLatencyDelaysStart) {
  Simulator sim;
  BandwidthResource disk(&sim, Opts(100.0, 100.0, 0.25));
  double done_at = -1;
  disk.Transfer(100, [&] { done_at = sim.Now(); });
  sim.Run();
  EXPECT_NEAR(done_at, 1.25, kTol);
}

TEST(BandwidthResourceTest, ZeroByteTransferPaysOnlyLatency) {
  Simulator sim;
  BandwidthResource disk(&sim, Opts(100.0, 100.0, 0.1));
  double done_at = -1;
  disk.Transfer(0, [&] { done_at = sim.Now(); });
  sim.Run();
  EXPECT_NEAR(done_at, 0.1, kTol);
}

TEST(BandwidthResourceTest, TracksTotalsAndPeak) {
  Simulator sim;
  BandwidthResource disk(&sim, Opts(100.0, 100.0));
  int completions = 0;
  for (int i = 0; i < 3; ++i) {
    disk.Transfer(100, [&] { ++completions; });
  }
  sim.Run();
  EXPECT_EQ(completions, 3);
  EXPECT_EQ(disk.total_bytes(), 300u);
  EXPECT_EQ(disk.peak_flows(), 3);
  EXPECT_EQ(disk.active_flows(), 0);
}

TEST(BandwidthResourceTest, UnequalSizesCompleteInSizeOrder) {
  Simulator sim;
  BandwidthResource disk(&sim, Opts(100.0, 100.0));
  double small_done = -1, big_done = -1;
  disk.Transfer(50, [&] { small_done = sim.Now(); });
  disk.Transfer(150, [&] { big_done = sim.Now(); });
  sim.Run();
  // Shared 50 B/s each: small finishes at 1 s; big then speeds up to
  // 100 B/s for its remaining 100 bytes -> 2 s.
  EXPECT_NEAR(small_done, 1.0, 1e-4);
  EXPECT_NEAR(big_done, 2.0, 1e-4);
}

TEST(BandwidthResourceTest, CompletesAtLargeSimulationTimes) {
  // Regression: with Now() in the tens of thousands of seconds, the
  // sub-ULP completion sliver used to starve the wake loop (the event
  // could not advance the clock), hanging the simulation. Large
  // transfers late in a run must still complete.
  Simulator sim;
  BandwidthResourceOptions o;
  o.capacity_bps = 5e9;
  o.per_flow_cap_bps = 0.5e9;
  o.per_op_latency_s = 3e-3;
  BandwidthResource disk(&sim, o);
  int done = 0;
  sim.At(35184.0, [&] {
    disk.Transfer(34'359'738'368ULL, [&] { ++done; });
    disk.Transfer(34'359'738'368ULL, [&] { ++done; });
  });
  sim.Run();
  EXPECT_EQ(done, 2);
  // 2 x 32 GiB sharing... each capped at 0.5 GB/s: ~68.7 s each.
  EXPECT_NEAR(sim.Now(), 35184.0 + 0.003 + 68.72, 0.1);
  // The run terminates with a sane number of events (no wake storm).
  EXPECT_LT(sim.events_executed(), 100u);
}

TEST(BandwidthResourceTest, ContentionScalesMakespanLinearly) {
  // Property: with per-flow cap >= fair share, n identical concurrent
  // flows finish in n x the single-flow time.
  for (int n : {1, 2, 8, 32}) {
    Simulator sim;
    BandwidthResource disk(&sim, Opts(1e6, 1e6));
    int done = 0;
    for (int i = 0; i < n; ++i) {
      disk.Transfer(1e6, [&] { ++done; });
    }
    const double makespan = sim.Run();
    EXPECT_EQ(done, n);
    EXPECT_NEAR(makespan, static_cast<double>(n), 1e-3);
  }
}

TEST(BandwidthResourceTest, FlowsFinishingAtOneWakeFireInAdmissionOrder) {
  // A (150 B) runs alone for 1 s and has 50 B left when B (50 B) and
  // C (50 B) arrive; all three then share 100 B/s and finish together
  // at 2.5 s, on one wake. They must fire in admission order, not in
  // size or reverse order.
  Simulator sim;
  BandwidthResource disk(&sim, Opts(100.0, 100.0));
  std::vector<char> order;
  disk.Transfer(150, [&] { order.push_back('A'); });
  sim.At(1.0, [&] {
    disk.Transfer(50, [&] { order.push_back('B'); });
    disk.Transfer(50, [&] { order.push_back('C'); });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C'}));
  EXPECT_NEAR(sim.Now(), 2.5, kTol);
}

TEST(BandwidthResourceTest, LatencyPhaseTransfersKeepTheirOwnCallbacks) {
  // 0.25 s per-op latency, 100 B/s shared. T1 (100 B) and T2 (300 B)
  // are issued together at t=0 and T3 (50 B) at t=0.1, so all three
  // wait in the latency phase at once. Processor sharing predicts:
  //   0.25-0.35  T1, T2 at 50 B/s          -> 95 and 295 B left
  //   0.35-1.85  T1, T2, T3 at 100/3 B/s   -> T3 done at 1.85
  //   1.85-2.75  T1, T2 at 50 B/s          -> T1 done at 2.75
  //   2.75-4.75  T2 alone at 100 B/s       -> T2 done at 4.75
  Simulator sim;
  BandwidthResource disk(&sim, Opts(100.0, 100.0, 0.25));
  std::vector<double> done(3, -1);
  std::vector<int> order;
  auto finish = [&](int id) {
    return [&, id] {
      EXPECT_LT(done[static_cast<size_t>(id)], 0) << "callback fired twice";
      done[static_cast<size_t>(id)] = sim.Now();
      order.push_back(id);
    };
  };
  disk.Transfer(100, finish(0));
  disk.Transfer(300, finish(1));
  sim.At(0.1, [&] { disk.Transfer(50, finish(2)); });
  sim.Run();
  EXPECT_NEAR(done[0], 2.75, 1e-9);
  EXPECT_NEAR(done[1], 4.75, 1e-9);
  EXPECT_NEAR(done[2], 1.85, 1e-9);
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1}));
  EXPECT_EQ(disk.total_bytes(), 450u);
  EXPECT_EQ(disk.peak_flows(), 3);
}

TEST(BandwidthResourceTest, StarvationGuardCompletesFlowsInAdmissionOrder) {
  // At t = 1e6 s one ULP of the clock is ~1.2e-10 s, while at 1 TB/s
  // per flow a few bytes take a few picoseconds: the last wake leaves
  // a remainder whose completion time rounds back to Now(), and the
  // starvation guard has to finish it. The three flows must all
  // complete, in admission order, with no wake storm.
  Simulator sim;
  BandwidthResource disk(&sim, Opts(1e12, 1e12));
  std::vector<int> order;
  sim.At(1e6, [&] {
    for (int i = 0; i < 3; ++i) {
      disk.Transfer(123'456'789, [&order, i] { order.push_back(i); });
    }
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(disk.active_flows(), 0);
  EXPECT_NEAR(sim.Now(), 1e6 + 3 * 123'456'789 / 1e12, 1e-6);
  EXPECT_LT(sim.events_executed(), 20u);
}

TEST(BandwidthResourceTest, StarvationGuardFinishesFlowsWithinHalfAByte) {
  // Near 1e9 s one ULP of the clock is 2^-23 s. A (123'456'789 B)
  // runs alone at 1e12 B/s for two ULPs and has 123'218'370.42 B left
  // when B (123'218'370 B) arrives, so B's remainder is the minimum
  // and A's stays within half a byte of it. The last wake leaves B a
  // sliver whose completion rounds back to Now(): the guard must
  // finish both on one pass, in admission order (A first).
  Simulator sim;
  BandwidthResource disk(&sim, Opts(1e12, 1e12));
  std::vector<char> order;
  sim.At(1e9, [&] {
    disk.Transfer(123'456'789, [&] { order.push_back('A'); });
  });
  sim.At(1e9 + 0x1p-22, [&] {
    disk.Transfer(123'218'370, [&] { order.push_back('B'); });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B'}));
  EXPECT_EQ(disk.active_flows(), 0);
}

// The resource as it was before the sorted flow table, kept as the
// oracle: active flows in parallel arrays in admission order, and one
// pass per reschedule that advances every flow, fires the finished
// ones and compacts the rest (its latency FIFO is a plain deque). It
// also counts what the schedules below must exercise: starvation-guard
// passes and wakes that finish several flows at once.
class ArrayModel {
 public:
  ArrayModel(Simulator* simulator, BandwidthResourceOptions options)
      : simulator_(simulator), options_(std::move(options)) {}

  void Transfer(uint64_t bytes, Simulator::Callback on_done) {
    if (options_.per_op_latency_s <= 0) {
      Admit(bytes, std::move(on_done));
      return;
    }
    pending_.emplace_back(bytes, std::move(on_done));
    simulator_->After(options_.per_op_latency_s, [this] {
      auto [pending_bytes, pending_done] = std::move(pending_.front());
      pending_.pop_front();
      Admit(pending_bytes, std::move(pending_done));
    });
  }

  uint64_t total_bytes() const { return total_bytes_; }
  int peak_flows() const { return peak_flows_; }
  int guard_passes() const { return guard_passes_; }
  int shared_wakes() const { return shared_wakes_; }

 private:
  static constexpr double kTimeEpsilon = 1e-12;
  static constexpr double kByteEpsilon = 0.5;

  void Admit(uint64_t bytes, Simulator::Callback on_done) {
    total_bytes_ += bytes;
    if (bytes == 0) {
      simulator_->After(0, std::move(on_done));
      return;
    }
    Reschedule();
    remaining_.push_back(static_cast<double>(bytes));
    on_done_.push_back(std::move(on_done));
    peak_flows_ = std::max(peak_flows_, static_cast<int>(remaining_.size()));
    Reschedule();
  }

  double CurrentRatePerFlow() const {
    if (remaining_.empty()) return 0.0;
    const double fair_share =
        options_.capacity_bps / static_cast<double>(remaining_.size());
    return std::min(fair_share, options_.per_flow_cap_bps);
  }

  double Sweep(double progressed, double threshold) {
    double min_remaining = std::numeric_limits<double>::infinity();
    size_t kept = 0;
    int fired = 0;
    for (size_t i = 0; i < remaining_.size(); ++i) {
      const double r = std::max(0.0, remaining_[i] - progressed);
      if (r <= threshold) {
        simulator_->After(0, std::move(on_done_[i]));
        ++fired;
        continue;
      }
      remaining_[kept] = r;
      if (kept != i) on_done_[kept] = std::move(on_done_[i]);
      ++kept;
      min_remaining = std::min(min_remaining, r);
    }
    remaining_.resize(kept);
    on_done_.resize(kept);
    if (fired > 1) ++shared_wakes_;
    return min_remaining;
  }

  void Reschedule() {
    const SimTime now = simulator_->Now();
    const double elapsed = now - last_update_;
    last_update_ = now;
    const double progressed =
        elapsed > 0 ? elapsed * CurrentRatePerFlow() : 0.0;
    const double min_remaining = Sweep(progressed, kByteEpsilon);
    ++generation_;
    if (remaining_.empty()) return;
    const double next_completion =
        min_remaining / CurrentRatePerFlow() + kTimeEpsilon;
    if (now + next_completion <= now) {
      ++guard_passes_;
      Sweep(0.0, min_remaining + kByteEpsilon);
      ++generation_;
      if (remaining_.empty()) return;
      Reschedule();
      return;
    }
    const uint64_t gen = generation_;
    simulator_->After(next_completion, [this, gen] {
      if (gen == generation_) Reschedule();
    });
  }

  Simulator* simulator_;
  BandwidthResourceOptions options_;
  std::vector<double> remaining_;
  std::vector<Simulator::Callback> on_done_;
  std::deque<std::pair<uint64_t, Simulator::Callback>> pending_;
  SimTime last_update_ = 0.0;
  uint64_t generation_ = 0;
  uint64_t total_bytes_ = 0;
  int peak_flows_ = 0;
  int guard_passes_ = 0;
  int shared_wakes_ = 0;
};

/// One transfer of a schedule: issued at `at` when it has no parent,
/// else `at` seconds after its parent completes (0: inside the
/// parent's callback).
struct PlannedTransfer {
  int parent;
  double at;
  uint64_t bytes;
};

/// A family of schedules: start instants base + k * step, sizes drawn
/// from a palette in which some are equal or tie after a sweep.
struct Scenario {
  const char* name;
  BandwidthResourceOptions options;
  double base;
  double step;
  std::vector<uint64_t> sizes;
};

std::vector<PlannedTransfer> PlanSchedule(const Scenario& scenario,
                                          uint64_t seed) {
  Rng rng(seed);
  auto size = [&] {
    return scenario.sizes[rng.NextBounded(scenario.sizes.size())];
  };
  std::vector<PlannedTransfer> plan;
  // Equal sizes admitted at one instant.
  const uint64_t burst = size();
  for (int i = 0; i < 6; ++i) plan.push_back({-1, scenario.base, burst});
  for (int i = 0; i < 40; ++i) {
    const double at =
        scenario.base + scenario.step * static_cast<double>(rng.NextBounded(8));
    plan.push_back({-1, at, size()});
  }
  for (int i = 0; i < 40; ++i) {
    const int parent = static_cast<int>(rng.NextBounded(plan.size()));
    const double delay = rng.NextBounded(2) == 0 ? 0.0 : scenario.step / 2;
    plan.push_back({parent, delay, size()});
  }
  return plan;
}

struct Outcome {
  std::vector<int> order;          ///< transfer ids in completion order
  std::vector<uint64_t> at_bits;   ///< their completion times' bits
  uint64_t events = 0;
  uint64_t total_bytes = 0;
  int peak_flows = 0;
  int active_flows = 0;
  int guard_passes = 0;
  int shared_wakes = 0;
};

template <typename Resource>
Outcome Drive(const Scenario& scenario,
              const std::vector<PlannedTransfer>& plan) {
  Simulator sim;
  Resource resource(&sim, scenario.options);
  Outcome out;
  std::vector<std::vector<int>> children(plan.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    if (plan[i].parent >= 0) {
      children[static_cast<size_t>(plan[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::function<void(int)> issue = [&](int id) {
    resource.Transfer(plan[static_cast<size_t>(id)].bytes, [&, id] {
      out.order.push_back(id);
      out.at_bits.push_back(std::bit_cast<uint64_t>(sim.Now()));
      for (int child : children[static_cast<size_t>(id)]) {
        const double delay = plan[static_cast<size_t>(child)].at;
        if (delay == 0) {
          issue(child);
        } else {
          sim.After(delay, [&issue, child] { issue(child); });
        }
      }
    });
  };
  for (size_t i = 0; i < plan.size(); ++i) {
    if (plan[i].parent < 0) {
      const int id = static_cast<int>(i);
      sim.At(plan[i].at, [&issue, id] { issue(id); });
    }
  }
  sim.Run();
  out.events = sim.events_executed();
  out.total_bytes = resource.total_bytes();
  out.peak_flows = resource.peak_flows();
  if constexpr (std::is_same_v<Resource, ArrayModel>) {
    out.guard_passes = resource.guard_passes();
    out.shared_wakes = resource.shared_wakes();
  } else {
    out.active_flows = resource.active_flows();
  }
  return out;
}

TEST(BandwidthResourceTest, RandomizedSchedulesMatchTheArrayModel) {
  const std::vector<uint64_t> small = {0, 50, 50, 100, 150, 200, 400};
  // Sizes within a few bytes of each other finish within one ULP of a
  // clock near 1e9 s, where the starvation guard takes over.
  const std::vector<uint64_t> huge = {0,         123'456'789, 123'456'789,
                                      123'456'790, 123'456'796, 123'457'000,
                                      123'496'789};
  const std::vector<Scenario> scenarios = {
      {"cap above fair share", Opts(100, 1000), 0, 0.5, small},
      {"cap around fair share", Opts(100, 30), 0, 0.5, small},
      {"cap below fair share", Opts(100, 5), 0, 0.5, small},
      {"latency, cap above", Opts(100, 1000, 0.25), 0, 0.5, small},
      {"latency, cap around", Opts(100, 30, 0.25), 0, 0.5, small},
      {"near 1e9 s", Opts(1e12, 1e12), 1e9, 1e-4, huge},
      {"near 1e9 s, capped, latency", Opts(1e12, 4e11, 3e-3), 1e9, 1e-4,
       huge},
  };
  for (const Scenario& scenario : scenarios) {
    int guard_passes = 0;
    int shared_wakes = 0;
    for (uint64_t seed = 0; seed < 25; ++seed) {
      SCOPED_TRACE(testing::Message()
                   << scenario.name << ", seed " << seed);
      const std::vector<PlannedTransfer> plan = PlanSchedule(scenario, seed);
      const Outcome want = Drive<ArrayModel>(scenario, plan);
      const Outcome got = Drive<BandwidthResource>(scenario, plan);
      ASSERT_EQ(want.order.size(), plan.size());
      EXPECT_EQ(got.order, want.order);
      EXPECT_EQ(got.at_bits, want.at_bits);
      EXPECT_EQ(got.events, want.events);
      EXPECT_EQ(got.total_bytes, want.total_bytes);
      EXPECT_EQ(got.peak_flows, want.peak_flows);
      EXPECT_EQ(got.active_flows, 0);
      guard_passes += want.guard_passes;
      shared_wakes += want.shared_wakes;
    }
    // The schedules reach the paths they are meant to cover.
    EXPECT_GT(shared_wakes, 0) << scenario.name;
    if (scenario.base > 0) {
      EXPECT_GT(guard_passes, 0) << scenario.name;
    }
  }
}

}  // namespace
}  // namespace taskbench::sim
