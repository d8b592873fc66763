#include "sim/bandwidth_resource.h"

#include <vector>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace taskbench::sim
