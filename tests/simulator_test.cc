#include "sim/simulator.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <iterator>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace taskbench::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0.0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(3.0, [&] { order.push_back(3); });
  sim.At(1.0, [&] { order.push_back(1); });
  sim.At(2.0, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 3.0);
}

TEST(SimulatorTest, TiesFireInInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.At(1.0, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, AfterSchedulesRelativeToNow) {
  Simulator sim;
  double fired_at = -1;
  sim.At(5.0, [&] {
    sim.After(2.5, [&] { fired_at = sim.Now(); });
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 100) sim.After(1.0, chain);
  };
  sim.After(1.0, chain);
  sim.Run();
  EXPECT_EQ(count, 100);
  EXPECT_DOUBLE_EQ(sim.Now(), 100.0);
  EXPECT_EQ(sim.events_executed(), 100u);
}

TEST(SimulatorTest, StopHaltsProcessing) {
  Simulator sim;
  int fired = 0;
  sim.At(1.0, [&] {
    ++fired;
    sim.Stop();
  });
  sim.At(2.0, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, ZeroDelayEventRunsAtSameTime) {
  Simulator sim;
  double t = -1;
  sim.At(4.0, [&] { sim.After(0, [&] { t = sim.Now(); }); });
  sim.Run();
  EXPECT_DOUBLE_EQ(t, 4.0);
}

// Randomized check of the engine against a reference model: a list of
// pending (time, id) pairs, ids in insertion order, from which the next
// event to fire is the minimum. Callbacks schedule 0-3 further events
// with delays drawn from a small set (zero included, so times repeat
// and ties are common); some carry a payload too large for
// std::function's inline buffer, so both callback storage modes pass
// through the reused slots. Each callback reads its captures again
// after scheduling, which would see another event's captures if a new
// event could take over the storage of the callback still running. A
// Stop() partway through, a few events scheduled between the two runs,
// and a second Run() reuse the slots the first run freed.
TEST(SimulatorTest, RandomizedOrderMatchesReferenceModel) {
  constexpr size_t kMaxEvents = 6000;
  constexpr uint64_t kStopAfter = 2000;
  constexpr double kDelays[] = {0.0, 0.0, 0.25, 0.5, 1.0, 3.0};

  Simulator sim;
  Rng rng(7);
  std::vector<std::pair<double, size_t>> pending;  // reference model
  std::vector<size_t> fired;
  std::vector<size_t> returned;  // ids read from captures after fire()
  size_t scheduled = 0;
  bool payload_ok = true;

  // Declared before use so callbacks can schedule more events.
  std::function<void(double)> schedule;
  auto fire = [&](size_t id) {
    auto next = std::min_element(pending.begin(), pending.end());
    ASSERT_NE(next, pending.end());
    EXPECT_EQ(next->second, id) << "fired out of (time, insertion) order";
    EXPECT_EQ(next->first, sim.Now());
    pending.erase(next);
    fired.push_back(id);
    if (fired.size() == kStopAfter) sim.Stop();
    const uint64_t children = rng.NextBounded(4);
    for (uint64_t c = 0; c < children && scheduled < kMaxEvents; ++c) {
      schedule(sim.Now() + kDelays[rng.NextBounded(std::size(kDelays))]);
    }
  };
  schedule = [&](double t) {
    const size_t id = scheduled++;
    pending.emplace_back(t, id);
    if (id % 3 == 0) {
      std::array<uint64_t, 6> payload;
      payload.fill(id);
      sim.At(t, [&fire, &returned, &payload_ok, id, payload] {
        fire(id);
        for (uint64_t v : payload) payload_ok &= v == id;
        returned.push_back(id);
      });
    } else {
      sim.At(t, [&fire, &returned, id] {
        fire(id);
        returned.push_back(id);
      });
    }
  };

  for (int i = 0; i < 64; ++i) {
    schedule(kDelays[rng.NextBounded(std::size(kDelays))]);
  }
  sim.Run();
  ASSERT_EQ(fired.size(), kStopAfter);
  EXPECT_EQ(sim.pending_events(), pending.size());
  ASSERT_GT(pending.size(), 0u);

  const double stopped_at = sim.Now();
  for (int i = 0; i < 8; ++i) {
    schedule(stopped_at + kDelays[rng.NextBounded(std::size(kDelays))]);
  }
  sim.Run();
  EXPECT_TRUE(pending.empty());
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(fired.size(), scheduled);
  EXPECT_EQ(sim.events_executed(), scheduled);
  EXPECT_GT(scheduled, kStopAfter);
  EXPECT_EQ(returned, fired);
  EXPECT_TRUE(payload_ok);
}

TEST(SimulatorDeathTest, SchedulingInThePastAborts) {
  Simulator sim;
  sim.At(5.0, [] {});
  sim.Run();
  EXPECT_DEATH(sim.At(1.0, [] {}), "past");
}

}  // namespace
}  // namespace taskbench::sim
