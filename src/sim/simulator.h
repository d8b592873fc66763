#ifndef TASKBENCH_SIM_SIMULATOR_H_
#define TASKBENCH_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace taskbench::sim {

/// Simulated time in seconds since simulation start.
using SimTime = double;

/// Callbacks in stable slots, reused through a free list: each is moved
/// in once and moved out once, and a slot's index names its callback
/// until it is taken. The event queue keeps its pending events'
/// callbacks here, and BandwidthResource its active flows'.
class CallbackSlots {
 public:
  using Callback = std::function<void()>;

  /// Stores `cb` in a free slot and returns the slot's index.
  uint32_t Put(Callback cb);

  /// Moves the callback out of `slot` and frees the slot.
  Callback Take(uint32_t slot) {
    free_.push_back(slot);
    return std::move(slots_[slot]);
  }

 private:
  std::vector<Callback> slots_;
  std::vector<uint32_t> free_;  ///< slots_ indices free for reuse
};

/// A deterministic discrete-event simulator.
///
/// Events are callbacks ordered by (time, insertion sequence); ties in
/// time fire in insertion order, which keeps runs bit-reproducible.
/// The simulated cluster executor and the storage/bus contention models
/// are built on top of this engine.
///
/// The queue is a binary heap of plain {time, seq, slot} entries under
/// an inlined (time, seq) order; the callbacks live in a slot array
/// that is reused as events fire, and each callback is moved out of
/// its slot once, just before it runs.
/// A callback that fits std::function's inline buffer (16 bytes of
/// trivially copyable captures, e.g. {this, pointer}) therefore costs
/// no allocation from schedule to fire once the arrays have grown to
/// the run's peak. docs/SCHED_FAST_PATH.md §3–4 has the design and
/// the ordering rules.
class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. 0.0 before any event has fired.
  SimTime Now() const { return now_; }

  /// Schedules `cb` at absolute time `t`. Requires t >= Now().
  void At(SimTime t, Callback cb);

  /// Schedules `cb` at Now() + delay. Requires delay >= 0.
  void After(SimTime delay, Callback cb);

  /// Runs events until the queue is empty or Stop() is called.
  /// Returns the time of the last event executed.
  SimTime Run();

  /// Stops Run() after the currently executing event returns.
  void Stop() { stopped_ = true; }

  /// Number of events executed so far (diagnostic).
  uint64_t events_executed() const { return events_executed_; }

  /// Number of events currently pending.
  size_t pending_events() const { return heap_.size(); }

  /// High-water mark of the pending-event queue over the run — the
  /// engine-side "queue depth" telemetry the run-metrics export
  /// reports (diagnostic; tracking it is one compare per push).
  size_t max_pending_events() const { return max_pending_; }

 private:
  struct Entry {
    SimTime time;
    uint64_t seq;
    uint32_t slot;  ///< index into slots_
  };

  /// Heap order: the earliest (time, seq) on top. A function object,
  /// not a function pointer, so std::push_heap and std::pop_heap
  /// inline the comparison.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::vector<Entry> heap_;
  CallbackSlots slots_;  ///< callbacks of pending events
  SimTime now_ = 0.0;
  size_t max_pending_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
  bool stopped_ = false;
};

}  // namespace taskbench::sim

#endif  // TASKBENCH_SIM_SIMULATOR_H_
