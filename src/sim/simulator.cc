#include "sim/simulator.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace taskbench::sim {

uint32_t CallbackSlots::Put(Callback cb) {
  if (free_.empty()) {
    TB_CHECK(slots_.size() < std::numeric_limits<uint32_t>::max())
        << "too many callbacks";
    slots_.push_back(std::move(cb));
    return static_cast<uint32_t>(slots_.size() - 1);
  }
  const uint32_t slot = free_.back();
  free_.pop_back();
  slots_[slot] = std::move(cb);
  return slot;
}

void Simulator::At(SimTime t, Callback cb) {
  TB_CHECK(t >= now_) << "cannot schedule event in the past: t=" << t
                      << " now=" << now_;
  heap_.push_back(Entry{t, next_seq_++, slots_.Put(std::move(cb))});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  if (heap_.size() > max_pending_) max_pending_ = heap_.size();
}

void Simulator::After(SimTime delay, Callback cb) {
  TB_CHECK(delay >= 0) << "negative delay: " << delay;
  At(now_ + delay, std::move(cb));
}

SimTime Simulator::Run() {
  stopped_ = false;
  while (!heap_.empty() && !stopped_) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry next = heap_.back();
    heap_.pop_back();
    // The callback may schedule new events (which can reuse this slot
    // or grow slots_), so it leaves its slot before it runs.
    Callback cb = slots_.Take(next.slot);
    now_ = next.time;
    ++events_executed_;
    cb();
  }
  return now_;
}

}  // namespace taskbench::sim
