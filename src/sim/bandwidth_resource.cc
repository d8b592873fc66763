#include "sim/bandwidth_resource.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/logging.h"

namespace taskbench::sim {

namespace {
// Completions within this many seconds are treated as due; absorbs the
// floating-point drift of repeated remaining-byte updates.
constexpr double kTimeEpsilon = 1e-12;
// Flows with less than half a byte left are complete: transfer sizes
// are integral, and half a byte of slack keeps the wake loop from
// chasing sub-ULP remainders at large simulation times.
constexpr double kByteEpsilon = 0.5;
}  // namespace

BandwidthResource::BandwidthResource(Simulator* simulator,
                                     BandwidthResourceOptions options)
    : simulator_(simulator), options_(std::move(options)) {
  TB_CHECK(simulator_ != nullptr);
  TB_CHECK(options_.capacity_bps > 0);
  TB_CHECK(options_.per_flow_cap_bps > 0);
  TB_CHECK(options_.per_op_latency_s >= 0);
}

void BandwidthResource::Transfer(uint64_t bytes, Callback on_done) {
  TB_CHECK(on_done != nullptr);
  if (options_.per_op_latency_s <= 0) {
    Admit(bytes, std::move(on_done));
    return;
  }
  if (pending_count_ == pending_.size()) {
    // Full ring: unroll it so the oldest transfer sits at index 0,
    // then double the capacity.
    std::rotate(pending_.begin(),
                pending_.begin() + static_cast<std::ptrdiff_t>(pending_head_),
                pending_.end());
    pending_head_ = 0;
    pending_.resize(std::max<size_t>(4, 2 * pending_.size()));
  }
  Pending& slot = pending_[(pending_head_ + pending_count_) % pending_.size()];
  slot.bytes = bytes;
  slot.on_done = std::move(on_done);
  ++pending_count_;
  simulator_->After(options_.per_op_latency_s, [this] { AdmitPending(); });
}

void BandwidthResource::AdmitPending() {
  TB_CHECK(pending_count_ > 0);
  Pending& oldest = pending_[pending_head_];
  const uint64_t bytes = oldest.bytes;
  Callback on_done = std::move(oldest.on_done);
  pending_head_ = (pending_head_ + 1) % pending_.size();
  --pending_count_;
  Admit(bytes, std::move(on_done));
}

void BandwidthResource::Admit(uint64_t bytes, Callback on_done) {
  total_bytes_ += bytes;
  if (bytes == 0) {
    simulator_->After(0, std::move(on_done));
    return;
  }
  // Bring existing flows up to date before the rate changes.
  Reschedule();
  // No time has passed since the sweep above, so a second sweep could
  // not change a remainder: insert in order and move the wake.
  const double size = static_cast<double>(bytes);
  const auto at = std::upper_bound(remaining_.begin(), remaining_.end(),
                                   size, std::greater<>());
  flows_.insert(flows_.begin() + (at - remaining_.begin()),
                Flow{next_admission_++, callbacks_.Put(std::move(on_done))});
  remaining_.insert(at, size);
  peak_flows_ = std::max(peak_flows_, active_flows());
  ScheduleWake();
}

double BandwidthResource::CurrentRatePerFlow() const {
  if (remaining_.empty()) return 0.0;
  const double fair_share =
      options_.capacity_bps / static_cast<double>(remaining_.size());
  return std::min(fair_share, options_.per_flow_cap_bps);
}

void BandwidthResource::FireFinished(double threshold) {
  size_t live = remaining_.size();
  while (live > 0 && remaining_[live - 1] <= threshold) --live;
  if (live == remaining_.size()) return;
  // The finished run is in remaining-byte order, ties in no
  // particular order; it fires in admission order.
  const auto finished = flows_.begin() + static_cast<std::ptrdiff_t>(live);
  std::sort(finished, flows_.end(), [](const Flow& a, const Flow& b) {
    return a.admitted < b.admitted;
  });
  for (auto it = finished; it != flows_.end(); ++it) {
    simulator_->After(0, callbacks_.Take(it->slot));
  }
  remaining_.resize(live);
  flows_.resize(live);
}

void BandwidthResource::Reschedule() {
  const SimTime now = simulator_->Now();
  const double elapsed = now - last_update_;
  last_update_ = now;
  // Every flow moves at the same rate, so each advances by the same
  // byte count. A live flow holds more than kByteEpsilon, so a zero
  // advance would leave it bit for bit as it is. Subtraction and the
  // clamp are monotone, so the table stays sorted.
  if (elapsed > 0) {
    const double progressed = elapsed * CurrentRatePerFlow();
    for (double& r : remaining_) r = std::max(0.0, r - progressed);
    FireFinished(kByteEpsilon);
  }
  ScheduleWake();
}

void BandwidthResource::ScheduleWake() {
  ++generation_;
  const SimTime now = simulator_->Now();
  while (!remaining_.empty()) {
    const double min_remaining = remaining_.back();
    const double next_completion =
        min_remaining / CurrentRatePerFlow() + kTimeEpsilon;
    // Guard against double-precision starvation: at large simulation
    // times the remaining sliver may be smaller than one ULP of Now(),
    // in which case the wake event could never advance the clock.
    // The sliver is far below any observable duration — finish it now.
    if (now + next_completion <= now) {
      FireFinished(min_remaining + kByteEpsilon);
      continue;
    }
    const uint64_t gen = generation_;
    simulator_->After(next_completion, [this, gen] { OnWake(gen); });
    return;
  }
}

void BandwidthResource::OnWake(uint64_t generation) {
  if (generation != generation_) return;  // superseded by a newer event
  Reschedule();
}

}  // namespace taskbench::sim
