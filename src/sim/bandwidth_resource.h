#ifndef TASKBENCH_SIM_BANDWIDTH_RESOURCE_H_
#define TASKBENCH_SIM_BANDWIDTH_RESOURCE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace taskbench::sim {

/// Configuration for a shared-bandwidth resource.
struct BandwidthResourceOptions {
  /// Aggregate capacity in bytes/second shared by all active flows.
  double capacity_bps = 1e9;
  /// Upper bound on a single flow's rate (a lone client cannot exceed
  /// its own link/controller speed even if the aggregate allows more).
  double per_flow_cap_bps = 1e9;
  /// Fixed setup latency added before each transfer starts (e.g.
  /// network round-trip to a shared filesystem). Seconds.
  double per_op_latency_s = 0.0;
  /// Diagnostic name used in traces.
  std::string name = "bandwidth";
};

/// A processor-sharing bandwidth resource.
///
/// Active transfers share `capacity_bps` equally, each additionally
/// capped at `per_flow_cap_bps`. This reproduces the contention
/// behaviour the paper observes on storage: "an abundance of read/write
/// processes" saturates the disk, while a single coarse stream is
/// limited by the per-stream bandwidth and "cannot be parallelized"
/// (Section 5.1.2). Used for the shared GPFS-like disk (one global
/// instance), local disks (one instance per node) and as a building
/// block for network links.
///
/// Transfers still in their per-op latency wait in a FIFO. Active
/// flows sit in a table sorted by remaining bytes, largest first, with
/// their callbacks in stable slots: a reschedule is one branch-free
/// pass over a contiguous array of remainders, and the finished flows
/// come off the back and fire in admission order.
/// docs/SCHED_FAST_PATH.md §3–4 has the design and the ordering rules.
class BandwidthResource {
 public:
  using Callback = Simulator::Callback;

  BandwidthResource(Simulator* simulator, BandwidthResourceOptions options);

  BandwidthResource(const BandwidthResource&) = delete;
  BandwidthResource& operator=(const BandwidthResource&) = delete;

  /// Starts a transfer of `bytes`; `on_done` fires (via the simulator)
  /// when the transfer completes. Zero-byte transfers complete after
  /// the per-op latency only.
  void Transfer(uint64_t bytes, Callback on_done);

  /// Number of flows currently being served (excludes latency phase).
  int active_flows() const { return static_cast<int>(remaining_.size()); }

  /// Total bytes moved through this resource so far.
  uint64_t total_bytes() const { return total_bytes_; }

  /// Highest number of simultaneously active flows observed.
  int peak_flows() const { return peak_flows_; }

  const BandwidthResourceOptions& options() const { return options_; }

 private:
  /// A transfer still in its per-op latency.
  struct Pending {
    uint64_t bytes = 0;
    Callback on_done;
  };

  /// An active flow, beside its remainder in remaining_.
  struct Flow {
    uint64_t admitted;  ///< admission number: the firing order
    uint32_t slot;      ///< index into callbacks_
  };

  /// Latency event: admits the oldest pending transfer. Every latency
  /// event of one resource has the same delay, so they fire in the
  /// order they were scheduled — the FIFO's order.
  void AdmitPending();
  void Admit(uint64_t bytes, Callback on_done);
  /// Advances all flows to Now() at the current rate, fires the
  /// finished ones and schedules the next completion wake.
  void Reschedule();
  /// Schedules the wake at the smallest remainder, after finishing the
  /// flows whose completion would round back to Now().
  void ScheduleWake();
  /// Fires, in admission order, the flows left with at most
  /// `threshold` bytes: the back of the table.
  void FireFinished(double threshold);
  /// Fires completions that are due now; invoked by the wake event.
  void OnWake(uint64_t generation);
  double CurrentRatePerFlow() const;

  Simulator* simulator_;
  BandwidthResourceOptions options_;
  // Active flows, parallel arrays sorted by remaining bytes, largest
  // first.
  std::vector<double> remaining_;
  std::vector<Flow> flows_;
  CallbackSlots callbacks_;  ///< callbacks of active flows
  uint64_t next_admission_ = 0;
  // Latency FIFO: a ring over pending_ (capacity = pending_.size()).
  std::vector<Pending> pending_;
  size_t pending_head_ = 0;
  size_t pending_count_ = 0;
  SimTime last_update_ = 0.0;
  uint64_t generation_ = 0;  // invalidates stale wake events
  uint64_t total_bytes_ = 0;
  int peak_flows_ = 0;
};

}  // namespace taskbench::sim

#endif  // TASKBENCH_SIM_BANDWIDTH_RESOURCE_H_
