#ifndef TASKBENCH_RUNTIME_SHARDED_VALUE_STORE_H_
#define TASKBENCH_RUNTIME_SHARDED_VALUE_STORE_H_

#include <algorithm>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "data/matrix.h"
#include "hw/topology.h"
#include "runtime/task_graph.h"

namespace taskbench::runtime {

/// Memory-mode block store of the thread-pool executor: the current
/// value of every DataId, striped over independent locks.
///
/// DataIds are dense [0, num_data), so the slots are a plain vector
/// and a lookup is one stripe lock + one shared_ptr copy — no tree or
/// hash walk, and two workers contend only when their data ids share
/// a stripe (ids map round-robin, so neighboring blocks never do).
/// Values are shared_ptr so a reader takes ownership under the stripe
/// lock and uses the matrix outside it; the DAG's write-after-read
/// dependencies guarantee a datum is not overwritten while a running
/// task still reads it, and the old value's last shared_ptr keeps it
/// alive regardless.
///
/// The stripe count derives from the detected core count, so wide
/// hosts stripe wider than the old compile-time 64.
class ShardedValueStore {
 public:
  explicit ShardedValueStore(int64_t num_slots)
      : stripes_(DefaultStripes()), slots_(static_cast<size_t>(num_slots)) {}

  /// Stripe count derived from the host topology, clamped to
  /// [64, 1024] (64 is the old compile-time constant, so small hosts
  /// behave exactly as before).
  static size_t DefaultStripes() {
    const size_t want =
        NextPow2(static_cast<size_t>(hw::DetectTopology().total_cpus()) * 16);
    return std::min<size_t>(1024, std::max<size_t>(64, want));
  }

  /// Current value of `id`, or null when never written.
  std::shared_ptr<data::Matrix> Get(DataId id) const {
    std::lock_guard<std::mutex> lock(stripes_[StripeOf(id)].mu);
    return slots_[static_cast<size_t>(id)];
  }

  /// Replaces the value of `id`.
  void Put(DataId id, std::shared_ptr<data::Matrix> value) {
    std::lock_guard<std::mutex> lock(stripes_[StripeOf(id)].mu);
    slots_[static_cast<size_t>(id)] = std::move(value);
  }

  /// Takes every non-null value out of the store. Only safe once all
  /// workers have finished (the executor calls this after join, when
  /// each shared_ptr is the sole owner).
  std::vector<std::pair<DataId, std::shared_ptr<data::Matrix>>> TakeAll() {
    std::vector<std::pair<DataId, std::shared_ptr<data::Matrix>>> out;
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i] != nullptr) {
        out.emplace_back(static_cast<DataId>(i), std::move(slots_[i]));
      }
    }
    return out;
  }

 private:
  struct alignas(64) Stripe {  // own cache line per lock
    std::mutex mu;
  };

  static size_t NextPow2(size_t n) {
    size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  size_t StripeOf(DataId id) const {
    return static_cast<size_t>(id) & (stripes_.size() - 1);
  }

  // Sized once at construction, never reallocated (Stripe is
  // immovable).
  mutable std::vector<Stripe> stripes_;
  std::vector<std::shared_ptr<data::Matrix>> slots_;
};

}  // namespace taskbench::runtime

#endif  // TASKBENCH_RUNTIME_SHARDED_VALUE_STORE_H_
