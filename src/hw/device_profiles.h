#ifndef TASKBENCH_HW_DEVICE_PROFILES_H_
#define TASKBENCH_HW_DEVICE_PROFILES_H_

#include <cstdint>
#include <string>

namespace taskbench::hw {

/// Roofline-style description of one CPU core.
///
/// Compute stages are costed as
///   time = max(flops / flops_per_s, bytes_touched / mem_bw_bps)
/// i.e. the slower of the compute roof and the memory roof.
struct CpuCoreProfile {
  std::string name = "cpu-core";
  /// Sustained double-precision throughput of one core on dense
  /// compute-bound kernels (BLAS-like), flop/s.
  double flops_per_s = 16e9;
  /// Sustained memory bandwidth available to one core, bytes/s.
  double mem_bw_bps = 6e9;
};

/// Roofline description of one dedicated GPU device, plus the
/// utilization ramp that models how small kernels underutilize the
/// device (few thread blocks -> idle SMs), and the device memory
/// capacity that produces the paper's "GPU OOM" walls.
struct GpuDeviceProfile {
  std::string name = "gpu";
  /// Peak effective double-precision throughput at full utilization.
  double flops_per_s = 360e9;
  /// Device memory bandwidth, bytes/s.
  double mem_bw_bps = 160e9;
  /// Device memory capacity, bytes. Working sets above this are OOM.
  uint64_t memory_bytes = 12ULL * 1024 * 1024 * 1024;
  /// Utilization ramp: a kernel performing W flops runs at
  /// utilization W / (W + util_ramp_flops). Half utilization at
  /// W == util_ramp_flops.
  double util_ramp_flops = 2e9;
  /// Fixed per-kernel launch overhead, seconds.
  double kernel_launch_s = 20e-6;

  /// Effective utilization for a kernel of `flops` work, in (0, 1).
  double UtilizationFor(double flops) const {
    if (flops <= 0) return 1.0;
    return flops / (flops + util_ramp_flops);
  }
};

/// Host <-> device interconnect (the CPU-GPU communication stage).
struct BusProfile {
  std::string name = "pcie3";
  /// Effective host-to-device / device-to-host bandwidth, bytes/s.
  /// Deliberately below the PCIe 3.0 x16 peak: the workflows the paper
  /// measures move pageable (unpinned) host arrays through CuPy.
  double bandwidth_bps = 1.7e9;
  /// Per-transfer setup latency, seconds.
  double latency_s = 30e-6;
};

/// One physical disk (or one shared filesystem), modeled as an
/// aggregate-bandwidth resource shared by concurrent streams.
struct DiskProfile {
  std::string name = "disk";
  /// Aggregate bandwidth across all concurrent streams, bytes/s.
  double aggregate_bw_bps = 1.2e9;
  /// Per-stream ceiling, bytes/s.
  double per_stream_bw_bps = 1.2e9;
  /// Fixed per-operation latency (metadata/network round trips), s.
  double per_op_latency_s = 0.0;
};

/// Profile factories for the hardware of the paper's testbed
/// (BSC Minotauro, Section 4.4.1) and variants used in ablations.

/// Intel Xeon E5-2630 core (2.3 GHz Sandy Bridge; AVX, no FMA).
CpuCoreProfile XeonE52630Core();

/// One NVIDIA K80 device (one GK210 die, 12 GB), throughput calibrated
/// to the paper's observed peak parallel-fraction speedup (~21x for
/// matmul_func over one Xeon core, Figure 8).
GpuDeviceProfile NvidiaK80();

/// PCIe 3.0 x16 with pageable-memory effective bandwidth.
BusProfile Pcie3();

/// NVLink-class bus (ablation: what the paper's Section 5.5.2 cites as
/// a mitigation for the CPU-GPU bottleneck).
BusProfile NvlinkClass();

/// Node-local scratch disk of one Minotauro node.
DiskProfile LocalNodeDisk();

/// GPFS-like shared filesystem: higher aggregate bandwidth than one
/// local disk but shared by the whole cluster, with network round-trip
/// latency per operation.
DiskProfile GpfsSharedDisk();

/// Minotauro's InfiniBand-class inter-node fabric, which carries the
/// remote block reads of local-disk storage (a node pulling a block
/// that lives on another node). Remote reads stream the disk and the
/// network in parallel, so a fast fabric makes them nearly as cheap
/// as local ones, which is why scheduling policy barely matters on
/// local disks (observation O5).
inline constexpr double kMinotauroNetworkAggregateBps = 40e9;
inline constexpr double kMinotauroNetworkPerStreamBps = 3e9;
inline constexpr double kMinotauroNetworkLatencyS = 0.1e-3;

}  // namespace taskbench::hw

#endif  // TASKBENCH_HW_DEVICE_PROFILES_H_
