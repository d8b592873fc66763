#ifndef TASKBENCH_ANALYSIS_OBSERVATIONS_H_
#define TASKBENCH_ANALYSIS_OBSERVATIONS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace taskbench::analysis {

/// Outcome of checking one of the paper's observations O1-O6 against
/// measured sweep data.
struct ObservationCheck {
  std::string id;
  std::string statement;
  bool holds = false;
  std::string evidence;
};

/// O1: "User code speedups are not affected significantly by block
/// size when parallel processing gains are diminished by the serial
/// processing and CPU-GPU communication costs." `user_speedups` are
/// the user-code GPU speedups of a partially parallelizable algorithm
/// across block sizes; holds when their relative spread is small.
ObservationCheck CheckO1(const std::vector<double>& user_speedups);

/// O2: "Parallel task speedups do not increase significantly for
/// coarse-grained tasks, but can significantly improve when data
/// (de-)serialization is fully parallelized using all available CPU
/// cores." Points are (num_tasks, signed parallel-task speedup).
/// Holds when (a) the finest granularity (most tasks) is negative —
/// excess fine-grained tasks lose to data-movement overheads, (b) the
/// speedup at the point saturating the GPU pool (num_tasks closest to
/// `gpu_slots`, where GPU-side (de-)serialization parallelism is
/// maximal) is positive and within 20% of the best observed, and (c)
/// coarser granularities do not significantly beat that plateau.
struct TaskCountSpeedup {
  int64_t num_tasks = 0;
  double speedup = 0;
};
ObservationCheck CheckO2(const std::vector<TaskCountSpeedup>& points,
                         int gpu_slots);

/// O3: "In tasks with low computational complexity, increasing task
/// granularity does not increase significantly GPU speedups over
/// CPU." `low_complexity_speedups` are the user-code speedups of a
/// low-complexity task type (add_func) ordered by increasing block
/// size; holds when growth from finest to coarsest stays small.
ObservationCheck CheckO3(const std::vector<double>& low_complexity_speedups);

/// O4: "GPU speedups over CPU are largely affected by
/// algorithm-specific parameters when their effect dominates the task
/// computational complexity." `speedup_by_param` holds the mean
/// user-code speedup per increasing parameter value (10/100/1000
/// clusters); holds when speedups increase substantially.
ObservationCheck CheckO4(const std::vector<double>& speedup_by_param);

/// O5/O6: policy sensitivity per storage architecture. Each vector
/// holds the per-block-size parallel-task times for one (processor,
/// policy) combination; all four vectors are index-aligned. Empty or
/// unequal-length series fail the check ("insufficient data").
struct PolicySensitivityInput {
  std::vector<double> cpu_gen_order;
  std::vector<double> cpu_locality;
  std::vector<double> gpu_gen_order;
  std::vector<double> gpu_locality;
};

/// O5: with local disks, changing the scheduling policy barely moves
/// the CPU/GPU execution times.
ObservationCheck CheckO5(const PolicySensitivityInput& local_disk);

/// O6: with shared disks, the policy change shifts CPU and GPU times
/// more than it does on local disks.
ObservationCheck CheckO6(const PolicySensitivityInput& local_disk,
                         const PolicySensitivityInput& shared_disk);

/// Mean relative shift between two aligned time series, i.e. how much
/// switching policy moved the measurements. Exposed for tests.
double MeanRelativeShift(const std::vector<double>& a,
                         const std::vector<double>& b);

}  // namespace taskbench::analysis

#endif  // TASKBENCH_ANALYSIS_OBSERVATIONS_H_
