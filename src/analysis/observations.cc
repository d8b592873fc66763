#include "analysis/observations.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "stats/correlation.h"

namespace taskbench::analysis {

double MeanRelativeShift(const std::vector<double>& a,
                         const std::vector<double>& b) {
  if (a.size() != b.size() || a.empty()) return 0;
  double total = 0;
  size_t counted = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double base = std::max(a[i], b[i]);
    if (base <= 0) continue;
    total += std::fabs(a[i] - b[i]) / base;
    ++counted;
  }
  return counted == 0 ? 0 : total / static_cast<double>(counted);
}

ObservationCheck CheckO1(const std::vector<double>& user_speedups) {
  ObservationCheck check;
  check.id = "O1";
  check.statement =
      "User code speedups are not affected significantly by block size "
      "when parallel gains are diminished by serial and CPU-GPU "
      "communication costs";
  if (user_speedups.size() < 2) {
    check.evidence = "insufficient data";
    return check;
  }
  const double mean = stats::Mean(user_speedups);
  const double spread = stats::StdDev(user_speedups);
  const double cv = mean > 0 ? spread / mean : 1e9;
  check.holds = cv < 0.35;
  check.evidence = StrFormat(
      "user-code speedups mean %.2fx, coefficient of variation %.2f "
      "(threshold 0.35)", mean, cv);
  return check;
}

ObservationCheck CheckO2(const std::vector<TaskCountSpeedup>& points,
                         int gpu_slots) {
  ObservationCheck check;
  check.id = "O2";
  check.statement =
      "Parallel task speedups do not increase significantly for "
      "coarse-grained tasks, but improve when data (de-)serialization "
      "is fully parallelized; excess fine-grained tasks turn negative";
  if (points.size() < 3) {
    check.evidence = "insufficient data";
    return check;
  }
  const TaskCountSpeedup* best = &points[0];
  const TaskCountSpeedup* finest = &points[0];
  const TaskCountSpeedup* saturating = &points[0];
  for (const TaskCountSpeedup& p : points) {
    if (p.speedup > best->speedup) best = &p;
    if (p.num_tasks > finest->num_tasks) finest = &p;
    // Point whose task count is closest to the GPU pool size (full
    // (de-)serialization parallelism on the accelerated run).
    if (std::fabs(std::log2(static_cast<double>(p.num_tasks)) -
                  std::log2(static_cast<double>(gpu_slots))) <
        std::fabs(std::log2(static_cast<double>(saturating->num_tasks)) -
                  std::log2(static_cast<double>(gpu_slots)))) {
      saturating = &p;
    }
  }
  const bool fine_negative = finest->speedup < 1.0;
  const bool plateau_positive = saturating->speedup > 1.0;
  const bool plateau_near_best =
      saturating->speedup >= 0.8 * best->speedup;
  check.holds = fine_negative && plateau_positive && plateau_near_best;
  check.evidence = StrFormat(
      "finest granularity (%lld tasks): %.2fx; at ~%d tasks (GPU pool "
      "saturated): %.2fx; best observed: %.2fx at %lld tasks",
      static_cast<long long>(finest->num_tasks), finest->speedup, gpu_slots,
      saturating->speedup, best->speedup,
      static_cast<long long>(best->num_tasks));
  return check;
}

ObservationCheck CheckO3(const std::vector<double>& low_complexity_speedups) {
  ObservationCheck check;
  check.id = "O3";
  check.statement =
      "In tasks with low computational complexity, increasing task "
      "granularity does not increase significantly GPU speedups";
  if (low_complexity_speedups.size() < 2) {
    check.evidence = "insufficient data";
    return check;
  }
  double lo = low_complexity_speedups[0];
  double hi = low_complexity_speedups[0];
  for (double s : low_complexity_speedups) {
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  // Signed speedups hover below 1x; significant growth would multiply
  // the magnitude severalfold across the sweep.
  const double growth = std::fabs(lo) > 0 ? std::fabs(hi / lo) : 1e9;
  check.holds = growth < 2.0 && hi < 2.0;
  check.evidence = StrFormat(
      "low-complexity speedups stay in [%.2fx, %.2fx] across block sizes "
      "(growth factor %.2f, threshold 2.0)", lo, hi, growth);
  return check;
}

ObservationCheck CheckO4(const std::vector<double>& speedup_by_param) {
  ObservationCheck check;
  check.id = "O4";
  check.statement =
      "GPU speedups over CPU are largely affected by algorithm-specific "
      "parameters when their effect dominates task complexity";
  if (speedup_by_param.size() < 2) {
    check.evidence = "insufficient data";
    return check;
  }
  bool increasing = true;
  for (size_t i = 1; i < speedup_by_param.size(); ++i) {
    if (speedup_by_param[i] <= speedup_by_param[i - 1]) increasing = false;
  }
  const double gain = speedup_by_param.back() / speedup_by_param.front();
  check.holds = increasing && gain > 2.0;
  std::vector<std::string> rendered;
  for (double s : speedup_by_param) rendered.push_back(StrFormat("%.2fx", s));
  check.evidence = StrFormat(
      "speedups by parameter value: %s (monotone=%s, total gain %.1fx)",
      Join(rendered, ", ").c_str(), increasing ? "yes" : "no", gain);
  return check;
}

namespace {

/// Length of `input`'s four series when they share one non-zero
/// length, else 0: a policy shift over missing or misaligned points
/// would read as "no shift" and pass O5 and O6 vacuously.
size_t AlignedLength(const PolicySensitivityInput& input) {
  const size_t n = input.cpu_gen_order.size();
  const bool aligned = input.cpu_locality.size() == n &&
                       input.gpu_gen_order.size() == n &&
                       input.gpu_locality.size() == n;
  return aligned ? n : 0;
}

}  // namespace

ObservationCheck CheckO5(const PolicySensitivityInput& local_disk) {
  ObservationCheck check;
  check.id = "O5";
  check.statement =
      "With local disks, scheduling policy variations barely affect "
      "CPU and GPU execution times";
  if (AlignedLength(local_disk) == 0) {
    check.evidence = "insufficient data";
    return check;
  }
  const double cpu_shift =
      MeanRelativeShift(local_disk.cpu_gen_order, local_disk.cpu_locality);
  const double gpu_shift =
      MeanRelativeShift(local_disk.gpu_gen_order, local_disk.gpu_locality);
  check.holds = cpu_shift < 0.15 && gpu_shift < 0.15;
  check.evidence = StrFormat(
      "local disk policy shift: CPU %.1f%%, GPU %.1f%% (threshold 15%%)",
      cpu_shift * 100, gpu_shift * 100);
  return check;
}

ObservationCheck CheckO6(const PolicySensitivityInput& local_disk,
                         const PolicySensitivityInput& shared_disk) {
  ObservationCheck check;
  check.id = "O6";
  check.statement =
      "With shared disks, scheduling policy variations affect execution "
      "times more than with local disks (low-complexity tasks)";
  const size_t points = AlignedLength(local_disk);
  if (points == 0 || AlignedLength(shared_disk) != points) {
    check.evidence = "insufficient data";
    return check;
  }
  const double local_shift =
      (MeanRelativeShift(local_disk.cpu_gen_order, local_disk.cpu_locality) +
       MeanRelativeShift(local_disk.gpu_gen_order, local_disk.gpu_locality)) /
      2;
  const double shared_shift =
      (MeanRelativeShift(shared_disk.cpu_gen_order,
                         shared_disk.cpu_locality) +
       MeanRelativeShift(shared_disk.gpu_gen_order,
                         shared_disk.gpu_locality)) /
      2;
  check.holds = shared_shift > local_shift;
  check.evidence = StrFormat(
      "mean policy shift: shared disk %.1f%% vs local disk %.1f%%",
      shared_shift * 100, local_shift * 100);
  return check;
}

}  // namespace taskbench::analysis
