#ifndef TASKBENCH_SERVICE_ARRIVAL_H_
#define TASKBENCH_SERVICE_ARRIVAL_H_

#include <cstdint>
#include <string_view>

#include "common/random.h"
#include "common/result.h"

namespace taskbench::service {

/// Interarrival processes for the open-loop load generator. Open-loop
/// means arrivals do not wait for completions — the generator keeps
/// submitting at its configured rate even when the service is
/// saturated, which is exactly the regime where admission control and
/// tail latency matter.
enum class ArrivalProcess {
  kPoisson,    ///< exponential interarrivals (memoryless baseline)
  kBursty,     ///< two-state modulated Poisson: calm / burst phases
  kHeavyTail,  ///< Pareto interarrivals (rare long gaps, dense runs)
};

/// Parses an `--arrivals` value: "poisson" | "bursty" | "heavytail".
Result<ArrivalProcess> ParseArrivalProcess(std::string_view name);

/// The canonical flag spelling of `process`.
std::string_view ArrivalProcessName(ArrivalProcess process);

/// All three processes are parameterized to the same mean rate, so
/// swapping the process changes only the arrival *pattern*, never the
/// offered load.
struct ArrivalOptions {
  ArrivalProcess process = ArrivalProcess::kPoisson;
  double rate_hz = 10.0;  ///< mean arrivals per second

  // kBursty: phases alternate calm <-> burst with exponential phase
  // durations. Rates are scaled so the time-weighted mean stays
  // rate_hz: burst phases run at burst_factor x the calm rate.
  double burst_factor = 8.0;    ///< burst rate / calm rate
  double burst_fraction = 0.2;  ///< long-run fraction of time in burst
  double burst_mean_s = 0.5;    ///< mean burst phase duration

  // kHeavyTail: Pareto(alpha, xm) interarrivals with xm chosen so the
  // mean is 1/rate_hz. Requires alpha > 1 (finite mean).
  double pareto_alpha = 1.5;
};

/// Validates arrival options at configuration time: rate_hz finite
/// and > 0, burst_factor >= 1, burst_fraction in (0, 1), burst_mean_s
/// > 0 and pareto_alpha > 1, each finite. The error names the field
/// and its value. ArrivalGenerator still clamps what it is handed
/// directly; callers that take options from users check them here, so
/// a bad value fails instead of silently offering no load.
Status ValidateArrivalOptions(const ArrivalOptions& options);

/// Seeded interarrival stream: the same (options, seed) pair yields
/// the same delay sequence on every platform — the property the
/// reproducibility tests and the committed bench configs rely on.
class ArrivalGenerator {
 public:
  ArrivalGenerator(const ArrivalOptions& options, uint64_t seed);

  /// Seconds until the next arrival. Always finite and >= 0.
  double NextDelay();

 private:
  ArrivalOptions options_;
  Rng rng_;
  double calm_rate_hz_ = 0;   ///< kBursty: rate in the calm phase
  double burst_rate_hz_ = 0;  ///< kBursty: rate in the burst phase
  bool in_burst_ = false;
  double phase_left_s_ = 0;   ///< kBursty: time left in current phase
};

}  // namespace taskbench::service

#endif  // TASKBENCH_SERVICE_ARRIVAL_H_
