#include "service/arrival.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace taskbench::service {

namespace {

/// Exponential draw with mean 1/rate. 1 - U lies in (0, 1], so the
/// log argument is never zero.
double DrawExponential(Rng* rng, double rate_hz) {
  return -std::log(1.0 - rng->NextDouble()) / rate_hz;
}

Status Invalid(const char* field, double value, const char* rule) {
  return Status::InvalidArgument(
      StrFormat("%s = %g: must be %s", field, value, rule));
}

}  // namespace

Status ValidateArrivalOptions(const ArrivalOptions& options) {
  if (!std::isfinite(options.rate_hz) || options.rate_hz <= 0) {
    return Invalid("ArrivalOptions.rate_hz", options.rate_hz,
                   "finite and > 0");
  }
  if (!std::isfinite(options.burst_factor) || options.burst_factor < 1) {
    return Invalid("ArrivalOptions.burst_factor", options.burst_factor,
                   "finite and >= 1");
  }
  if (!(options.burst_fraction > 0 && options.burst_fraction < 1)) {
    return Invalid("ArrivalOptions.burst_fraction", options.burst_fraction,
                   "in (0, 1)");
  }
  if (!std::isfinite(options.burst_mean_s) || options.burst_mean_s <= 0) {
    return Invalid("ArrivalOptions.burst_mean_s", options.burst_mean_s,
                   "finite and > 0");
  }
  if (!std::isfinite(options.pareto_alpha) || options.pareto_alpha <= 1) {
    return Invalid("ArrivalOptions.pareto_alpha", options.pareto_alpha,
                   "finite and > 1");
  }
  return Status::OK();
}

Result<ArrivalProcess> ParseArrivalProcess(std::string_view name) {
  if (name == "poisson") return ArrivalProcess::kPoisson;
  if (name == "bursty") return ArrivalProcess::kBursty;
  if (name == "heavytail") return ArrivalProcess::kHeavyTail;
  return Status::InvalidArgument(StrFormat(
      "unknown arrival process '%.*s' (expected poisson, bursty, or "
      "heavytail)",
      static_cast<int>(name.size()), name.data()));
}

std::string_view ArrivalProcessName(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kPoisson:
      return "poisson";
    case ArrivalProcess::kBursty:
      return "bursty";
    case ArrivalProcess::kHeavyTail:
      return "heavytail";
  }
  return "unknown";
}

ArrivalGenerator::ArrivalGenerator(const ArrivalOptions& options,
                                   uint64_t seed)
    : options_(options), rng_(seed) {
  options_.rate_hz = std::max(options_.rate_hz, 1e-9);
  options_.burst_factor = std::max(options_.burst_factor, 1.0);
  options_.burst_fraction =
      std::clamp(options_.burst_fraction, 1e-6, 1.0 - 1e-6);
  options_.burst_mean_s = std::max(options_.burst_mean_s, 1e-9);
  options_.pareto_alpha = std::max(options_.pareto_alpha, 1.0 + 1e-6);
  // Scale the two phase rates so the time-weighted mean is rate_hz:
  // calm * (1 - f) + (B * calm) * f = rate.
  const double f = options_.burst_fraction;
  calm_rate_hz_ =
      options_.rate_hz / (1.0 - f + options_.burst_factor * f);
  burst_rate_hz_ = calm_rate_hz_ * options_.burst_factor;
  // Start in a calm phase of the configured mean duration.
  phase_left_s_ = DrawExponential(
      &rng_, f / (options_.burst_mean_s * (1.0 - f)));
}

double ArrivalGenerator::NextDelay() {
  switch (options_.process) {
    case ArrivalProcess::kPoisson:
      return DrawExponential(&rng_, options_.rate_hz);
    case ArrivalProcess::kHeavyTail: {
      // Pareto(alpha, xm) with xm fixed by mean = alpha*xm/(alpha-1)
      // = 1/rate. Inverse-CDF sampling off the same uniform stream.
      const double alpha = options_.pareto_alpha;
      const double xm = (alpha - 1.0) / (alpha * options_.rate_hz);
      return xm / std::pow(1.0 - rng_.NextDouble(), 1.0 / alpha);
    }
    case ArrivalProcess::kBursty: {
      // Modulated Poisson: exponential interarrivals at the current
      // phase's rate; a draw crossing the phase boundary consumes the
      // remaining phase time and redraws in the next phase (valid by
      // memorylessness). Phase durations are themselves exponential
      // with means burst_mean_s and burst_mean_s * (1-f)/f, giving
      // the configured long-run burst fraction f.
      const double f = options_.burst_fraction;
      const double calm_mean_s = options_.burst_mean_s * (1.0 - f) / f;
      double total = 0;
      // Bounded phase crossings: degenerate shapes (phase durations
      // vastly shorter than one interarrival) would otherwise cross
      // ~rate_phase/rate_arrival phases per draw — effectively
      // forever. Past the bound the process is indistinguishable from
      // Poisson at the mean rate, so finish the draw that way.
      for (int crossings = 0; crossings < 4096; ++crossings) {
        const double rate = in_burst_ ? burst_rate_hz_ : calm_rate_hz_;
        const double d = DrawExponential(&rng_, rate);
        if (d <= phase_left_s_) {
          phase_left_s_ -= d;
          return total + d;
        }
        total += phase_left_s_;
        in_burst_ = !in_burst_;
        phase_left_s_ = DrawExponential(
            &rng_, 1.0 / (in_burst_ ? options_.burst_mean_s : calm_mean_s));
      }
      return total + DrawExponential(&rng_, options_.rate_hz);
    }
  }
  return DrawExponential(&rng_, options_.rate_hz);
}

}  // namespace taskbench::service
