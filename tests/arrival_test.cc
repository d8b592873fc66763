// Seeded open-loop arrival generator: determinism (same options +
// seed => identical delay stream), mean-rate parameterization (all
// three processes are scaled to the same offered rate), and the
// qualitative shape differences (burstiness, heavy tail).

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/arrival.h"

namespace taskbench::service {
namespace {

std::vector<double> Draw(const ArrivalOptions& options, uint64_t seed,
                         int n) {
  ArrivalGenerator generator(options, seed);
  std::vector<double> delays;
  delays.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) delays.push_back(generator.NextDelay());
  return delays;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Coefficient of variation: stddev / mean. 1 for exponential
/// interarrivals; > 1 for bursty and heavy-tailed ones.
double Cv(const std::vector<double>& v) {
  const double mean = Mean(v);
  double var = 0;
  for (double x : v) var += (x - mean) * (x - mean);
  var /= static_cast<double>(v.size());
  return std::sqrt(var) / mean;
}

TEST(ArrivalTest, ParseRoundTrips) {
  for (const char* name : {"poisson", "bursty", "heavytail"}) {
    auto process = ParseArrivalProcess(name);
    ASSERT_TRUE(process.ok()) << name;
    EXPECT_EQ(ArrivalProcessName(*process), name);
  }
  EXPECT_FALSE(ParseArrivalProcess("uniform").ok());
}

TEST(ArrivalTest, DeterministicPerSeed) {
  for (const ArrivalProcess process :
       {ArrivalProcess::kPoisson, ArrivalProcess::kBursty,
        ArrivalProcess::kHeavyTail}) {
    ArrivalOptions options;
    options.process = process;
    options.rate_hz = 25;
    const std::vector<double> a = Draw(options, 42, 500);
    const std::vector<double> b = Draw(options, 42, 500);
    EXPECT_EQ(a, b) << ArrivalProcessName(process);
    const std::vector<double> c = Draw(options, 43, 500);
    EXPECT_NE(a, c) << ArrivalProcessName(process);
  }
}

TEST(ArrivalTest, DelaysAreFiniteAndNonNegative) {
  for (const ArrivalProcess process :
       {ArrivalProcess::kPoisson, ArrivalProcess::kBursty,
        ArrivalProcess::kHeavyTail}) {
    ArrivalOptions options;
    options.process = process;
    options.rate_hz = 100;
    for (double d : Draw(options, 7, 2000)) {
      EXPECT_TRUE(std::isfinite(d));
      EXPECT_GE(d, 0.0);
    }
  }
}

TEST(ArrivalTest, AllProcessesMatchTheConfiguredMeanRate) {
  // 20k draws at 50/s: the empirical mean delay must sit near 1/50
  // for every process — swapping the pattern must not change the
  // offered load. Pareto converges slowly (alpha 1.5 has infinite
  // variance), hence the loose 25% band; the others get 10%.
  for (const ArrivalProcess process :
       {ArrivalProcess::kPoisson, ArrivalProcess::kBursty,
        ArrivalProcess::kHeavyTail}) {
    ArrivalOptions options;
    options.process = process;
    options.rate_hz = 50;
    const double mean = Mean(Draw(options, 11, 20000));
    const double tolerance =
        process == ArrivalProcess::kHeavyTail ? 0.25 : 0.10;
    EXPECT_NEAR(mean, 1.0 / 50, tolerance / 50)
        << ArrivalProcessName(process);
  }
}

TEST(ArrivalTest, BurstyAndHeavyTailAreOverdispersed) {
  ArrivalOptions options;
  options.rate_hz = 40;
  options.process = ArrivalProcess::kPoisson;
  const double cv_poisson = Cv(Draw(options, 3, 20000));
  options.process = ArrivalProcess::kBursty;
  const double cv_bursty = Cv(Draw(options, 3, 20000));
  options.process = ArrivalProcess::kHeavyTail;
  const double cv_heavy = Cv(Draw(options, 3, 20000));

  // Exponential CV is exactly 1 in the limit.
  EXPECT_NEAR(cv_poisson, 1.0, 0.1);
  EXPECT_GT(cv_bursty, cv_poisson + 0.1);
  EXPECT_GT(cv_heavy, cv_poisson + 0.1);
}

TEST(ArrivalTest, DegenerateParametersAreClamped) {
  // Hostile options must not divide by zero or hang.
  ArrivalOptions options;
  options.process = ArrivalProcess::kBursty;
  options.rate_hz = 0;
  options.burst_factor = 0;
  options.burst_fraction = 2.0;
  options.burst_mean_s = 0;
  ArrivalGenerator generator(options, 1);
  for (int i = 0; i < 100; ++i) {
    const double d = generator.NextDelay();
    EXPECT_TRUE(std::isfinite(d));
    EXPECT_GE(d, 0.0);
  }

  options.process = ArrivalProcess::kHeavyTail;
  options.pareto_alpha = 0.5;  // clamped above 1: mean stays finite
  ArrivalGenerator pareto(options, 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(std::isfinite(pareto.NextDelay()));
  }
}

// Options from users are validated, not clamped: each bad field is
// rejected with its name, while the generator above still clamps what
// it is handed directly.
TEST(ArrivalTest, ValidateRejectsEachBadFieldByName) {
  EXPECT_TRUE(ValidateArrivalOptions(ArrivalOptions{}).ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* field;
    double ArrivalOptions::*member;
    double value;
  };
  const Case cases[] = {
      {"rate_hz", &ArrivalOptions::rate_hz, 0},
      {"rate_hz", &ArrivalOptions::rate_hz, -5},
      {"rate_hz", &ArrivalOptions::rate_hz, nan},
      {"rate_hz", &ArrivalOptions::rate_hz, inf},
      {"burst_factor", &ArrivalOptions::burst_factor, 0.5},
      {"burst_factor", &ArrivalOptions::burst_factor, nan},
      {"burst_fraction", &ArrivalOptions::burst_fraction, 0},
      {"burst_fraction", &ArrivalOptions::burst_fraction, 1},
      {"burst_fraction", &ArrivalOptions::burst_fraction, nan},
      {"burst_mean_s", &ArrivalOptions::burst_mean_s, 0},
      {"burst_mean_s", &ArrivalOptions::burst_mean_s, inf},
      {"pareto_alpha", &ArrivalOptions::pareto_alpha, 1},
      {"pareto_alpha", &ArrivalOptions::pareto_alpha, nan},
  };
  for (const Case& c : cases) {
    ArrivalOptions options;
    options.*c.member = c.value;
    const Status status = ValidateArrivalOptions(options);
    EXPECT_TRUE(status.IsInvalidArgument()) << c.field << " = " << c.value;
    EXPECT_NE(status.message().find(std::string("ArrivalOptions.") + c.field),
              std::string::npos)
        << status.ToString();
  }
  ArrivalOptions edge;
  edge.burst_factor = 1;  // bursts no denser than calm: plain Poisson
  edge.rate_hz = 1e-3;
  EXPECT_TRUE(ValidateArrivalOptions(edge).ok());
}

}  // namespace
}  // namespace taskbench::service
