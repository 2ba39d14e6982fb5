// Self-test of pm2bench's own helpers: the percentile rule, the seeded
// arrival schedules, the rate-ladder rule and the set-up statistic.  Exit
// code 0 when every check holds.
//
//   .bench_build/perfbench_selftest
#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

void test_percentile_rule() {
  using perfbench::reportable;
  using perfbench::samples_beyond;
  // p99 of 1000 samples is sample 990: ten lie beyond it.
  expect(samples_beyond(1000, 990) == 10, "1000 samples: 10 beyond p99");
  expect(reportable(1000, 990), "p99 reportable from 1000 samples");
  expect(!reportable(999, 990), "p99 not reportable from 999 samples");
  expect(reportable(20, 500), "p50 reportable from 20 samples");
  expect(!reportable(19, 500), "p50 not reportable from 19 samples");
  expect(!reportable(0, 500), "nothing reportable from no samples");
  expect(reportable(10000, 999), "p99.9 reportable from 10000 samples");
  expect(!reportable(9999, 999), "p99.9 not reportable from 9999 samples");

  perfbench::Histogram h;
  for (uint64_t i = 1; i <= 100; ++i) h.add(i);
  expect(h.percentile_ns(500) == 50, "exact nearest-rank p50 below 128 ns");
  expect(h.percentile_ns(990) == 99, "exact nearest-rank p99 below 128 ns");
  expect(h.percentile_ns(1000) == 100, "p100 is the maximum");
  expect(h.p99_us() == 0, "p99 of 100 samples is not reported");
  perfbench::Histogram big;
  for (uint64_t i = 1; i <= 100000; ++i) big.add(i * 1000);  // 1 µs .. 100 ms
  expect(std::fabs(big.p50_us() - 50000) / 50000 < 0.008,
         "p50 within a bucket width above 128 ns");
  expect(std::fabs(big.p99_us() - 99000) / 99000 < 0.008,
         "p99 within a bucket width above 128 ns");
  perfbench::Histogram sum;
  sum.merge(h);
  sum.merge(h);
  expect(sum.count() == 200 && sum.percentile_ns(500) == 50,
         "merging keeps counts and percentiles");
}

void test_poisson_schedule() {
  const uint64_t second = 1'000'000'000;
  auto a = perfbench::poisson_schedule(42, 20000, second);
  auto b = perfbench::poisson_schedule(42, 20000, second);
  auto c = perfbench::poisson_schedule(43, 20000, second);
  expect(a == b, "same seed, same schedule");
  expect(a != c, "another seed, another schedule");
  bool increasing = true;
  for (size_t i = 1; i < a.size(); ++i) increasing &= a[i] >= a[i - 1];
  expect(increasing, "arrival offsets never go back");
  expect(!a.empty() && a.back() < second, "arrivals stay inside the window");
  // 20000 expected arrivals: the count is within 5 standard deviations.
  double n = static_cast<double>(a.size());
  expect(std::fabs(n - 20000) < 5 * std::sqrt(20000.0), "mean rate holds");
  // Exponential gaps: about 1/e of them exceed the mean gap.
  size_t long_gaps = 0;
  for (size_t i = 1; i < a.size(); ++i) long_gaps += a[i] - a[i - 1] > 50000;
  double share = static_cast<double>(long_gaps) / n;
  expect(std::fabs(share - std::exp(-1.0)) < 0.02, "gaps are exponential");
}

void test_max_rate() {
  using perfbench::RungStat;
  auto rung = [](double rate, double lat, uint64_t failed = 0,
                 double lag = 10, bool ok = true) {
    RungStat r;
    r.rate = rate;
    r.lat_us = lat;
    r.lat_reportable = ok;
    r.failed = failed;
    r.lag_us = lag;
    return r;
  };
  const double limit = 500;
  expect(perfbench::max_rate({}, limit) == 0, "no rungs: no rate");
  expect(perfbench::max_rate({rung(1000, 900), rung(2000, 950)}, limit) == 0,
         "no rung meets the limit: 0");
  expect(perfbench::max_rate({rung(1000, 100), rung(2000, 200)}, limit) == 2000,
         "every rung passes: the top rate");
  expect(perfbench::max_rate({rung(1000, 100), rung(2000, 2500)}, limit) ==
             1000,
         "a rung over the limit does not pass: the result is a rung");
  expect(perfbench::max_rate({rung(1000, 100), rung(2000, 499)}, limit) == 2000,
         "a rung just under the limit passes whole");
  expect(perfbench::max_rate({rung(1000, 900), rung(2000, 100), rung(3000, 200)},
                             limit) == 3000,
         "a stalled low rung does not cap a higher passing one");
  expect(perfbench::max_rate({rung(1000, 100), rung(2000, 200, 1)}, limit) == 1000,
         "a rung with a failed call does not pass");
  expect(perfbench::max_rate({rung(1000, 100), rung(2000, 200, 0, 800)}, limit) ==
             1000,
         "a rung whose generator lagged past the limit does not pass");
  expect(perfbench::max_rate({rung(1000, 100), rung(2000, 200, 0, 10, false)},
                             limit) == 1000,
         "a rung without a reportable percentile does not pass");
  RungStat cut = rung(2000, 300);
  cut.overloaded = true;
  expect(perfbench::max_rate({rung(1000, 100), cut}, limit) == 1000,
         "an overloaded rung does not pass, even under the limit");
  expect(perfbench::max_rate({rung(1000, 100), cut, rung(3000, 100)}, limit) ==
             3000,
         "an overloaded rung below a passing one does not cap it");
}

void test_setup_seconds() {
  using perfbench::kSetupsPerSession;
  using perfbench::setup_seconds;
  expect(setup_seconds({}) == 0, "no set-ups: 0");
  // Three blocks: set-ups of 1 or 3 (two modes, mean 2) in one, a block a
  // stall hit (mean 20), and a block of 2s.
  std::vector<double> v;
  for (int i = 0; i < kSetupsPerSession; ++i) v.push_back(i % 2 ? 3 : 1);
  for (int i = 0; i < kSetupsPerSession; ++i) v.push_back(20);
  for (int i = 0; i < kSetupsPerSession; ++i) v.push_back(2);
  expect(setup_seconds(v) == 2, "median over blocks of each block's mean");
}

void test_checksum() {
  const uint8_t x[] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const uint8_t y[] = {2, 1, 3, 4, 5, 6, 7, 8, 9};
  expect(perfbench::checksum(x, sizeof(x)) != perfbench::checksum(y, sizeof(y)),
         "checksum is order-sensitive");
  expect(perfbench::checksum(x, sizeof(x)) == perfbench::checksum(x, sizeof(x)),
         "checksum is deterministic");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_poisson_schedule();
  test_max_rate();
  test_setup_seconds();
  test_checksum();
  if (g_failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
