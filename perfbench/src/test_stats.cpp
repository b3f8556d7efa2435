// Unit tests for the benchmark's percentile helper and its tail
// selection, against hand-computed values. Exits non-zero on the first
// failed expectation.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "test_stats.cpp:%d: FAILED %s\n", line, what);
    ++g_failures;
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

}  // namespace

int main() {
  using perfbench::highest_supported_tail;
  using perfbench::percentile_sorted;
  using perfbench::quantile;
  using perfbench::samples_beyond;

  // Linear interpolation: rank = p * (n - 1).
  const std::vector<double> five = {1, 2, 3, 4, 5};
  EXPECT(near(percentile_sorted(five, 500), 3.0));
  EXPECT(near(percentile_sorted(five, 0), 1.0));
  EXPECT(near(percentile_sorted(five, 1000), 5.0));
  EXPECT(near(percentile_sorted(five, 900), 4.6));  // rank 3.6
  const std::vector<double> ten = iota(10);
  EXPECT(near(percentile_sorted(ten, 500), 5.5));   // rank 4.5
  EXPECT(near(percentile_sorted(ten, 900), 9.1));   // rank 8.1
  EXPECT(near(percentile_sorted(ten, 990), 9.91));  // rank 8.91
  EXPECT(near(percentile_sorted({}, 500), 0.0));
  EXPECT(near(percentile_sorted({7.0}, 990), 7.0));

  // quantile() sorts its input and reports the count and the tail.
  std::vector<double> shuffled = {5, 1, 4, 2, 3};
  const perfbench::Quantile q = quantile(shuffled, 500);
  EXPECT(near(q.value, 3.0));
  EXPECT(q.samples == 5);
  EXPECT(q.beyond == 2);
  std::vector<double> thousand = iota(1000);
  const perfbench::Quantile q99 = quantile(thousand, 990);
  EXPECT(near(q99.value, 990.01));  // rank 989.01 -> 990 + 0.01
  EXPECT(q99.beyond == 10);

  // Samples beyond: floor(n * (1000 - p) / 1000).
  EXPECT(samples_beyond(200, 900) == 20);
  EXPECT(samples_beyond(200, 990) == 2);
  EXPECT(samples_beyond(1000, 990) == 10);
  EXPECT(samples_beyond(999, 990) == 9);
  EXPECT(samples_beyond(10000, 999) == 10);
  EXPECT(samples_beyond(0, 500) == 0);

  // The highest percentile with at least ten samples beyond it.
  EXPECT(highest_supported_tail(19) == 0);    // p50 leaves 9
  EXPECT(highest_supported_tail(20) == 500);  // p50 leaves 10
  EXPECT(highest_supported_tail(99) == 500);  // p90 leaves 9
  EXPECT(highest_supported_tail(100) == 900);
  EXPECT(highest_supported_tail(200) == 900);  // ~200 recoveries: p90
  EXPECT(highest_supported_tail(999) == 900);
  EXPECT(highest_supported_tail(1000) == 990);
  EXPECT(highest_supported_tail(9999) == 990);
  EXPECT(highest_supported_tail(10000) == 999);

  if (g_failures == 0) std::printf("perfbench stats tests: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
