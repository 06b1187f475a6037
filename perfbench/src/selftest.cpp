// Self-tests of the benchmark's statistics and of its seeded inputs.
// Exit status 0 when every check passes; each failure prints one line.
//
//   perfbench_selftest      (or: python3 perfbench/run.py --self-test)
#include <cstdio>
#include <vector>

#include "inputs.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

void testTailPercentileRule() {
  // p90 needs ten samples beyond the 90th percentile: 100 samples.
  check(perfbench::samplesBeyond(100, 0.9) == 10, "100 samples: 10 beyond p90");
  check(perfbench::samplesBeyond(99, 0.9) == 9, "99 samples: 9 beyond p90");
  check(perfbench::tailPercentile(100) == 0.9, "100 samples support p90");
  check(perfbench::tailPercentile(99) == 0.5, "99 samples support only p50");
  check(perfbench::tailPercentile(19) == 0.0, "19 samples support nothing");
  check(perfbench::tailPercentile(20) == 0.5, "20 samples support p50");
  check(perfbench::tailPercentile(1000) == 0.99, "1000 samples support p99");
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  check(perfbench::percentile(v, 0.9) == 90.0, "nearest-rank p90 of 1..100");
  check(perfbench::percentile(v, 0.5) == 50.0, "nearest-rank p50 of 1..100");
}

void testMedian() {
  check(perfbench::median({3, 1, 2}) == 2.0, "odd median");
  check(perfbench::median({4, 1, 3, 2}) == 2.5, "even median");
  check(perfbench::median({}) == 0.0, "empty median");
}

void testSeedDerivation() {
  check(perfbench::subSeed(7, 1) == perfbench::subSeed(7, 1),
        "sub-seeds are deterministic");
  check(perfbench::subSeed(7, 1) != perfbench::subSeed(7, 2) &&
            perfbench::subSeed(7, 1) != perfbench::subSeed(8, 1),
        "sub-seeds differ by salt and by seed");
}

void testInputDeterminism() {
  const perfbench::LayoutShape shape{0, 20000, 20000, 9};
  const perfbench::Input a = perfbench::makeInput(shape, 5);
  const perfbench::Input b = perfbench::makeInput(shape, 5);
  const perfbench::Input c = perfbench::makeInput(shape, 6);
  check(!a.body.empty() && a.body == b.body, "same seed, same GDSII body");
  check(a.truth == b.truth, "same seed, same ground truth");
  check(a.body != c.body, "another seed, another GDSII body");
}

}  // namespace

int main() {
  testTailPercentileRule();
  testMedian();
  testSeedDerivation();
  testInputDeterminism();
  std::printf("perfbench self-test: %s (%d failures)\n",
              failures == 0 ? "ok" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}
