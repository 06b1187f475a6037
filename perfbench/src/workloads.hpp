// The workloads and the traced layer sweep. Each workload builds its
// inputs from the seed, sets the program up several times, runs warm-up
// operations, then times operations for the requested seconds and checks
// every report against its offline reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// End-to-end metrics without --trace, per-layer metrics with it.
  std::vector<Metric> metrics;
};

/// Runs one workload; progress and diagnostics go to stdout as
/// free-form lines. Throws on an unknown workload or a setup failure.
RunResult runWorkload(const Options& opt);

}  // namespace perfbench
