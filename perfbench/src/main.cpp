// The OpenHSD benchmark program.
//
//   hsd_perfbench --workload batch-large|wire-tiled-cold
//                 --seed N --seconds S --trace 0|1
//
// Progress lines go to stdout; the last line is one JSON object with the
// keys correct, attempted, failed and metrics — the end-to-end metrics
// without --trace, the per-layer metrics with --trace 1 (whose trace is
// written to .bench_out/trace-<workload>-<seed>.json under the working
// directory). perfbench/run.py builds this binary and runs it from the
// checkout root.
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

/// Shortest decimal that reads back as exactly `v`.
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

bool parseUnsigned(const char* s, std::uint64_t& out) {
  const char* end = s + std::strlen(s);
  const auto res = std::from_chars(s, end, out);
  return res.ec == std::errc() && res.ptr == end;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      opt.workload = value;
      haveWorkload = true;
    } else if (flag == "--seed" && parseUnsigned(value, n)) {
      opt.seed = n;
    } else if (flag == "--seconds" && parseUnsigned(value, n) && n > 0) {
      opt.seconds = double(n);
    } else if (flag == "--trace" && parseUnsigned(value, n) && n <= 1) {
      opt.trace = n == 1;
    } else {
      return usage(argv[0]);
    }
  }
  if (!haveWorkload) return usage(argv[0]);

  perfbench::RunResult res;
  try {
    res = perfbench::runWorkload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::string line = "{\"correct\": ";
  line += res.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(res.attempted);
  line += ", \"failed\": " + std::to_string(res.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const perfbench::Metric& m = res.metrics[i];
    if (i != 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
