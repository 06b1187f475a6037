// Shared helpers for the table/figure regeneration harness: benchmark
// suite construction, method configurations (Basic / +Topology / +Removal
// / Ours / operating points), one-shot run-and-score, and table printing.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.hpp"
#include "core/metrics.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "obs/json.hpp"

// Stamped by bench/CMakeLists.txt at configure time so the BENCH_*.json
// trajectory files attribute every number to a commit.
#ifndef HSD_GIT_DESCRIBE
#define HSD_GIT_DESCRIBE "unknown"
#endif

namespace hsd::bench {

inline const char* gitDescribe() { return HSD_GIT_DESCRIBE; }

/// `--flag value` lookup for the bench binaries' tiny CLIs (same
/// convention as the hsd_* tools).
inline const char* argString(int argc, char** argv, const char* flag,
                             const char* def) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  return def;
}

/// A BENCH_*.json trajectory record, opened as {"bench": <name>, "git":
/// <describe>, ... for the caller to fill in and close.
inline obs::JsonWriter benchJson(const char* bench) {
  obs::JsonWriter w;
  w.beginObject().field("bench", bench).field("git", gitDescribe());
  return w;
}

/// Write a machine-readable artifact (the BENCH_*.json trajectory files)
/// plus a trailing newline; prints where it went. Returns false (with a
/// stderr note) on I/O error.
inline bool writeJsonFile(const std::string& path, const std::string& json) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return false;
  }
  os << json << '\n';
  std::printf("bench json: -> %s\n", path.c_str());
  return true;
}

/// The q-quantile (q in [0,1]) of `xs`, interpolating linearly between
/// the two nearest order statistics; 0 for an empty sample.
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * double(xs.size() - 1);
  const std::size_t i = std::size_t(pos);
  if (i + 1 >= xs.size()) return xs.back();
  const double frac = pos - double(i);
  return xs[i] * (1.0 - frac) + xs[i + 1] * frac;
}

/// Repeated timings of one operation: every sample in seconds, in run
/// order, and their spread. MAD is the median absolute deviation from the
/// median, CV the standard deviation over the mean.
struct Measurement {
  std::vector<double> seconds;
  double median = 0.0;
  double mad = 0.0;
  double cv = 0.0;
};

/// Calls `fn` `warmup` times untimed, then times one call per sample
/// until at least `minIters` samples are taken and they add up to at
/// least `budgetSeconds`.
template <typename Fn>
Measurement measure(Fn&& fn, std::size_t warmup, std::size_t minIters,
                    double budgetSeconds) {
  for (std::size_t i = 0; i < warmup; ++i) fn();
  Measurement m;
  double total = 0.0;
  while (m.seconds.size() < minIters || total < budgetSeconds) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    m.seconds.push_back(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    total += m.seconds.back();
  }
  const double n = double(m.seconds.size());
  m.median = quantile(m.seconds, 0.5);
  std::vector<double> deviations;
  double squares = 0.0;
  for (const double s : m.seconds) {
    deviations.push_back(std::abs(s - m.median));
    squares += (s - total / n) * (s - total / n);
  }
  m.mad = quantile(deviations, 0.5);
  m.cv = total > 0.0 ? std::sqrt(squares / n) / (total / n) : 0.0;
  return m;
}

inline std::size_t hwThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// One detection method: trainer + evaluator configuration, plus the
/// thread count of the RunContext runMethod trains and evaluates it on.
struct Method {
  std::string name;
  core::TrainParams train;
  core::EvalParams eval;
  std::size_t threads = hwThreads();
};

/// The paper's Table III ladder plus the Table II operating points.
inline Method makeBasic() {
  Method m;
  m.name = "Basic";
  m.train.singleKernel = true;
  m.train.enableShift = false;
  m.train.balancePopulation = false;
  m.train.enableFeedback = false;
  m.eval.useRemoval = false;
  m.eval.useFeedback = false;
  return m;
}

inline Method makeTopology() {
  Method m;
  m.name = "+Topology";
  m.train.enableFeedback = false;
  m.eval.useRemoval = false;
  m.eval.useFeedback = false;
  return m;
}

inline Method makeRemoval() {
  Method m = makeTopology();
  m.name = "+Removal";
  m.eval.useRemoval = true;
  return m;
}

inline Method makeOurs(double bias = 0.0, std::size_t threads = 0) {
  Method m;
  m.name = "Ours";
  if (threads != 0) m.threads = threads;
  m.eval.decisionBias = bias;
  return m;
}

/// Scored outcome of one (method, benchmark) run.
struct RunResult {
  std::string method;
  core::Score score;
  std::size_t candidates = 0;
  double hsNhsRatio = 0.0;  ///< balanced #hs / #nhs of the trained model
  double trainSec = 0.0;
  double evalSec = 0.0;
  std::string engineStats;  ///< per-stage EngineStats JSON for the run

  double runtimeSec() const { return trainSec + evalSec; }
};

/// Train `method` on `training`, evaluate `test`, score against ground
/// truth. Training and evaluation share one RunContext, so the returned
/// engineStats covers the whole train/* + extract/* + eval/* stage graph.
inline RunResult runMethod(const Method& method,
                           const std::vector<Clip>& training,
                           const data::TestLayout& test) {
  RunResult out;
  out.method = method.name;
  engine::RunContext ctx(method.threads);
  const core::Detector det = core::trainDetector(training, method.train, ctx);
  const core::EvalResult res =
      core::evaluateLayout(det, test.layout, method.eval, ctx);
  out.engineStats = ctx.stats().toJson();
  out.score = core::scoreReports(res.reported, test.actualHotspots);
  out.candidates = res.candidateClips;
  out.trainSec = det.stats.trainSeconds;
  out.evalSec = res.evalSeconds;
  out.hsNhsRatio =
      det.stats.balancedNonHotspots
          ? double(det.stats.upsampledHotspots) /
                double(det.stats.balancedNonHotspots)
          : 0.0;
  return out;
}

inline void printHeader(const char* title) {
  std::printf("\n==== %s ====\n", title);
}

inline void printRow(const std::string& bench, const RunResult& r) {
  std::printf(
      "%-12s %-10s #hit %4zu/%-4zu  #extra %5zu  accuracy %6.2f%%  "
      "hit/extra %8.3e  runtime %5.1fs\n",
      bench.c_str(), r.method.c_str(), r.score.hits, r.score.actualHotspots,
      r.score.extras, 100.0 * r.score.accuracy(), r.score.hitExtraRatio(),
      r.runtimeSec());
}

/// One-line machine-parseable per-stage dump next to a table row.
inline void printEngineStats(const std::string& bench, const RunResult& r) {
  if (r.engineStats.empty()) return;
  std::printf("ENGINE_STATS %s/%s %s\n", bench.c_str(), r.method.c_str(),
              r.engineStats.c_str());
}

/// Scaled-down suite for bench binaries that sweep many configurations.
inline std::vector<data::BenchmarkSpec> smallSuite() {
  std::vector<data::BenchmarkSpec> specs = data::iccad2012LikeSuite();
  for (auto& s : specs) {
    s.targets.hotspots = std::min<std::size_t>(s.targets.hotspots, 60);
    s.targets.nonHotspots = std::min<std::size_t>(s.targets.nonHotspots, 300);
    s.width = std::min<Coord>(s.width, 56000);
    s.height = std::min<Coord>(s.height, 54000);
    s.sites = std::min<std::size_t>(s.sites, 60);
  }
  return specs;
}

}  // namespace hsd::bench
