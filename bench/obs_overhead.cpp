// Observability-overhead trajectory: what a span, a log record, and the
// trace-propagation machinery cost — off, gated, enabled, and enabled
// with an ambient trace id — plus an end-to-end evaluation pair (fully
// observed vs bare) on a small generated layout. Emits BENCH_obs.json
// for bench/run_benches.sh:
//
//   obs_overhead --json-out BENCH_obs.json
//
// The micro rows are ns/op best-of-N (same methodology as the hotpath
// bench); the end-to-end rows are evaluation seconds and the relative
// overhead fraction. These numbers back the "near-zero when off,
// allocation-free when on" contract pinned functionally by
// tests/test_obs_plane.cpp.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/evaluator.hpp"
#include "data/generator.hpp"
#include "engine/run_context.hpp"
#include "obs/log.hpp"
#include "obs/model_stats.hpp"
#include "obs/trace.hpp"
#include "obs/trace_id.hpp"

namespace {

using namespace hsd;

/// Keep `value` alive without a memory barrier heavy enough to skew
/// sub-10ns measurements.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Best-of-`reps` wall time of `iters` calls to `fn`, ns per call.
template <typename Fn>
double bestNsPerCall(Fn&& fn, int reps, int iters) {
  using clock = std::chrono::steady_clock;
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const auto t1 = clock::now();
    const double ns =
        double(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                   .count()) /
        double(iters);
    best = std::min(best, ns);
  }
  return best;
}

struct MicroRow {
  const char* name;
  double nsPerOp;
};

std::vector<MicroRow> microRows() {
  std::vector<MicroRow> rows;
  constexpr int kReps = 15;
  constexpr int kIters = 20000;
  const auto t = std::chrono::steady_clock::now();

  // Spans: recorder off (the production default), on, on + ambient trace.
  {
    obs::TraceRecorder* off = nullptr;
    rows.push_back({"span_off", bestNsPerCall(
        [&] {
          obs::Span s(off, "bench/span", "bench");
          s.arg("i", 1);
          keep(s);
        },
        kReps, kIters)});
  }
  {
    obs::TraceRecorder rec;
    rec.recordSpan("warmup", "bench", t, t);
    rows.push_back({"span_on", bestNsPerCall(
        [&] { rec.recordSpan("bench/span", "bench", t, t, {"i", 1}); },
        kReps, kIters)});
    const obs::ScopedTraceId scope(obs::makeTraceId());
    rows.push_back({"span_on_traced", bestNsPerCall(
        [&] { rec.recordSpan("bench/span", "bench", t, t, {"i", 1}); },
        kReps, kIters)});
  }

  // Log records: recorder off, below the level gate, enabled, enabled +
  // ambient trace.
  {
    obs::LogRecorder* off = nullptr;
    rows.push_back({"log_off", bestNsPerCall(
        [&] { obs::logTo(off, obs::LogLevel::kInfo, "bench", "msg"); },
        kReps, kIters)});
  }
  {
    obs::LogRecorder rec;  // min level info: debug is gated
    rec.log(obs::LogLevel::kInfo, "bench", "warmup");
    rows.push_back({"log_gated", bestNsPerCall(
        [&] { obs::logTo(&rec, obs::LogLevel::kDebug, "bench", "msg"); },
        kReps, kIters)});
    rows.push_back({"log_on", bestNsPerCall(
        [&] {
          rec.log(obs::LogLevel::kInfo, "bench", "steady-state record",
                  {"i", 1});
        },
        kReps, kIters)});
    const obs::ScopedTraceId scope(obs::makeTraceId());
    rows.push_back({"log_on_traced", bestNsPerCall(
        [&] {
          rec.log(obs::LogLevel::kInfo, "bench", "steady-state record",
                  {"i", 1});
        },
        kReps, kIters)});
  }

  // Model-quality records: recorder off, margin record, record + gated
  // capture check (the steady state — most margins are far from the
  // boundary), and record + actual capture (ring write included).
  {
    obs::ModelStatsRecorder* off = nullptr;
    rows.push_back({"margin_record_off", bestNsPerCall(
        [&] { obs::recordTo(off, 0, 1.25, true); },
        kReps, kIters)});
  }
  {
    obs::ModelStatsRecorder rec({"bench"});
    rec.record(0, 1.25, true);  // warm the TLS slot
    rows.push_back({"margin_record_on", bestNsPerCall(
        [&] { rec.record(0, 1.25, true); },
        kReps, kIters)});
    rows.push_back({"margin_capture_gated", bestNsPerCall(
        [&] {
          rec.record(0, 1.25, true);
          if (rec.shouldCapture(1.25)) rec.capture(0, 1.25, 0, 0, 0);
        },
        kReps, kIters)});
    rows.push_back({"margin_capture_on", bestNsPerCall(
        [&] {
          rec.record(0, 0.01, true);
          if (rec.shouldCapture(0.01)) rec.capture(0, 0.01, 1200, 3400, 0x9e3779b9u);
        },
        kReps, kIters)});
  }

  // Propagation: scope install + read, and the per-request header costs.
  {
    const obs::TraceId id = obs::makeTraceId();
    rows.push_back({"trace_scope", bestNsPerCall(
        [&] {
          const obs::ScopedTraceId scope(id);
          const obs::TraceId cur = obs::currentTraceId();
          keep(cur);
        },
        kReps, kIters)});
    const std::string header = obs::formatTraceparent(id);
    rows.push_back({"traceparent_parse", bestNsPerCall(
        [&] {
          obs::TraceId out;
          obs::parseTraceparent(header, out);
          keep(out);
        },
        kReps, kIters)});
    rows.push_back({"trace_id_format", bestNsPerCall(
        [&] {
          char buf[obs::kTraceIdChars + 1];
          obs::formatTraceId(id, buf);
          keep(buf);
        },
        kReps, kIters)});
  }
  return rows;
}

struct EndToEnd {
  double bareSec = 0.0;
  double observedSec = 0.0;
  double overhead() const {
    return bareSec > 0 ? observedSec / bareSec - 1.0 : 0.0;
  }
};

/// One evaluation of a small generated benchmark, bare vs fully observed
/// (tracer + log recorder + ambient trace id). Best-of-`reps` each.
EndToEnd endToEnd(int reps) {
  data::BenchmarkSpec spec = bench::smallSuite()[0];
  spec.targets.hotspots = std::min<std::size_t>(spec.targets.hotspots, 20);
  spec.targets.nonHotspots =
      std::min<std::size_t>(spec.targets.nonHotspots, 100);
  spec.width = std::min<Coord>(spec.width, 28000);
  spec.height = std::min<Coord>(spec.height, 28000);
  spec.sites = std::min<std::size_t>(spec.sites, 24);
  const data::Benchmark b = data::generateBenchmark(spec);
  const bench::Method ours = bench::makeOurs();
  engine::RunContext trainCtx(ours.threads);
  const core::Detector det =
      core::trainDetector(b.training.clips, ours.train, trainCtx);

  EndToEnd out;
  out.bareSec = std::numeric_limits<double>::infinity();
  out.observedSec = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    {
      engine::RunContext ctx(ours.threads);
      const auto t0 = std::chrono::steady_clock::now();
      const core::EvalResult res =
          core::evaluateLayout(det, b.test.layout, ours.eval, ctx);
      const auto t1 = std::chrono::steady_clock::now();
      keep(res.reported);
      out.bareSec = std::min(
          out.bareSec, std::chrono::duration<double>(t1 - t0).count());
    }
    {
      engine::RunContext ctx(ours.threads);
      ctx.attachTracer(std::make_shared<obs::TraceRecorder>());
      auto log = std::make_shared<obs::LogRecorder>();
      log->setMinLevel(obs::LogLevel::kDebug);
      ctx.attachLog(log);
      ctx.attachModelStats(
          std::make_shared<obs::ModelStatsRecorder>(det.clusterNames()));
      const obs::ScopedTraceId scope(obs::makeTraceId());
      const auto t0 = std::chrono::steady_clock::now();
      const core::EvalResult res =
          core::evaluateLayout(det, b.test.layout, ours.eval, ctx);
      const auto t1 = std::chrono::steady_clock::now();
      keep(res.reported);
      out.observedSec = std::min(
          out.observedSec, std::chrono::duration<double>(t1 - t0).count());
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path =
      hsd::bench::argString(argc, argv, "--json-out", "BENCH_obs.json");
  const std::vector<MicroRow> rows = microRows();
  const EndToEnd e2e = endToEnd(3);

  hsd::obs::JsonWriter json = hsd::bench::benchJson("obs");
  json.key("micro").beginArray(true);
  for (const MicroRow& r : rows) {
    json.beginObject().field("name", r.name).field("ns_per_op", r.nsPerOp);
    json.endObject();
    std::printf("%-18s %9.2f ns/op\n", r.name, r.nsPerOp);
  }
  json.endArray().key("end_to_end").beginObject();
  json.field("bare_s", e2e.bareSec).field("observed_s", e2e.observedSec);
  json.field("overhead_frac", e2e.overhead()).endObject().endObject();
  std::printf("end-to-end: bare %.3fs observed %.3fs overhead %.1f%%\n",
              e2e.bareSec, e2e.observedSec, 100.0 * e2e.overhead());
  return hsd::bench::writeJsonFile(path, json.str()) ? 0 : 1;
}
