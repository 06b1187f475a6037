// Observability-overhead trajectory: what a span, a log record, and the
// trace-propagation machinery cost — off, gated, enabled, and enabled
// with an ambient trace id — plus an end-to-end evaluation pair (fully
// observed vs bare) on a small generated layout. Emits BENCH_obs.json
// for bench/run_benches.sh:
//
//   obs_overhead --json-out BENCH_obs.json
//
// Every row is a bench::measure over batches of calls: one warm-up
// batch, then at least kReps batches and kBudgetSeconds, reported as the
// median ns/op with its MAD and CV. The end-to-end rows are median
// evaluation seconds and the relative overhead fraction. All of them are
// diagnostics, not claim evidence. These numbers back the "near-zero
// when off, allocation-free when on" contract pinned functionally by
// tests/test_obs_plane.cpp.
#include <algorithm>
#include <chrono>
#include <cstdio>
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

constexpr std::size_t kReps = 15;
constexpr int kIters = 20000;
constexpr double kBudgetSeconds = 0.05;

struct MicroRow {
  const char* name;
  double nsPerOp = 0.0;  ///< median over batches
  double madNs = 0.0;
  double cv = 0.0;
};

/// bench::measure over batches of kIters calls to `fn`, per call.
template <typename Fn>
MicroRow row(const char* name, Fn&& fn) {
  const bench::Measurement m = bench::measure(
      [&] {
        for (int i = 0; i < kIters; ++i) fn();
      },
      1, kReps, kBudgetSeconds);
  return {name, m.median * 1e9 / kIters, m.mad * 1e9 / kIters, m.cv};
}

std::vector<MicroRow> microRows() {
  std::vector<MicroRow> rows;
  const auto t = std::chrono::steady_clock::now();

  // Spans: recorder off (the production default), on, on + ambient trace.
  {
    obs::TraceRecorder* off = nullptr;
    rows.push_back(row("span_off",
        [&] {
          obs::Span s(off, "bench/span", "bench");
          s.arg("i", 1);
          keep(s);
        }));
  }
  {
    obs::TraceRecorder rec;
    rec.recordSpan("warmup", "bench", t, t);
    rows.push_back(row("span_on",
        [&] { rec.recordSpan("bench/span", "bench", t, t, {"i", 1}); }));
    const obs::ScopedTraceId scope(obs::makeTraceId());
    rows.push_back(row("span_on_traced",
        [&] { rec.recordSpan("bench/span", "bench", t, t, {"i", 1}); }));
  }

  // Log records: recorder off, below the level gate, enabled, enabled +
  // ambient trace.
  {
    obs::LogRecorder* off = nullptr;
    rows.push_back(row("log_off",
        [&] { obs::logTo(off, obs::LogLevel::kInfo, "bench", "msg"); }));
  }
  {
    obs::LogRecorder rec;  // min level info: debug is gated
    rec.log(obs::LogLevel::kInfo, "bench", "warmup");
    rows.push_back(row("log_gated",
        [&] { obs::logTo(&rec, obs::LogLevel::kDebug, "bench", "msg"); }));
    rows.push_back(row("log_on",
        [&] {
          rec.log(obs::LogLevel::kInfo, "bench", "steady-state record",
                  {"i", 1});
        }));
    const obs::ScopedTraceId scope(obs::makeTraceId());
    rows.push_back(row("log_on_traced",
        [&] {
          rec.log(obs::LogLevel::kInfo, "bench", "steady-state record",
                  {"i", 1});
        }));
  }

  // Model-quality records: recorder off, margin record, record + gated
  // capture check (the steady state — most margins are far from the
  // boundary), and record + actual capture (ring write included).
  {
    obs::ModelStatsRecorder* off = nullptr;
    rows.push_back(row("margin_record_off",
        [&] { obs::recordTo(off, 0, 1.25, true); }));
  }
  {
    obs::ModelStatsRecorder rec({"bench"});
    rec.record(0, 1.25, true);  // warm the TLS slot
    rows.push_back(row("margin_record_on",
        [&] { rec.record(0, 1.25, true); }));
    rows.push_back(row("margin_capture_gated",
        [&] {
          rec.record(0, 1.25, true);
          if (rec.shouldCapture(1.25)) rec.capture(0, 1.25, 0, 0, 0);
        }));
    rows.push_back(row("margin_capture_on",
        [&] {
          rec.record(0, 0.01, true);
          if (rec.shouldCapture(0.01)) rec.capture(0, 0.01, 1200, 3400, 0x9e3779b9u);
        }));
  }

  // Propagation: scope install + read, and the per-request header costs.
  {
    const obs::TraceId id = obs::makeTraceId();
    rows.push_back(row("trace_scope",
        [&] {
          const obs::ScopedTraceId scope(id);
          const obs::TraceId cur = obs::currentTraceId();
          keep(cur);
        }));
    const std::string header = obs::formatTraceparent(id);
    rows.push_back(row("traceparent_parse",
        [&] {
          obs::TraceId out;
          obs::parseTraceparent(header, out);
          keep(out);
        }));
    rows.push_back(row("trace_id_format",
        [&] {
          char buf[obs::kTraceIdChars + 1];
          obs::formatTraceId(id, buf);
          keep(buf);
        }));
  }
  return rows;
}

struct EndToEnd {
  bench::Measurement bare;
  bench::Measurement observed;
  double overhead() const {
    return bare.median > 0 ? observed.median / bare.median - 1.0 : 0.0;
  }
};

/// One evaluation of a small generated benchmark, bare vs fully observed
/// (tracer + log recorder + ambient trace id), each on a context of its
/// own: one warm-up run, then at least `minIters` runs.
EndToEnd endToEnd(std::size_t minIters) {
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

  const auto evaluate = [&](engine::RunContext& ctx) {
    const core::EvalResult res =
        core::evaluateLayout(det, b.test.layout, ours.eval, ctx);
    keep(res.reported);
  };
  EndToEnd out;
  engine::RunContext bare(ours.threads);
  out.bare = bench::measure([&] { evaluate(bare); }, 1, minIters, 0.0);
  engine::RunContext observed(ours.threads);
  observed.attachTracer(std::make_shared<obs::TraceRecorder>());
  auto log = std::make_shared<obs::LogRecorder>();
  log->setMinLevel(obs::LogLevel::kDebug);
  observed.attachLog(log);
  observed.attachModelStats(
      std::make_shared<obs::ModelStatsRecorder>(det.clusterNames()));
  const obs::ScopedTraceId scope(obs::makeTraceId());
  out.observed = bench::measure([&] { evaluate(observed); }, 1, minIters, 0.0);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path =
      hsd::bench::argString(argc, argv, "--json-out", "BENCH_obs.json");
  const std::vector<MicroRow> rows = microRows();
  const EndToEnd e2e = endToEnd(30);

  hsd::obs::JsonWriter json = hsd::bench::benchJson("obs");
  json.key("micro").beginArray(true);
  for (const MicroRow& r : rows) {
    json.beginObject().field("name", r.name).field("ns_per_op", r.nsPerOp);
    json.field("mad_ns", r.madNs).field("cv", r.cv).endObject();
    std::printf("%-20s %9.2f ns/op  mad %6.2f  cv %.2f\n", r.name, r.nsPerOp,
                r.madNs, r.cv);
  }
  json.endArray().key("end_to_end").beginObject();
  json.field("bare_s", e2e.bare.median).field("bare_cv", e2e.bare.cv);
  json.field("observed_s", e2e.observed.median);
  json.field("observed_cv", e2e.observed.cv);
  json.field("overhead_frac", e2e.overhead()).endObject().endObject();
  std::printf("end-to-end: bare %.3fs (cv %.2f) observed %.3fs (cv %.2f) "
              "overhead %.1f%%\n",
              e2e.bare.median, e2e.bare.cv, e2e.observed.median,
              e2e.observed.cv, 100.0 * e2e.overhead());
  return hsd::bench::writeJsonFile(path, json.str()) ? 0 : 1;
}
