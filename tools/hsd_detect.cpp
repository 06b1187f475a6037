// CLI: run a trained detector over a GDSII layout and write the hotspot
// report.
//
//   hsd_detect <model> <layout.gds> <out_report.txt> [--bias B]
//              [--threads N] [--no-removal] [--no-feedback]
//              [--tile-size S] [--trace-out trace.json]
//              [--log-out log.jsonl]
//              [--log-level trace|debug|info|warn|error]
//              [--model-stats-out model.json]
//
// --tile-size S partitions the layout into S-dbu grid tiles evaluated
// concurrently with halo overlap (engine/tiler.hpp; the halo follows
// from the model's clip geometry) and deterministically merged — the
// report is byte-identical to an untiled run. At most --threads tiles
// run at once. --bias must be a finite number, --tile-size a whole
// number in [0, 2^53] and --threads one in [0, 1024]; anything else, and
// any flag not listed above, exits 2 naming the flag before any file is
// read.
//
// --trace-out records the whole run as Chrome trace-event JSON (per-batch
// stage spans, parallelFor chunk spans) — open it in Perfetto or
// chrome://tracing. The ENGINE_STATS line is the per-stage timing JSON
// (when tiled: per-tile "tile<k>/<stage>" entries, then each stage summed
// over all tiles under its plain name),
// led by "model": the model fingerprint as 16 hex digits.
//
// --log-out records structured engine logs (eval/tile milestones) as
// JSON lines; --log-level sets the floor (default info). The run gets a
// freshly minted trace id so its spans and log records correlate the
// same way a served request's do.
//
// --model-stats-out records per-cluster SVM margin sketches, verdict
// counts and low-margin captures (obs/model_stats.hpp) and writes them as
// JSON at exit (led by the model "fingerprint"); when the model carries a
// drift baseline the dump includes the per-cluster PSI report against it.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>

#include "args.hpp"
#include "core/evaluator.hpp"
#include "gds/ascii.hpp"
#include "gds/gdsii.hpp"
#include "obs/drift.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/model_stats.hpp"
#include "obs/trace.hpp"
#include "obs/trace_id.hpp"

using namespace hsd::tools;

int main(int argc, char** argv) {
  using namespace hsd;
  if (!checkArgs(argc, argv, 3, "<model> <layout.gds> <out_report.txt>",
                 {{"--bias", "B"}, {"--threads", "N"}, {"--no-removal"},
                  {"--no-feedback"}, {"--tile-size", "S"},
                  {"--trace-out", "F"}, {"--log-out", "F"},
                  {"--log-level", "L"}, {"--model-stats-out", "F"}}))
    return 2;
  // Numbers are checked before any work: text that is not a number is a
  // usage error naming its flag, and so is a fraction, a negative or an
  // overflowing value where a count or a coordinate is due — never a
  // silent zero or truncation.
  core::EvalParams ep;
  std::size_t threads = 0;
  try {
    ep.decisionBias = argDouble(argc, argv, "--bias", 0.0);
    ep.tiling.tileSize = Coord(engine::wholeNumber(
        "tile-size", argDouble(argc, argv, "--tile-size", 0.0),
        engine::kMaxExactWhole));
    threads = engine::wholeNumber("threads",
                                  argDouble(argc, argv, "--threads", 0.0),
                                  engine::RunContext::kMaxThreads);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  try {
    std::ifstream ms(argv[1]);
    if (!ms) {
      std::fprintf(stderr, "error: cannot open model %s\n", argv[1]);
      return 1;
    }
    const core::Detector det = core::Detector::load(ms);
    const Layout layout = gds::readGdsiiFile(argv[2]);

    ep.extract.clip = det.params.clip;
    ep.removal.clip = det.params.clip;
    ep.useRemoval = !hasFlag(argc, argv, "--no-removal");
    ep.useFeedback = !hasFlag(argc, argv, "--no-feedback");

    engine::RunContext ctx(threads);
    const char* traceOut = argString(argc, argv, "--trace-out", nullptr);
    std::shared_ptr<obs::TraceRecorder> tracer;
    if (traceOut != nullptr) {
      tracer = std::make_shared<obs::TraceRecorder>();
      tracer->nameThread("hsd_detect-main");
      ctx.attachTracer(tracer);
    }
    const char* logOut = argString(argc, argv, "--log-out", nullptr);
    std::shared_ptr<obs::LogRecorder> logRec;
    if (logOut != nullptr) {
      logRec = std::make_shared<obs::LogRecorder>();
      const char* levelArg = argString(argc, argv, "--log-level", nullptr);
      if (levelArg != nullptr) {
        obs::LogLevel level;
        if (!obs::parseLogLevel(levelArg, level)) {
          std::fprintf(stderr, "error: bad --log-level '%s'\n", levelArg);
          return 2;
        }
        logRec->setMinLevel(level);
      }
      ctx.attachLog(logRec);
    }
    // The model's identity, stamped on ENGINE_STATS and the
    // --model-stats-out dump.
    const std::uint64_t fingerprint = det.fingerprint();
    const char* modelStatsOut =
        argString(argc, argv, "--model-stats-out", nullptr);
    std::shared_ptr<obs::ModelStatsRecorder> modelStats;
    std::unique_ptr<obs::DriftScorer> drift;
    if (modelStatsOut != nullptr) {
      obs::ModelStatsRecorder::Options opts;
      opts.modelFingerprint = fingerprint;
      modelStats =
          std::make_shared<obs::ModelStatsRecorder>(det.clusterNames(), opts);
      ctx.attachModelStats(modelStats);
      if (det.hasBaseline) {
        drift = std::make_unique<obs::DriftScorer>(det.baseline);
        drift->setSource(modelStats);
        drift->sample();  // zero origin: the run is the window
      }
    }
    // Mint a run-scoped trace id so spans and log records correlate the
    // same way a served request's do.
    const obs::ScopedTraceId traceScope(obs::makeTraceId());
    const core::EvalResult res = core::evaluateLayout(det, layout, ep, ctx);
    gds::writeWindowListFile(argv[3], res.reported, det.params.clip);
    std::printf("%s: %zu candidates -> %zu flagged -> %zu reported "
                "(%.1fs) -> %s\n",
                layout.name().c_str(), res.candidateClips,
                res.flaggedBeforeRemoval, res.reported.size(),
                res.evalSeconds, argv[3]);
    obs::JsonWriter stats;
    stats.beginObject().field("model", obs::hex64(fingerprint));
    ctx.stats().writeJson(stats);
    std::printf("ENGINE_STATS %s\n", stats.endObject().str().c_str());
    if (tracer) {
      std::ofstream ts(traceOut);
      if (!ts) {
        std::fprintf(stderr, "error: cannot open trace file %s\n", traceOut);
        return 1;
      }
      tracer->writeJson(ts);
      std::printf("trace: %zu spans (%llu dropped) -> %s\n",
                  tracer->spanCount(),
                  static_cast<unsigned long long>(tracer->droppedEvents()),
                  traceOut);
    }
    if (logRec) {
      std::ofstream ls(logOut);
      if (!ls) {
        std::fprintf(stderr, "error: cannot open log file %s\n", logOut);
        return 1;
      }
      logRec->writeJsonLines(ls);
      std::printf("log: %zu records (%llu dropped) -> %s\n",
                  logRec->recordCount(),
                  static_cast<unsigned long long>(logRec->droppedRecords()),
                  logOut);
    }
    if (modelStats) {
      std::ofstream out(modelStatsOut);
      if (!out) {
        std::fprintf(stderr, "error: cannot open model stats file %s\n",
                     modelStatsOut);
        return 1;
      }
      obs::JsonWriter w;
      w.beginObject().key("model").raw(modelStats->toJson());
      if (drift) w.key("drift").raw(drift->sampleAndJson());
      out << w.endObject().str() << '\n';
      std::printf("model stats: %zu clusters -> %s\n", modelStats->numSlots(),
                  modelStatsOut);
    }

    // Triage view: the highest-confidence reports first.
    const Layer* l = layout.findLayer(det.params.layer);
    if (l != nullptr && !res.reported.empty()) {
      const GridIndex idx(l->rects(), det.params.clip.clipSide);
      const auto ranked = core::rankReports(det, idx, res.reported, ctx);
      const std::size_t show = std::min<std::size_t>(5, ranked.size());
      std::printf("top %zu by P(hotspot):\n", show);
      for (std::size_t i = 0; i < show; ++i)
        std::printf("  (%lld, %lld)  p=%.3f\n",
                    static_cast<long long>(ranked[i].window.core.lo.x),
                    static_cast<long long>(ranked[i].window.core.lo.y),
                    ranked[i].probability);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
