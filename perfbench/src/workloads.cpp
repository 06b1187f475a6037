#include "workloads.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/extract.hpp"
#include "core/features.hpp"
#include "core/metrics.hpp"
#include "core/pattern.hpp"
#include "inputs.hpp"
#include "net/http.hpp"
#include "serve/detect_endpoint.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace hsd;
using Clock = std::chrono::steady_clock;
using Scope = SpanLog::Scope;

namespace {

// --- Workload shapes -------------------------------------------------

/// Set-up is timed in bursts: one before the timed phase and one after
/// each of its kTimedSlices slices. setup_s is the fastest set-up of the
/// run. On a shared 4-vCPU host, Detector::load ran at two speeds about
/// 1.5x apart, in spells of about ten seconds, with the same page faults,
/// system time and context switches in both: the slow speed is the
/// host's. A median lands on either speed; the fastest of set-ups spread
/// over the run reads the program's own cost.
constexpr std::size_t kTimedSlices = 8;
constexpr int kSetupsPerBurst = 5;
/// batch-large: one ~160 x 160 um benchmark3-style layout.
constexpr LayoutShape kBatchShape{2, 160000, 160000, 600};
/// wire-tiled-cold: distinct 42 x 40 um layouts, each POSTed tiled.
constexpr LayoutShape kColdShape{0, 42000, 40000, 50};
constexpr Coord kColdTileSize = 21000;  ///< 4 tiles, one per context
constexpr std::size_t kColdWarmups = 2;
constexpr std::size_t kColdChecked = 12;  ///< timed requests with a reference
/// Where the traced run writes its Chrome trace (gitignored).
constexpr const char* kTraceDir = ".bench_out";
/// The layer sweep's svm probe scores at most this many clips per run.
constexpr std::size_t kSvmProbeClips = 2000;

/// The offline stages of one evaluation (plain names; tiled runs roll
/// their tile<k>/ entries up into these).
const char* const kStages[] = {"extract/screen", "extract/candidates",
                               "eval/clip",      "eval/features",
                               "eval/svm",       "eval/feedback",
                               "eval/removal"};

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return double(t.tv_sec) + double(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Returns freed heap to the kernel and resets VmHWM to the current RSS,
/// so peak_rss_mb covers what follows (set-up and the timed phase), not
/// the benchmark's own preparation.
void resetPeakRss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  if (!f) std::printf("  note: cannot reset VmHWM; peak_rss_mb covers "
                      "preparation too\n");
}

/// VmHWM of this process in MB (0 when /proc is unavailable).
double peakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::size_t hwThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// fn(i) for every i in [0, n), on up to `threads` threads; the first
/// exception any call throws is rethrown once all threads have joined.
template <typename Fn>
void parallelIndex(std::size_t n, std::size_t threads, Fn fn) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr error;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::min(n, threads); ++t)
    pool.emplace_back([&] {
      try {
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1))
          fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
    });
  for (std::thread& th : pool) th.join();
  if (error) std::rethrow_exception(error);
}

/// Offline references of bodies[0, n), one single-threaded context each.
std::vector<Reference> references(const core::Detector& det,
                                  const std::vector<Input>& inputs,
                                  std::size_t n, std::size_t threads) {
  std::vector<Reference> refs(n);
  parallelIndex(n, threads, [&](std::size_t i) {
    refs[i] = offlineReference(det, inputs[i].body, 1);
  });
  return refs;
}

// --- Run state -------------------------------------------------------

/// Everything one run accumulates: operation outcomes, the span log, and
/// the metric values as they are measured.
struct Run {
  explicit Run(const Options& o) : opt(o), spans(o.trace) {}

  const Options& opt;
  const std::size_t nproc = hwThreads();
  SpanLog spans;      ///< enabled only in the traced run
  SpanLog off{false};
  std::atomic<std::size_t> attempted{0};
  std::atomic<std::size_t> failed{0};
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::atomic<std::size_t> parsedBytes{0};  ///< bodies parsed under spans
  std::size_t svmPairs = 0;  ///< pairs scored under svm.pairs spans

  /// Spans of a traced operation go to the log; the others to nowhere.
  SpanLog& spansFor(bool traced) { return traced ? spans : off; }

  void count(bool ok) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
  }

  Layout parse(SpanLog& sp, const std::string& body) {
    Scope s(sp, "gds.readGdsii", "gds");
    if (sp.enabled()) parsedBytes.fetch_add(body.size());
    return parseGds(body);
  }
};

/// The program's set-up, timed in bursts (see kTimedSlices). The first
/// instance made stays live for the operations; every later one is
/// destroyed, untimed, as soon as it is timed.
template <typename T>
class Setups {
 public:
  Setups(Run& run, std::function<std::unique_ptr<T>()> make)
      : run_(run), make_(std::move(make)) {
    burst();
  }

  T& live() { return *live_; }

  /// kSetupsPerBurst more set-ups; after the last burst, records setup_s.
  void burst() {
    double best = 0.0;
    for (int k = 0; k < kSetupsPerBurst; ++k) {
      const auto t0 = Clock::now();
      std::unique_ptr<T> made;
      {
        Scope s(run_.spans, "bench.setup", "bench");
        made = make_();
      }
      const double secs = secondsSince(t0);
      best = k == 0 ? secs : std::min(best, secs);
      if (!live_) live_ = std::move(made);
    }
    bestOfBurst_.push_back(best);
    if (bestOfBurst_.size() == kTimedSlices + 1) {
      const double fastest =
          *std::min_element(bestOfBurst_.begin(), bestOfBurst_.end());
      run_.e2e["setup_s"] = fastest;
      std::printf("  setup: %zu bursts of %d, best of each:",
                  bestOfBurst_.size(), kSetupsPerBurst);
      for (const double b : bestOfBurst_) std::printf(" %.4f", b);
      std::printf(" s; fastest %.4f s\n", fastest);
    }
  }

 private:
  Run& run_;
  std::function<std::unique_ptr<T>()> make_;
  std::unique_ptr<T> live_;
  std::vector<double> bestOfBurst_;
};

std::unique_ptr<core::Detector> loadDetector(SpanLog& sp,
                                             const std::string& text) {
  Scope s(sp, "core.Detector::load", "core");
  std::istringstream is(text);
  return std::make_unique<core::Detector>(core::Detector::load(is));
}

/// Per-stage EngineStats of the evaluations measured for per-layer
/// metrics, summed, plus evaluation wall minus stage time.
struct StageTotals {
  std::map<std::string, engine::StageStats> stages;
  std::vector<double> unstagedMs;
  std::size_t evaluations = 0;

  void add(const engine::EngineStats& stats, double wallMs) {
    double stagedSeconds = 0.0;
    for (const char* name : kStages) {
      const engine::StageStats s = stats.rollup(name);
      engine::StageStats& acc = stages[name];
      acc.calls += s.calls;
      acc.items += s.items;
      acc.seconds += s.seconds;
      stagedSeconds += s.seconds;
    }
    unstagedMs.push_back(wallMs - stagedSeconds * 1e3);
    ++evaluations;
  }

  double usPerItem(const char* name) const {
    const auto it = stages.find(name);
    return it == stages.end()
               ? 0.0
               : ratio(it->second.seconds * 1e6, double(it->second.items));
  }

  void report(Run& run, bool withUnstaged) const {
    run.layer["engine.screen_us_per_item"] = usPerItem("extract/screen");
    run.layer["engine.features_us_per_item"] = usPerItem("eval/features");
    run.layer["engine.svm_us_per_item"] = usPerItem("eval/svm");
    run.layer["engine.feedback_us_per_item"] = usPerItem("eval/feedback");
    const auto rm = stages.find("eval/removal");
    run.layer["engine.removal_ms"] =
        rm == stages.end()
            ? 0.0
            : ratio(rm->second.seconds * 1e3, double(evaluations));
    if (withUnstaged) run.layer["engine.unstaged_ms"] = median(unstagedMs);
  }
};

// --- The wire: server stack and client --------------------------------

/// Detector + DetectionServer + POST /detect endpoint + HTTP transport,
/// started in that order and stopped in reverse.
class WireStack {
 public:
  WireStack(SpanLog& sp, const std::string& modelText,
            const serve::ServerConfig& cfg) {
    det_ = loadDetector(sp, modelText);
    {
      Scope s(sp, "serve.DetectionServer", "serve");
      server_ = std::make_unique<serve::DetectionServer>(cfg);
    }
    endpoint_ = std::make_unique<serve::DetectionEndpoint>(*server_, *det_);
    net::HttpServerOptions ho;
    ho.maxBodyBytes = std::size_t(64) << 20;
    ho.handlerThreads = 8;
    http_ = std::make_unique<net::HttpServer>(ho);
    endpoint_->mount(*http_);
    Scope s(sp, "net.HttpServer::start", "net");
    http_->start();
  }
  ~WireStack() {
    http_->stop();
    server_->shutdown();
  }
  WireStack(const WireStack&) = delete;
  WireStack& operator=(const WireStack&) = delete;

  const core::Detector& detector() const { return *det_; }
  std::uint16_t port() const { return http_->port(); }
  engine::StageCache::Counters cache() const {
    return server_->stats().cache;
  }

 private:
  std::unique_ptr<core::Detector> det_;
  std::unique_ptr<serve::DetectionServer> server_;
  std::unique_ptr<serve::DetectionEndpoint> endpoint_;
  std::unique_ptr<net::HttpServer> http_;
};

/// The value after `"key": ` in a one-line JSON object (0 if absent).
double jsonNumber(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\": ");
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + key.size() + 4, nullptr);
}

/// One POST /detect exchange as the client saw it.
struct Reply {
  int status = 0;   ///< 0: transport error
  bool ok = false;  ///< 200 and (when checked) the expected report
  bool profiled = false;
  double queueMs = 0.0;
  double runMs = 0.0;
  double clientMs = 0.0;  ///< send to reply
};

Reply postDetect(std::uint16_t port, const std::string& target,
                 const std::string& body, const std::string* expected,
                 bool profile) {
  Reply r;
  std::vector<std::pair<std::string, std::string>> headers;
  if (profile) headers.emplace_back("X-Profile", "1");
  const auto t0 = Clock::now();
  try {
    const net::HttpResult res =
        net::httpPost("127.0.0.1", port, target, body,
                      "application/octet-stream", headers, 60000);
    r.clientMs = secondsSince(t0) * 1e3;
    r.status = res.status;
    r.ok = res.status == 200 && (expected == nullptr || res.body == *expected);
    if (const std::string* p = res.header("x-profile")) {
      r.profiled = true;
      r.queueMs = jsonNumber(*p, "queueSeconds") * 1e3;
      r.runMs = jsonNumber(*p, "runSeconds") * 1e3;
    }
  } catch (const std::exception& e) {
    std::printf("  transport error: %s\n", e.what());
  }
  return r;
}

/// serve.* and net.* from the replies of a run (times from the profiled
/// ones).
void reportServeLayers(Run& run, const std::vector<Reply>& replies) {
  std::vector<double> queue, runMs, overhead;
  std::size_t refused = 0;
  for (const Reply& r : replies) {
    refused += r.status == 429 || r.status == 503;
    if (!r.profiled) continue;
    queue.push_back(r.queueMs);
    runMs.push_back(r.runMs);
    overhead.push_back(r.clientMs - r.queueMs - r.runMs);
  }
  run.layer["serve.queue_ms"] = median(queue);
  run.layer["serve.run_ms"] = median(runMs);
  run.layer["net.overhead_ms"] = median(overhead);
  run.layer["serve.refused_ratio"] =
      ratio(double(refused), double(replies.size()));
}

void reportCacheLayers(Run& run, const engine::StageCache::Counters& before,
                       const engine::StageCache::Counters& after) {
  const double hits = double(after.hits - before.hits);
  const double misses = double(after.misses - before.misses);
  run.layer["engine.cache_hit_ratio"] = ratio(hits, hits + misses);
  run.layer["engine.cache_evictions"] =
      double(after.evictions - before.evictions);
}

/// latency_p50_ms from untraced operations; in the traced run also the
/// traced/untraced ratio. Prints the sample count and the highest
/// percentile with at least ten samples beyond it.
void reportLatency(Run& run, const char* what, const std::vector<double>& ms,
                   const std::vector<double>& tracedMs) {
  run.e2e["latency_p50_ms"] = median(ms);
  const double tail = tailPercentile(ms.size());
  if (tail > 0.5)
    std::printf("  %s latency: n=%zu p50 %.3f ms, p%g %.3f ms\n", what,
                ms.size(), median(ms), tail * 100.0, percentile(ms, tail));
  else
    std::printf("  %s latency: n=%zu p50 %.3f ms (too few samples for a "
                "tail percentile)\n",
                what, ms.size(), median(ms));
  if (run.opt.trace)
    run.layer["obs.trace_overhead_ratio"] = ratio(median(tracedMs), median(ms));
}

/// accuracy and extras of the checked inputs' reference reports (every
/// operation on them matched its reference), and the digest of those
/// reports.
void reportQuality(Run& run, const Reference* refs, const Input* inputs,
                   std::size_t n) {
  std::size_t hits = 0, actual = 0, extras = 0;
  std::uint64_t digest = fnv1a("");
  for (std::size_t i = 0; i < n; ++i) {
    const core::Score s =
        core::scoreReports(refs[i].reported, inputs[i].truth);
    hits += s.hits;
    actual += s.actualHotspots;
    extras += s.extras;
    digest = fnv1a(refs[i].report, digest);
  }
  run.e2e["accuracy"] = actual == 0 ? 1.0 : double(hits) / double(actual);
  run.e2e["extras"] = double(extras);
  std::printf("REPORT_DIGEST %016" PRIx64 "\n", digest);
}

// --- Layer sweep (traced run only) -------------------------------------

struct Probe {
  const std::string* body;
  const Reference* ref;
};

struct SweepPlan {
  Coord tileSize = kColdTileSize;
  /// Monolithic evaluate/write/rank per probe, for the engine stage
  /// metrics, and engine.unstaged_ms from the tile-by-tile evaluation
  /// (served tiles run on several contexts at once, which a stage sum
  /// cannot be subtracted from). Off where the operations measure both.
  bool evaluate = true;
};

/// Calls every layer's public API on the workload's probe inputs, each
/// under a span, for the per-layer metrics the workload's own operations
/// do not exercise. Tiled reports are checked against the reference too.
void layerSweep(Run& run, const core::Detector& det,
                const std::vector<Probe>& probes, const SweepPlan& plan) {
  SpanLog& sp = run.spans;
  Scope root(sp, "bench.sweep", "bench");
  const core::EvalParams ep = evalParams(det);
  const LayerId lid = det.params.layer;
  std::uint64_t fingerprint = 0;
  for (int k = 0; k < 3; ++k) {
    Scope s(sp, "core.fingerprint", "core");
    fingerprint = det.fingerprint();
  }
  std::printf("  model fingerprint %016" PRIx64 "\n", fingerprint);

  std::size_t anchors = 0, svmClips = 0, svmPairs = 0, candidates = 0;
  std::size_t flagged = 0, reported = 0;
  std::vector<double> tilesPerRequest;
  StageTotals monolithic, tiled;
  for (const Probe& probe : probes) {
    const Layout layout = run.parse(sp, *probe.body);
    const Layer* l = layout.findLayer(lid);
    if (l == nullptr) throw std::runtime_error("probe layout has no layer");
    std::optional<GridIndex> index;
    {
      Scope s(sp, "layout.GridIndex", "layout");
      index.emplace(l->rects(), det.params.clip.clipSide);
    }
    {
      Scope s(sp, "layout.candidateAnchors", "layout");
      anchors +=
          core::candidateAnchors(*index, det.params.clip.coreSide).size();
    }
    candidates += probe.ref->candidates;
    flagged += probe.ref->flagged;
    reported += probe.ref->reported.size();

    if (plan.evaluate) {
      engine::RunContext ctx(run.nproc);
      core::EvalResult res;
      const auto t0 = Clock::now();
      {
        Scope s(sp, "core.evaluateLayout", "core");
        res = core::evaluateLayout(det, layout, ep, ctx);
      }
      monolithic.add(ctx.stats(), secondsSince(t0) * 1e3);
      std::string report;
      {
        Scope s(sp, "gds.writeWindowList", "gds");
        report = reportBytes(res.reported, det.params.clip);
      }
      run.count(report == probe.ref->report);
      Scope s(sp, "core.rankReports", "core");
      core::rankReports(det, *index, res.reported, ctx);
    }

    // svm: scale + decide per (clip, kernel) pair under the first-flag
    // exit, over a stride sample of this input's candidate features.
    {
      engine::RunContext ctx(run.nproc);
      const std::vector<ClipWindow> cands =
          core::extractCandidateClips(*index, ep.extract, ctx);
      const std::size_t cap =
          std::max<std::size_t>(1, kSvmProbeClips / probes.size());
      const std::size_t stride = std::max<std::size_t>(1, cands.size() / cap);
      const std::vector<std::pair<LayerId, const GridIndex*>> layers{
          {lid, &*index}};
      std::vector<svm::FeatureVector> feats;
      for (std::size_t i = 0; i < cands.size(); i += stride)
        feats.push_back(core::buildFeatureVector(
            core::CorePattern::fromCore(extractClip(layers, cands[i]), lid),
            det.params.features));
      std::size_t maxDim = 0;
      for (const core::KernelEntry& k : det.kernels)
        maxDim = std::max(maxDim, k.scaler.dim());
      std::vector<double> x(maxDim);
      Scope s(sp, "svm.pairs", "svm");
      for (const svm::FeatureVector& f : feats) {
        for (const core::KernelEntry& k : det.kernels) {
          k.scaler.transformInto(f, x.data());
          ++svmPairs;
          if (k.model.decisionFrom({x.data(), k.scaler.dim()}) >
              ep.decisionBias)
            break;
        }
      }
      svmClips += feats.size();
    }

    // engine tiling: plan, per-tile evaluation, merge, one after another.
    {
      core::EvalParams tp = ep;
      tp.tiling.tileSize = plan.tileSize;
      engine::RunContext ctx(run.nproc);
      const auto t0 = Clock::now();
      std::optional<core::TiledLayout> tl;
      {
        Scope s(sp, "engine.prepareTiledLayout", "engine");
        tl.emplace(core::prepareTiledLayout(layout, lid, tp));
      }
      std::vector<core::TileEvalResult> tiles;
      for (std::size_t w = 0; w < tl->work.size(); ++w) {
        Scope s(sp, "engine.evaluateTile", "engine");
        tiles.push_back(core::evaluateTile(det, *tl, w, tp, ctx));
      }
      core::EvalResult res;
      {
        Scope s(sp, "engine.finishTiledEval", "engine");
        res = core::finishTiledEval(*tl, std::move(tiles), tp, ctx, t0);
      }
      tiled.add(ctx.stats(), secondsSince(t0) * 1e3);
      tilesPerRequest.push_back(double(tl->work.size()));
      run.count(reportBytes(res.reported, det.params.clip) ==
                probe.ref->report);
    }
  }

  run.layer["layout.anchors"] = ratio(double(anchors), double(probes.size()));
  run.layer["core.screen_pass_ratio"] =
      ratio(double(candidates), double(anchors));
  run.layer["core.flag_ratio"] = ratio(double(flagged), double(candidates));
  run.layer["core.removal_keep_ratio"] =
      ratio(double(reported), double(flagged));
  run.layer["svm.pairs_per_clip"] = ratio(double(svmPairs), double(svmClips));
  run.layer["engine.tiles_per_request"] = median(tilesPerRequest);
  run.svmPairs += svmPairs;
  if (plan.evaluate) {
    monolithic.report(run, false);
    run.layer["engine.unstaged_ms"] = median(tiled.unstagedMs);
  }
}

/// Span-derived per-layer times, the trace file, and the check that
/// every per-layer metric was produced.
void finishTrace(Run& run) {
  const auto times = run.spans.times();
  const auto selfMs = [&](const char* name) {
    std::vector<double> v;
    if (const auto it = times.find(name); it != times.end())
      for (const SpanLog::SpanTime& t : it->second) v.push_back(t.selfMs);
    return v;
  };
  const auto sum = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
  };
  run.layer["gds.parse_us_per_kb"] =
      ratio(sum(selfMs("gds.readGdsii")) * 1e3,
            double(run.parsedBytes.load()) / 1024.0);
  run.layer["gds.write_ms"] = median(selfMs("gds.writeWindowList"));
  run.layer["layout.index_ms"] = median(selfMs("layout.GridIndex"));
  run.layer["layout.anchors_ms"] = median(selfMs("layout.candidateAnchors"));
  run.layer["core.load_ms"] = median(selfMs("core.Detector::load"));
  run.layer["core.fingerprint_ms"] = median(selfMs("core.fingerprint"));
  run.layer["core.rank_ms"] = median(selfMs("core.rankReports"));
  run.layer["svm.pair_ns"] =
      ratio(sum(selfMs("svm.pairs")) * 1e6, double(run.svmPairs));
  run.layer["engine.tile_prepare_ms"] =
      median(selfMs("engine.prepareTiledLayout"));
  run.layer["engine.tile_eval_ms"] = median(selfMs("engine.evaluateTile"));
  run.layer["engine.tile_merge_ms"] = median(selfMs("engine.finishTiledEval"));

  std::filesystem::create_directories(kTraceDir);
  const std::string path = std::string(kTraceDir) + "/trace-" +
                           run.opt.workload + "-" +
                           std::to_string(run.opt.seed) + ".json";
  if (!run.spans.writeChromeJson(path)) {
    std::printf("  error: cannot write trace %s\n", path.c_str());
    run.count(false);
  } else {
    std::printf("  trace: %s (%" PRIu64 " spans dropped)\n", path.c_str(),
                run.spans.dropped());
  }
  if (run.spans.dropped() != 0) run.count(false);
}

// --- batch-large ---------------------------------------------------------

/// What hsd_detect does, as one closed-loop caller: parse, evaluate on a
/// fresh uncached context, write the report, rank it.
void batchLarge(Run& run) {
  const TrainedModel model = trainSuiteModel(2, run.nproc);
  const Input input = makeInput(kBatchShape, subSeed(run.opt.seed, 1));
  std::printf("  model: %zu kernels, %zu bytes; input: %zu bytes GDSII\n",
              model.kernels, model.text.size(), input.body.size());
  Reference ref;
  std::vector<core::RankedReport> refRanked;
  {
    const auto prep = loadDetector(run.off, model.text);
    ref = offlineReference(*prep, input.body, run.nproc);
    const Layout layout = parseGds(input.body);
    const GridIndex index(layout.findLayer(prep->params.layer)->rects(),
                          prep->params.clip.clipSide);
    engine::RunContext ctx(run.nproc);
    refRanked = core::rankReports(*prep, index, ref.reported, ctx);
  }
  std::printf("  reference: %zu candidates -> %zu flagged -> %zu reported\n",
              ref.candidates, ref.flagged, ref.reported.size());

  resetPeakRss();
  Setups<core::Detector> setups(
      run, [&] { return loadDetector(run.spans, model.text); });
  const core::Detector* det = &setups.live();
  const core::EvalParams ep = evalParams(*det);

  StageTotals stages;
  const auto op = [&](bool traced) {
    SpanLog& sp = run.spansFor(traced);
    Scope root(sp, "bench.op", "bench");
    const Layout layout = run.parse(sp, input.body);
    engine::RunContext ctx(run.nproc);
    core::EvalResult res;
    const auto t0 = Clock::now();
    {
      Scope s(sp, "core.evaluateLayout", "core");
      res = core::evaluateLayout(*det, layout, ep, ctx);
    }
    if (traced) stages.add(ctx.stats(), secondsSince(t0) * 1e3);
    std::string report;
    {
      Scope s(sp, "gds.writeWindowList", "gds");
      report = reportBytes(res.reported, det->params.clip);
    }
    const Layer* l = layout.findLayer(det->params.layer);
    if (l == nullptr) return false;
    std::optional<GridIndex> index;
    {
      Scope s(sp, "layout.GridIndex", "layout");
      index.emplace(l->rects(), det->params.clip.clipSide);
    }
    std::vector<core::RankedReport> ranked;
    {
      Scope s(sp, "core.rankReports", "core");
      ranked = core::rankReports(*det, *index, res.reported, ctx);
    }
    return report == ref.report && ranked == refRanked;
  };

  run.count(op(false));  // warm-up
  // The timed phase is the operations alone; a set-up burst follows each
  // slice of it.
  std::vector<double> ms, tracedMs;
  double wall = 0.0, cpu = 0.0;
  std::size_t slices = 0;
  for (std::size_t i = 0; i < 2 || wall < run.opt.seconds; ++i) {
    const bool traced = run.opt.trace && i % 2 == 1;
    const double cpu0 = cpuSeconds();
    const auto o0 = Clock::now();
    run.count(op(traced));
    const double secs = secondsSince(o0);
    cpu += cpuSeconds() - cpu0;
    wall += secs;
    (traced ? tracedMs : ms).push_back(secs * 1e3);
    for (; slices < kTimedSlices &&
           wall * kTimedSlices >= double(slices + 1) * run.opt.seconds;
         ++slices)
      setups.burst();
  }
  for (; slices < kTimedSlices; ++slices) setups.burst();
  reportLatency(run, "op", ms, tracedMs);
  run.e2e["ops_per_s"] = double(ms.size() + tracedMs.size()) / wall;
  reportQuality(run, &ref, &input, 1);
  run.layer["par.cpu_util"] = cpu / (wall * double(run.nproc));
  if (!run.opt.trace) return;

  stages.report(run, true);
  SweepPlan plan;
  plan.tileSize = kBatchShape.width / 2;  // 4 tiles, as on wire-tiled-cold
  plan.evaluate = false;                  // the operations measured it
  layerSweep(run, *det, {{&input.body, &ref}}, plan);
  // The batch path has no server: serve.*, net.* and the cache come from
  // one profiled POST of the same layout to a one-worker server.
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.threadsPerContext = run.nproc;
  const WireStack wire(run.spans, model.text, cfg);
  const engine::StageCache::Counters before = wire.cache();
  Reply r;
  {
    Scope s(run.spans, "net.httpPost", "net");
    r = postDetect(wire.port(), "/detect", input.body, &ref.report, true);
  }
  run.count(r.ok);
  reportServeLayers(run, {r});
  reportCacheLayers(run, before, wire.cache());
}

// --- wire-tiled-cold -----------------------------------------------------

/// Distinct layouts POSTed tiled by one closed-loop client: the cache
/// insert path, the tiler and the serve fan-out, each request's tiles
/// spread over every idle context.
void wireTiledCold(Run& run) {
  const TrainedModel model = trainSuiteModel(0, run.nproc);
  // Enough distinct layouts for the whole phase at twice the throughput
  // seen at the benchmark's introduction; the phase ends early if a much
  // faster program uses them all.
  const std::size_t poolSize =
      kColdWarmups + std::size_t(std::ceil(run.opt.seconds * 10.0));
  std::vector<Input> pool(poolSize);
  parallelIndex(poolSize, run.nproc, [&](std::size_t i) {
    pool[i] = makeInput(kColdShape, subSeed(run.opt.seed, 1000 + i));
  });
  const std::size_t checked = std::min(poolSize, kColdWarmups + kColdChecked);
  const std::vector<Reference> refs = references(
      *loadDetector(run.off, model.text), pool, checked, run.nproc);

  resetPeakRss();
  serve::ServerConfig cfg;
  cfg.workers = 2;
  cfg.threadsPerContext = 1;
  cfg.contexts = 4;
  Setups<WireStack> setups(run, [&] {
    return std::make_unique<WireStack>(run.spans, model.text, cfg);
  });
  const WireStack* wire = &setups.live();
  const core::Detector& det = wire->detector();
  const std::string target =
      "/detect?tile-size=" + std::to_string(kColdTileSize);
  for (std::size_t i = 0; i < kColdWarmups; ++i)
    run.count(
        postDetect(wire->port(), target, pool[i].body, &refs[i].report, false)
            .ok);

  // The timed phase runs in slices; the client finishes its request in
  // flight at the end of each, and a set-up burst follows it.
  const engine::StageCache::Counters before = wire->cache();
  std::vector<Reply> replies;
  std::size_t next = kColdWarmups;
  const auto sliceLength = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(run.opt.seconds / kTimedSlices));
  double wall = 0.0, cpu = 0.0;
  for (std::size_t slice = 0; slice < kTimedSlices; ++slice) {
    const std::size_t first = replies.size();
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    const auto end = t0 + sliceLength;
    for (; next < poolSize && Clock::now() < end; ++next) {
      // In the traced run every odd request is traced: X-Profile requested
      // and a client span recorded.
      const bool traced = run.opt.trace && next % 2 == 1;
      const std::string* expected =
          next < checked ? &refs[next].report : nullptr;
      Scope s(run.spansFor(traced), "net.httpPost", "net");
      replies.push_back(
          postDetect(wire->port(), target, pool[next].body, expected, traced));
    }
    const double sliceWall = secondsSince(t0);
    wall += sliceWall;
    cpu += cpuSeconds() - cpu0;
    std::vector<double> sliceMs;
    for (std::size_t k = first; k < replies.size(); ++k)
      sliceMs.push_back(replies[k].clientMs);
    std::printf("  slice %zu: %zu requests, %.3f req/s, p50 %.1f ms\n", slice,
                sliceMs.size(), double(sliceMs.size()) / sliceWall,
                median(sliceMs));
    setups.burst();
  }
  std::vector<double> ms, tracedMs;
  std::size_t okCount = 0;
  for (const Reply& r : replies) {
    run.count(r.ok);
    okCount += r.ok ? 1 : 0;
    (r.profiled ? tracedMs : ms).push_back(r.clientMs);
  }
  if (replies.size() + kColdWarmups >= poolSize)
    std::printf("  note: all %zu pooled layouts used before %.0f s\n",
                poolSize, run.opt.seconds);
  reportLatency(run, "request", ms, tracedMs);
  run.e2e["ops_per_s"] = double(okCount) / wall;
  run.layer["par.cpu_util"] = cpu / (wall * double(run.nproc));

  reportQuality(run, refs.data(), pool.data(), checked);
  if (!run.opt.trace) return;

  reportCacheLayers(run, before, wire->cache());
  reportServeLayers(run, replies);
  std::vector<Probe> probes;
  for (std::size_t i = kColdWarmups; i < std::min(checked, kColdWarmups + 4);
       ++i)
    probes.push_back({&pool[i].body, &refs[i]});
  layerSweep(run, det, probes, SweepPlan{});
}

// --- Metric tables -------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

const MetricSpec kEndToEnd[] = {
    {"latency_p50_ms", "ms"}, {"ops_per_s", "1/s"}, {"ok_ratio", "ratio"},
    {"setup_s", "s"},         {"peak_rss_mb", "MB"}, {"accuracy", "ratio"},
    {"extras", "count"},
};

const MetricSpec kPerLayer[] = {
    {"gds.parse_us_per_kb", "us/KB"},
    {"gds.write_ms", "ms"},
    {"layout.index_ms", "ms"},
    {"layout.anchors", "count"},
    {"layout.anchors_ms", "ms"},
    {"core.load_ms", "ms"},
    {"core.fingerprint_ms", "ms"},
    {"core.screen_pass_ratio", "ratio"},
    {"core.flag_ratio", "ratio"},
    {"core.removal_keep_ratio", "ratio"},
    {"core.rank_ms", "ms"},
    {"svm.pair_ns", "ns"},
    {"svm.pairs_per_clip", "count"},
    {"engine.screen_us_per_item", "us"},
    {"engine.features_us_per_item", "us"},
    {"engine.svm_us_per_item", "us"},
    {"engine.feedback_us_per_item", "us"},
    {"engine.removal_ms", "ms"},
    {"engine.unstaged_ms", "ms"},
    {"engine.cache_hit_ratio", "ratio"},
    {"engine.cache_evictions", "count"},
    {"engine.tiles_per_request", "count"},
    {"engine.tile_prepare_ms", "ms"},
    {"engine.tile_eval_ms", "ms"},
    {"engine.tile_merge_ms", "ms"},
    {"serve.queue_ms", "ms"},
    {"serve.run_ms", "ms"},
    {"serve.refused_ratio", "ratio"},
    {"net.overhead_ms", "ms"},
    {"par.cpu_util", "ratio"},
    {"obs.trace_overhead_ratio", "ratio"},
};

}  // namespace

RunResult runWorkload(const Options& opt) {
  Run run(opt);
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d "
              "nproc=%zu\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0,
              run.nproc);
  if (opt.workload == "batch-large") {
    batchLarge(run);
  } else if (opt.workload == "wire-tiled-cold") {
    wireTiledCold(run);
  } else {
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  }
  RunResult out;
  if (opt.trace) finishTrace(run);
  out.attempted = run.attempted.load();
  out.failed = run.failed.load();
  run.e2e["ok_ratio"] =
      ratio(double(out.attempted - out.failed), double(out.attempted));
  run.e2e["peak_rss_mb"] = peakRssMb();

  // Every metric of the table must have been measured, as a finite number;
  // a time that could not be measured reads 0 and fails the check too.
  const auto emit = [&](const auto& table,
                        const std::map<std::string, double>& values) {
    for (const MetricSpec& m : table) {
      const auto it = values.find(m.name);
      const bool measured = it != values.end() && std::isfinite(it->second);
      const bool isTime = std::string_view(m.unit) == "ms" ||
                          std::string_view(m.unit) == "s" ||
                          std::string_view(m.unit) == "ns" ||
                          std::string_view(m.unit) == "us" ||
                          std::string_view(m.unit) == "us/KB";
      if (!measured || (isTime && it->second <= 0.0)) {
        std::printf("  missing metric: %s\n", m.name);
        out.correct = false;
      }
      out.metrics.push_back({m.name, measured ? it->second : 0.0, m.unit});
    }
  };
  if (opt.trace) {
    emit(kPerLayer, run.layer);
  } else {
    emit(kEndToEnd, run.e2e);
  }
  if (out.failed != 0) out.correct = false;
  std::printf("  operations: %zu attempted, %zu failed\n", out.attempted,
              out.failed);
  return out;
}

}  // namespace perfbench
