// Microbenchmarks (google-benchmark) of the framework's inner loops:
// string encoding, canonical keys and orientation, MTCG construction
// (core- and full-clip-size),
// feature extraction (rule rects and the non-topological scalars),
// density distance, SMO training, oracle simulation, clip extraction,
// model load (Detector::load of a saved detector), tracing-span
// overhead (disabled vs enabled), and the hot-kernel pairs (scalar
// oracle vs dispatched SIMD path).
//
// `--json-out BENCH_hotpath.json` switches to a hand-timed mode that
// measures each scalar/dispatched kernel pair, plus per-clip vs
// kernel-major scoring on a 160-kernel detector (`svm_batch`), scoring
// every row vs each distinct row once on a duplicate-heavy batch
// (`svm_dedup`), and emits
// one machine-readable trajectory file (speedups stamped with git
// describe) — the artifact bench/run_benches.sh collects.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <random>
#include <span>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "core/classify.hpp"
#include "core/extract.hpp"
#include "core/features.hpp"
#include "core/mtcg.hpp"
#include "core/scorer.hpp"
#include "core/topo_string.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "engine/arena.hpp"
#include "engine/stats.hpp"
#include "geom/density_grid.hpp"
#include "geom/rectset.hpp"
#include "geom/simd.hpp"
#include "litho/litho.hpp"
#include "obs/trace.hpp"
#include "svm/kernel_ops.hpp"
#include "svm/svm.hpp"

namespace {

using namespace hsd;

core::CorePattern samplePattern(int rects) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<Coord> c(0, 1000);
  core::CorePattern p;
  p.w = p.h = 1200;
  for (int i = 0; i < rects; ++i) {
    const Coord x = c(rng), y = c(rng);
    p.rects.push_back({x, y, x + 80 + c(rng) % 150, y + 80 + c(rng) % 150});
  }
  return p;
}

void BM_EncodeStrings(benchmark::State& state) {
  const core::CorePattern p = samplePattern(int(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(core::encodeStrings(p));
}
BENCHMARK(BM_EncodeStrings)->Arg(4)->Arg(8)->Arg(16);

void BM_CanonicalTopoKey(benchmark::State& state) {
  const core::CorePattern p = samplePattern(int(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(core::canonicalTopoKey(p));
}
BENCHMARK(BM_CanonicalTopoKey)->Arg(4)->Arg(8);

// A w x w window holding `rects` random rects clipped to it: Args
// {1200, 4} is a core, {4800, 12} a full clip (feedback features).
core::CorePattern windowPattern(Coord w, int rects) {
  std::mt19937 rng(17);
  std::uniform_int_distribution<Coord> c(0, w);
  std::uniform_int_distribution<Coord> d(60, w / 4);
  std::vector<Rect> raw;
  for (int i = 0; i < rects; ++i) {
    const Coord x = c(rng), y = c(rng);
    raw.push_back({x, y, x + d(rng), y + d(rng)});
  }
  core::CorePattern p;
  p.w = p.h = w;
  p.rects = clipRects(raw, p.window());
  return p;
}

void BM_CanonicalOrient(benchmark::State& state) {
  const core::CorePattern p =
      windowPattern(Coord(state.range(0)), int(state.range(1)));
  for (auto _ : state)
    benchmark::DoNotOptimize(core::canonicalOrient(p));
}
BENCHMARK(BM_CanonicalOrient)->Args({1200, 4})->Args({4800, 12});

void BM_NonTopo(benchmark::State& state) {
  const core::CorePattern p =
      windowPattern(Coord(state.range(0)), int(state.range(1)));
  for (auto _ : state) benchmark::DoNotOptimize(core::extractNonTopo(p));
}
BENCHMARK(BM_NonTopo)->Args({1200, 4})->Args({4800, 12});

void BM_BuildCh(benchmark::State& state) {
  const core::CorePattern p = samplePattern(int(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(core::buildCh(p));
}
BENCHMARK(BM_BuildCh)->Arg(4)->Arg(8)->Arg(16);

// Full-clip-size MTCGs: a 4.8 um window with 12 rects.
void BM_BuildChFullClip(benchmark::State& state) {
  const core::CorePattern p = windowPattern(4800, 12);
  for (auto _ : state) benchmark::DoNotOptimize(core::buildCh(p));
}
BENCHMARK(BM_BuildChFullClip);

void BM_BuildCv(benchmark::State& state) {
  const core::CorePattern p = windowPattern(4800, 12);
  for (auto _ : state) benchmark::DoNotOptimize(core::buildCv(p));
}
BENCHMARK(BM_BuildCv);

void BM_FeatureVector(benchmark::State& state) {
  const core::CorePattern p = samplePattern(int(state.range(0)));
  const core::FeatureParams fp;
  for (auto _ : state)
    benchmark::DoNotOptimize(core::buildFeatureVector(p, fp));
}
BENCHMARK(BM_FeatureVector)->Arg(4)->Arg(8)->Arg(16);

// The feedback kernel's full-clip vector: 4.8 um window, 12 rects, with
// the 8 x 8 density grid appended.
void BM_FeatureVectorFullClip(benchmark::State& state) {
  const core::CorePattern p = windowPattern(4800, 12);
  const core::FeatureParams fp{.densityGridN = 8};
  for (auto _ : state)
    benchmark::DoNotOptimize(core::buildFeatureVector(p, fp));
}
BENCHMARK(BM_FeatureVectorFullClip);

void BM_DensityDistance(benchmark::State& state) {
  const core::CorePattern a = samplePattern(6);
  const core::CorePattern b = samplePattern(9);
  const DensityGrid ga(a.rects, a.window(), 12, 12);
  const DensityGrid gb(b.rects, b.window(), 12, 12);
  for (auto _ : state) benchmark::DoNotOptimize(ga.distance(gb));
}
BENCHMARK(BM_DensityDistance);

void BM_SmoTrain(benchmark::State& state) {
  std::mt19937 rng(9);
  std::normal_distribution<double> n(0.0, 1.0);
  svm::Dataset d;
  const int half = int(state.range(0)) / 2;
  for (int i = 0; i < half; ++i) {
    d.add({n(rng) - 1.2, n(rng), n(rng)}, -1);
    d.add({n(rng) + 1.2, n(rng), n(rng)}, 1);
  }
  svm::SvmParams p;
  p.C = 10;
  p.gamma = 0.5;
  for (auto _ : state) benchmark::DoNotOptimize(svm::train(d, p));
}
BENCHMARK(BM_SmoTrain)->Arg(50)->Arg(200)->Arg(600);

void BM_LithoCheck(benchmark::State& state) {
  const litho::LithoSimulator sim;
  const ClipParams cp;
  const ClipWindow win = ClipWindow::atCore({1800, 1800}, cp);
  data::GeneratorParams gp;
  data::Rng rng(3);
  const auto rects =
      data::makeMotif(data::MotifKind::kDenseLines, data::Risk::kRisky,
                      data::AmbitStyle::kDense, gp.dims, gp.clip, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(sim.check(rects, win.core, win.clip));
}
BENCHMARK(BM_LithoCheck);

void BM_ClipExtraction(benchmark::State& state) {
  data::GeneratorParams gp;
  gp.seed = 21;
  const auto test =
      data::generateTestLayout(gp, state.range(0), state.range(0), 10, 0.5);
  const core::ExtractParams p;
  engine::RunContext ctx(1);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        core::extractCandidateClips(test.layout, 1, p, ctx));
}
BENCHMARK(BM_ClipExtraction)->Arg(20000)->Arg(40000)->Unit(benchmark::kMillisecond);

// The disabled-span path is what every instrumentation site pays when no
// tracer is attached: it must stay at a branch or two, no clock read.
void BM_SpanDisabled(benchmark::State& state) {
  for (auto _ : state) {
    obs::Span span(nullptr, "bench/span", "bench");
    span.arg("i", 1);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  obs::TraceRecorder rec;
  for (auto _ : state) {
    obs::Span span(&rec, "bench/span", "bench");
    span.arg("i", 1);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanEnabled);

// The stage loop as the pipeline drives it — EngineStats recording plus
// (Arg(1)) a span per batch. Arg(0) vs Arg(1) is the per-batch cost of
// attaching a TraceRecorder to a RunContext.
void BM_StageTimer(benchmark::State& state) {
  engine::EngineStats stats;
  obs::TraceRecorder rec;
  obs::TraceRecorder* const tracer = state.range(0) != 0 ? &rec : nullptr;
  for (auto _ : state) {
    engine::StageTimer t(stats, "bench/stage", 32, tracer);
    benchmark::DoNotOptimize(&t);
  }
}
BENCHMARK(BM_StageTimer)->Arg(0)->Arg(1);

void BM_Classify(benchmark::State& state) {
  std::vector<core::CorePattern> pats;
  std::mt19937 rng(4);
  for (int i = 0; i < state.range(0); ++i)
    pats.push_back(samplePattern(3 + i % 5));
  const core::ClassifyParams cp;
  for (auto _ : state)
    benchmark::DoNotOptimize(core::classifyPatterns(pats, cp));
}
BENCHMARK(BM_Classify)->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);

// Model load: a detector trained once on an ICCAD-2012-like suite entry
// (0 = benchmark1, ~1.4 MB of model text; 2 = benchmark3, ~4.4 MB) and
// saved, then Detector::load from an istringstream of that text — the
// set-up cost hsd_detect and hsd_serve pay per model.
const std::string& savedDetector(std::size_t suiteIndex) {
  static std::map<std::size_t, std::string> texts;
  std::string& text = texts[suiteIndex];
  if (text.empty()) {
    const data::BenchmarkSpec spec = data::iccad2012LikeSuite()[suiteIndex];
    data::GeneratorParams gp;
    gp.dims = spec.node32 ? data::ProcessDims::node32()
                          : data::ProcessDims::node28();
    gp.seed = spec.seed;
    const gds::ClipSet clips =
        data::generateTrainingSet(gp, spec.targets, spec.name);
    core::TrainParams tp;
    tp.clip = clips.params;
    engine::RunContext ctx(0);
    std::ostringstream os;
    core::trainDetector(clips.clips, tp, ctx).save(os);
    text = os.str();
  }
  return text;
}

void BM_DetectorLoad(benchmark::State& state) {
  const std::string& text = savedDetector(std::size_t(state.range(0)));
  for (auto _ : state) {
    std::istringstream is(text);
    benchmark::DoNotOptimize(core::Detector::load(is));
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(text.size()));
}
BENCHMARK(BM_DetectorLoad)->Arg(0)->Arg(2)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------------
// PR-8 hot-kernel pairs: each dispatched kernel against the scalar path it
// replaced. The pairs also back the --json-out hand-timed mode below.

// Line-heavy clip: long wires spanning the window plus scattered
// contacts — the geometry mix real layout clips rasterize (samplePattern's
// small squares model only the contact part).
core::CorePattern linePattern(int lines, int contacts) {
  std::mt19937 rng(11);
  std::uniform_int_distribution<Coord> c(0, 1000);
  core::CorePattern p;
  p.w = p.h = 1200;
  for (int i = 0; i < lines; ++i) {
    const Coord y = Coord(i) * Coord(1100 / std::max(1, lines));
    p.rects.push_back({20, y, 1180, y + 60});
  }
  for (int i = 0; i < contacts; ++i) {
    const Coord x = c(rng), y = c(rng);
    p.rects.push_back({x, y, x + 90, y + 90});
  }
  return p;
}

svm::Dataset kernelDataset(std::size_t n, std::size_t dim) {
  std::mt19937 rng(17);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  svm::Dataset d;
  for (std::size_t i = 0; i < n; ++i) {
    svm::FeatureVector v(dim);
    for (double& x : v) x = u(rng);
    d.add(std::move(v), i % 2 ? 1 : -1);
  }
  return d;
}

// The pre-PR QMatrix inner loop: one naive dot product per stored vector.
void naiveDotRow(const std::vector<svm::FeatureVector>& xs,
                 const svm::FeatureVector& x, double* out) {
  for (std::size_t j = 0; j < xs.size(); ++j) {
    double dot = 0;
    for (std::size_t k = 0; k < x.size(); ++k) dot += xs[j][k] * x[k];
    out[j] = dot;
  }
}

void BM_DensityRasterReference(benchmark::State& state) {
  const core::CorePattern p =
      linePattern(int(state.range(0)), int(state.range(0)) * 2);
  std::vector<double> vals(16 * 16);
  for (auto _ : state) {
    rasterizeDensityReference(p.rects, p.window(), 16, 16, vals.data());
    benchmark::DoNotOptimize(vals.data());
  }
}
BENCHMARK(BM_DensityRasterReference)->Arg(4)->Arg(12);

void BM_DensityRasterDispatched(benchmark::State& state) {
  const core::CorePattern p =
      linePattern(int(state.range(0)), int(state.range(0)) * 2);
  std::vector<double> vals(16 * 16);
  for (auto _ : state) {
    rasterizeDensity(p.rects, p.window(), 16, 16, vals.data());
    benchmark::DoNotOptimize(vals.data());
  }
}
BENCHMARK(BM_DensityRasterDispatched)->Arg(4)->Arg(12);

void BM_KernelRowNaive(benchmark::State& state) {
  const svm::Dataset d = kernelDataset(std::size_t(state.range(0)), 24);
  std::vector<double> out(d.size());
  for (auto _ : state) {
    naiveDotRow(d.x, d.x[0], out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_KernelRowNaive)->Arg(600);

void BM_KernelRowPacked(benchmark::State& state) {
  const svm::Dataset d = kernelDataset(std::size_t(state.range(0)), 24);
  const svm::ops::PackedVectors packed(d.x);
  std::vector<double> out(d.size());
  for (auto _ : state) {
    svm::ops::dotProducts(packed, d.x[0].data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_KernelRowPacked)->Arg(600);

void BM_DecisionNaive(benchmark::State& state) {
  const svm::Dataset d = kernelDataset(std::size_t(state.range(0)), 40);
  std::vector<double> coef(d.size(), 0.25);
  for (auto _ : state) {
    double s = 0;
    for (std::size_t i = 0; i < d.size(); ++i)
      s += coef[i] * svm::rbfKernel(d.x[i], d.x[0], 0.5);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_DecisionNaive)->Arg(150);

void BM_DecisionPacked(benchmark::State& state) {
  const svm::Dataset d = kernelDataset(std::size_t(state.range(0)), 40);
  const svm::SvmModel model(std::vector<svm::FeatureVector>(d.x),
                            std::vector<double>(d.size(), 0.25), 0.0, 0.5);
  for (auto _ : state)
    benchmark::DoNotOptimize(model.decisionFrom(
        std::span<const double>(d.x[0].data(), d.x[0].size())));
}
BENCHMARK(BM_DecisionPacked)->Arg(150);

// --------------------------------------------------------------------------
// Hand-timed --json-out mode: BENCH_hotpath.json for bench/run_benches.sh.

/// Best-of-`reps` wall time of `iters` calls to `fn`, in ns per call.
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

struct KernelTiming {
  const char* name;
  double scalarNs;
  double dispatchedNs;
  /// JSON keys of the two sides (svm_batch compares two loop orders of
  /// the dispatched kernels, not scalar vs dispatched).
  const char* scalarKey = "scalar_ns";
  const char* dispatchedKey = "dispatched_ns";
  double speedup() const {
    return dispatchedNs > 0 ? scalarNs / dispatchedNs : 0.0;
  }
};

/// A detector-shaped kernel set: 160 kernels over 125-dim features with
/// 3..21 SVs each (mean ~9, the benchmark3 model's shape). Coefficients
/// are negative, so no clip ever flags and every clip walks every kernel
/// — the unflagged majority's cost.
std::vector<core::KernelEntry> syntheticKernels() {
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<core::KernelEntry> kernels(160);
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    const std::size_t nsv = 3 + (k * 7) % 19;
    std::vector<svm::FeatureVector> sv(nsv, svm::FeatureVector(125));
    for (auto& v : sv)
      for (double& e : v) e = u(rng);
    kernels[k].scaler.fit(sv);
    kernels[k].model = svm::SvmModel(std::move(sv),
                                     std::vector<double>(nsv, -0.5), 0.1, 0.02);
  }
  return kernels;
}

int runJsonMode(const char* path) {
  std::vector<KernelTiming> timings;
  constexpr int kReps = 15;

  {
    // Density rasterizer: the paper's density feature on a realistic clip
    // (12 window-spanning lines + 24 contacts, 16x16 grid — the shape
    // core::buildFeatureVector drives).
    const core::CorePattern p = linePattern(12, 24);
    std::vector<double> vals(16 * 16);
    const double ref = bestNsPerCall(
        [&] {
          rasterizeDensityReference(p.rects, p.window(), 16, 16, vals.data());
          benchmark::DoNotOptimize(vals.data());
        },
        kReps, 2000);
    const double opt = bestNsPerCall(
        [&] {
          rasterizeDensity(p.rects, p.window(), 16, 16, vals.data());
          benchmark::DoNotOptimize(vals.data());
        },
        kReps, 2000);
    timings.push_back({"density_raster", ref, opt});
  }
  {
    // Kernel row: one QMatrix row against 600 stored vectors (dim 24) —
    // the SMO inner loop, naive per-vector dots vs the packed kernel.
    const svm::Dataset d = kernelDataset(600, 24);
    const svm::ops::PackedVectors packed(d.x);
    std::vector<double> out(d.size());
    const double ref = bestNsPerCall(
        [&] {
          naiveDotRow(d.x, d.x[0], out.data());
          benchmark::DoNotOptimize(out.data());
        },
        kReps, 2000);
    const double opt = bestNsPerCall(
        [&] {
          svm::ops::dotProducts(packed, d.x[0].data(), out.data());
          benchmark::DoNotOptimize(out.data());
        },
        kReps, 2000);
    timings.push_back({"kernel_row", ref, opt});
  }
  {
    // Decision function: 150 SVs, dim 40 — serving's per-clip dot.
    const svm::Dataset d = kernelDataset(150, 40);
    const std::vector<double> coef(d.size(), 0.25);
    const svm::SvmModel model(std::vector<svm::FeatureVector>(d.x),
                              std::vector<double>(coef), 0.0, 0.5);
    const std::span<const double> x(d.x[0].data(), d.x[0].size());
    const double ref = bestNsPerCall(
        [&] {
          double s = 0;
          for (std::size_t i = 0; i < d.size(); ++i)
            s += coef[i] * svm::rbfKernel(d.x[i], d.x[0], 0.5);
          benchmark::DoNotOptimize(s);
        },
        kReps, 2000);
    const double opt = bestNsPerCall(
        [&] { benchmark::DoNotOptimize(model.decisionFrom(x)); }, kReps, 2000);
    timings.push_back({"svm_decision", ref, opt});
  }

  {
    // Scoring order: 256 clips x 160 kernels, per-clip (scale + decide
    // one pair at a time, the pre-batching evaluator loop) vs kernel-major
    // (core::scoreKernels over 32-clip chunks). ns per clip, one thread.
    const std::vector<core::KernelEntry> kernels = syntheticKernels();
    std::mt19937 rng(12);
    std::uniform_real_distribution<double> u(-0.1, 1.1);
    std::vector<svm::FeatureVector> feats(256, svm::FeatureVector(125));
    for (auto& f : feats)
      for (double& e : f) e = u(rng);
    std::vector<const svm::FeatureVector*> rows;
    for (const auto& f : feats) rows.push_back(&f);
    std::vector<core::KernelScore> scores(rows.size());
    const double perClip = bestNsPerCall(
        [&] {
          for (const svm::FeatureVector& f : feats) {
            engine::ArenaScope scope(engine::threadScratch());
            const std::span<double> x = scope.arena().allocSpan<double>(125);
            for (const core::KernelEntry& k : kernels) {
              k.scaler.transformInto(f, x.data());
              if (k.model.decisionFrom(x) > 0.0) break;
            }
          }
        },
        5, 3);
    const double batched = bestNsPerCall(
        [&] {
          for (std::size_t c = 0; c < rows.size(); c += core::kScoreChunk)
            core::scoreKernels(
                kernels, std::span(rows).subspan(c, core::kScoreChunk),
                core::ScoreMode::kFirstFlag, 0.0,
                std::span(scores).subspan(c, core::kScoreChunk));
          benchmark::DoNotOptimize(scores.data());
        },
        5, 3);
    timings.push_back({"svm_batch", perClip / double(feats.size()),
                       batched / double(feats.size()), "per_clip_ns",
                       "batch_ns"});
  }
  {
    // Repeated patterns: 512 rows of which 45 % are distinct (a batch-large
    // pipeline batch), duplicates stored as separate equal vectors. Every
    // row scored in 32-row chunks (the pooled scorer before it deduped) vs
    // the pooled core::scoreKernels, which scores each distinct row once.
    // ns per input row, one thread.
    const std::vector<core::KernelEntry> kernels = syntheticKernels();
    std::mt19937 rng(13);
    std::uniform_real_distribution<double> u(-0.1, 1.1);
    constexpr std::size_t kRows = 512, kDistinct = kRows * 45 / 100;
    std::vector<svm::FeatureVector> feats(kRows, svm::FeatureVector(125));
    for (std::size_t i = 0; i < kDistinct; ++i)
      for (double& e : feats[i]) e = u(rng);
    for (std::size_t i = kDistinct; i < kRows; ++i)
      feats[i] = feats[rng() % kDistinct];
    std::shuffle(feats.begin(), feats.end(), rng);
    std::vector<const svm::FeatureVector*> rows;
    for (const auto& f : feats) rows.push_back(&f);
    std::vector<core::KernelScore> scores(rows.size());
    const double everyRow = bestNsPerCall(
        [&] {
          for (std::size_t c = 0; c < rows.size(); c += core::kScoreChunk)
            core::scoreKernels(
                kernels, std::span(rows).subspan(c, core::kScoreChunk),
                core::ScoreMode::kFirstFlag, 0.0,
                std::span(scores).subspan(c, core::kScoreChunk));
          benchmark::DoNotOptimize(scores.data());
        },
        5, 2);
    engine::RunContext ctx(1);
    const double distinctOnce = bestNsPerCall(
        [&] {
          benchmark::DoNotOptimize(core::scoreKernels(
              ctx, kernels, rows, core::ScoreMode::kFirstFlag));
        },
        5, 2);
    timings.push_back({"svm_dedup", everyRow / double(kRows),
                       distinctOnce / double(kRows), "every_row_ns",
                       "distinct_once_ns"});
  }

  obs::JsonWriter json = bench::benchJson("hotpath");
  json.field("simd", simd::toString(simd::activeLevel()));
  json.key("kernels").beginArray(true);
  for (const KernelTiming& t : timings) {
    json.beginObject().field("name", t.name).field(t.scalarKey, t.scalarNs);
    json.field(t.dispatchedKey, t.dispatchedNs);
    json.field("speedup", t.speedup()).endObject();
    std::printf("%-16s %s %9.1f  %s %9.1f  speedup %.2fx\n", t.name,
                t.scalarKey, t.scalarNs, t.dispatchedKey, t.dispatchedNs,
                t.speedup());
  }
  json.endArray().endObject();
  return bench::writeJsonFile(path, json.str()) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (const char* out =
          hsd::bench::argString(argc, argv, "--json-out", nullptr))
    return runJsonMode(out);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
