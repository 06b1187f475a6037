// Hot-path mechanical-sympathy tests (ctest label: hotpath). Pins the
// PR-8 contracts:
//  - SIMD byte-identity: the dispatched density rasterizer and SVM kernel
//    primitives produce bit-for-bit the scalar oracles' outputs on
//    randomized inputs (every window shape, ragged pack blocks, all eight
//    orientations of the rect sets) — vectorization must never
//    reassociate a reduction;
//  - SvmModel::decisionFrom equals the naive per-SV rbfKernel loop it
//    replaced, exactly, and rbfKernel/Scaler reject dimension mismatches
//    with the same error contract;
//  - the kernel-major batch primitives (squaredDistancesBatch,
//    Scaler::transformBatch, SvmModel::decisionBatch) equal their
//    one-query oracles per row, bit for bit, on ragged sizes and on
//    NaN/±0/out-of-range/constant-feature scaler inputs;
//  - the per-clip Arena: alignment, scope rewind, reset-keeps-capacity,
//    and zero steady-state heap allocations through the arena-backed
//    scale→decide and rasterize paths (global operator-new counter, the
//    test_obs.cpp harness);
//  - StageCache sharding: serving-scale capacity shards (approximate
//    global capacity still exact), small capacity stays one shard so LRU
//    order is globally exact;
//  - cache-line layout: CachePadded and the aligned obs counters.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <random>
#include <vector>

#include "core/scorer.hpp"
#include "engine/arena.hpp"
#include "engine/cache.hpp"
#include "geom/density_grid.hpp"
#include "geom/orientation.hpp"
#include "geom/simd.hpp"
#include "obs/metrics.hpp"
#include "par/cacheline.hpp"
#include "svm/kernel_ops.hpp"
#include "svm/scaler.hpp"
#include "svm/svm.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator new in this binary bumps it.
// Used to pin the zero-steady-state-allocation guarantee of the arena
// paths.
namespace {
std::atomic<std::uint64_t> g_allocCount{0};
}  // namespace

// GCC pairs these replacement operators with the default ones and flags
// the malloc/free backing as mismatched; the pairing is consistent here
// (both sides are replaced), so silence that one diagnostic.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace hsd {
namespace {

// ---------------------------------------------------------------------------
// Density rasterizer: dispatched == reference, bit for bit.

std::vector<Rect> randomRects(std::mt19937& rng, const Rect& window,
                              std::size_t n) {
  std::uniform_int_distribution<Coord> dx(window.lo.x - 50, window.hi.x + 50);
  std::uniform_int_distribution<Coord> dy(window.lo.y - 50, window.hi.y + 50);
  std::vector<Rect> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.emplace_back(dx(rng), dy(rng), dx(rng), dy(rng));  // some degenerate,
  return out;  // some outside the window — the rasterizer must skip both
}

std::vector<Rect> orientRects(const std::vector<Rect>& rects, Orient o,
                              Coord w, Coord h) {
  std::vector<Rect> out;
  out.reserve(rects.size());
  for (const Rect& r : rects) {
    const Point a = apply(o, r.lo, w, h);
    const Point b = apply(o, r.hi, w, h);
    out.emplace_back(a.x, a.y, b.x, b.y);  // ctor normalizes corners
  }
  return out;
}

TEST(DensityRaster, DispatchedMatchesReferenceRandomized) {
  std::mt19937 rng(12345u);
  const std::size_t grids[] = {1, 3, 4, 5, 7, 8, 13, 16};
  for (int trial = 0; trial < 40; ++trial) {
    const Coord w = 40 + Coord(rng() % 400);
    const Coord h = 40 + Coord(rng() % 400);
    const Rect window(0, 0, w, h);
    const std::vector<Rect> rects =
        randomRects(rng, window, 1 + rng() % 30);
    const std::size_t nx = grids[rng() % 8];
    const std::size_t ny = grids[rng() % 8];
    std::vector<double> got(nx * ny), want(nx * ny);
    rasterizeDensity(rects, window, nx, ny, got.data());
    rasterizeDensityReference(rects, window, nx, ny, want.data());
    ASSERT_EQ(std::memcmp(got.data(), want.data(), nx * ny * sizeof(double)),
              0)
        << "trial " << trial << " nx=" << nx << " ny=" << ny
        << " simd=" << simd::toString(simd::activeLevel());
  }
}

TEST(DensityRaster, AllOrientationsMatchReference) {
  std::mt19937 rng(777u);
  const Coord w = 200, h = 120;
  const Rect window(0, 0, w, h);
  const std::vector<Rect> base = randomRects(rng, window, 25);
  for (const Orient o : kAllOrients) {
    const Coord ow = swapsAxes(o) ? h : w;
    const Coord oh = swapsAxes(o) ? w : h;
    const Rect owin(0, 0, ow, oh);
    const std::vector<Rect> rects = orientRects(base, o, w, h);
    const std::size_t nx = 11, ny = 6;  // odd/non-multiple-of-4 on purpose
    std::vector<double> got(nx * ny), want(nx * ny);
    rasterizeDensity(rects, owin, nx, ny, got.data());
    rasterizeDensityReference(rects, owin, nx, ny, want.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), nx * ny * sizeof(double)),
              0)
        << "orient " << toString(o);
  }
}

TEST(DensityRaster, GridCtorMatchesFreeFunction) {
  std::mt19937 rng(31u);
  const Rect window(-30, -20, 170, 140);
  const std::vector<Rect> rects = randomRects(rng, window, 20);
  const DensityGrid g(rects, window, 9, 9);
  std::vector<double> want(81);
  rasterizeDensityReference(rects, window, 9, 9, want.data());
  EXPECT_EQ(std::memcmp(g.values().data(), want.data(), 81 * sizeof(double)),
            0);
}

TEST(DensityRaster, DegenerateDims) {
  const std::vector<Rect> rects = {{0, 0, 10, 10}};
  std::vector<double> buf(4, 42.0);
  rasterizeDensity(rects, Rect(0, 0, 0, 0), 2, 2, buf.data());  // empty window
  for (const double v : buf) EXPECT_EQ(v, 0.0);
}

// ---------------------------------------------------------------------------
// Packed kernel primitives: dispatched == scalar oracle == naive loop.

TEST(KernelOps, PackedMatchesScalarAndNaive) {
  std::mt19937 rng(99u);
  std::uniform_real_distribution<double> u(-3.0, 3.0);
  for (const std::size_t count : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 33u}) {
    for (const std::size_t dim : {1u, 2u, 5u, 16u, 17u}) {
      std::vector<hsd::svm::FeatureVector> vs(count,
                                              hsd::svm::FeatureVector(dim));
      hsd::svm::FeatureVector x(dim);
      for (auto& v : vs)
        for (double& e : v) e = u(rng);
      for (double& e : x) e = u(rng);
      const hsd::svm::ops::PackedVectors packed(vs);
      EXPECT_EQ(packed.count(), count);
      EXPECT_EQ(packed.dim(), dim);

      std::vector<double> dotD(count), dotS(count), d2D(count), d2S(count);
      hsd::svm::ops::dotProducts(packed, x.data(), dotD.data());
      hsd::svm::ops::dotProductsScalar(packed, x.data(), dotS.data());
      hsd::svm::ops::squaredDistances(packed, x.data(), d2D.data());
      hsd::svm::ops::squaredDistancesScalar(packed, x.data(), d2S.data());
      for (std::size_t j = 0; j < count; ++j) {
        // The naive sequential reductions every pre-PR loop performed.
        double dot = 0, d2 = 0;
        for (std::size_t k = 0; k < dim; ++k) {
          dot += vs[j][k] * x[k];
          const double d = vs[j][k] - x[k];
          d2 += d * d;
        }
        EXPECT_EQ(dotD[j], dotS[j]) << "dispatched vs oracle, j=" << j;
        EXPECT_EQ(d2D[j], d2S[j]) << "dispatched vs oracle, j=" << j;
        EXPECT_EQ(dotS[j], dot) << "oracle vs naive, j=" << j;
        EXPECT_EQ(d2S[j], d2) << "oracle vs naive, j=" << j;
      }
    }
  }
}

TEST(KernelOps, RaggedBlockLanesZeroFilled) {
  const std::vector<hsd::svm::FeatureVector> vs = {{1.0, 2.0}, {3.0, 4.0},
                                                   {5.0, 6.0}};
  const hsd::svm::ops::PackedVectors packed(vs);
  ASSERT_EQ(packed.blockCount(), 1u);
  const double* blk = packed.block(0);
  EXPECT_EQ(blk[3], 0.0);  // lane 3 of component 0
  EXPECT_EQ(blk[7], 0.0);  // lane 3 of component 1
}

TEST(KernelOps, InconsistentDimensionThrows) {
  const std::vector<hsd::svm::FeatureVector> vs = {{1.0, 2.0}, {3.0}};
  EXPECT_THROW(hsd::svm::ops::PackedVectors{vs}, std::invalid_argument);
}

TEST(SvmDecision, DecisionFromMatchesNaiveRbfLoopExactly) {
  std::mt19937 rng(4242u);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  const std::size_t nsv = 19, dim = 7;
  std::vector<hsd::svm::FeatureVector> sv(nsv, hsd::svm::FeatureVector(dim));
  std::vector<double> coef(nsv);
  for (auto& v : sv)
    for (double& e : v) e = u(rng);
  for (double& c : coef) c = u(rng);
  const double rho = 0.37, gamma = 0.8;
  const hsd::svm::SvmModel model(sv, coef, rho, gamma);

  for (int trial = 0; trial < 25; ++trial) {
    hsd::svm::FeatureVector x(dim);
    for (double& e : x) e = u(rng);
    // The pre-PR decision(): a naive per-SV rbfKernel sum.
    double s = 0;
    for (std::size_t i = 0; i < nsv; ++i)
      s += coef[i] * hsd::svm::rbfKernel(sv[i], x, gamma);
    EXPECT_EQ(model.decision(x), s - rho);
    EXPECT_EQ(model.decisionFrom({x.data(), x.size()}), s - rho);
  }
}

TEST(SvmDecision, DimensionMismatchErrorContract) {
  EXPECT_THROW(hsd::svm::rbfKernel({1.0, 2.0}, {1.0}, 0.5),
               std::invalid_argument);
  const hsd::svm::SvmModel model({{1.0, 2.0}}, {0.5}, 0.0, 0.5);
  EXPECT_THROW(model.decision({1.0}), std::invalid_argument);
  hsd::svm::Scaler sc;
  sc.fit({{0.0, 0.0}, {1.0, 2.0}});
  EXPECT_THROW(sc.transform({1.0}), std::invalid_argument);
  double out[2];
  EXPECT_THROW(sc.transformInto({1.0}, out), std::invalid_argument);
  sc.transformInto({0.5, 1.0}, out);
  EXPECT_EQ(out[0], 0.5);
  EXPECT_EQ(out[1], 0.5);
}

// ---------------------------------------------------------------------------
// Kernel-major batch primitives: every query row equals the one-query
// scalar oracle bit for bit. The hotpath_scalar_oracles ctest entry
// reruns these under HSD_SIMD=scalar, so both dispatch levels are pinned.

bool sameBits(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

TEST(KernelOpsBatch, EveryQueryRowMatchesTheScalarOracle) {
  if (const char* env = std::getenv("HSD_SIMD"); env && env[0] == 's') {
    EXPECT_EQ(simd::activeLevel(), simd::Level::kScalar);
  }
  std::mt19937 rng(2026u);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  for (const std::size_t count : {1u, 3u, 4u, 5u, 21u}) {
    for (const std::size_t dim : {1u, 3u, 125u}) {
      std::vector<svm::FeatureVector> vs(count, svm::FeatureVector(dim));
      for (auto& v : vs)
        for (double& e : v) e = u(rng);
      const svm::ops::PackedVectors packed(vs);
      for (std::size_t nq = 1; nq <= 9; ++nq) {
        std::vector<double> xs(nq * dim);
        for (double& e : xs) e = u(rng);
        // Pre-fill with a sentinel: the kernel must write every cell of
        // each row (ragged final blocks included), nothing beyond.
        std::vector<double> got(nq * count + 1, 42.0);
        svm::ops::squaredDistancesBatch(packed, xs.data(), nq, got.data());
        EXPECT_EQ(got.back(), 42.0) << "wrote past the last row";
        std::vector<double> want(count);
        for (std::size_t q = 0; q < nq; ++q) {
          svm::ops::squaredDistancesScalar(packed, xs.data() + q * dim,
                                           want.data());
          EXPECT_TRUE(sameBits(got.data() + q * count, want.data(), count))
              << "count=" << count << " dim=" << dim << " nq=" << nq
              << " q=" << q
              << " simd=" << simd::toString(simd::activeLevel());
          // The one-query entry point is the same kernel.
          std::vector<double> one(count);
          svm::ops::squaredDistances(packed, xs.data() + q * dim, one.data());
          EXPECT_TRUE(sameBits(one.data(), want.data(), count));
        }
      }
    }
  }
}

TEST(ScalerBatch, MatchesTransformIntoOnEdgeCases) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::mt19937 rng(7u);
  std::uniform_real_distribution<double> u(-3.0, 3.0);
  const double specials[] = {nan, 0.0, -0.0, inf, -inf, -5.0, 5.0, 1e300};
  for (const std::size_t dim : {1u, 3u, 4u, 5u, 125u}) {
    // Ranges cycle through normal, constant (range 0), inverted, NaN and
    // signed-zero bounds.
    std::vector<double> lo(dim), hi(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      switch (i % 6) {
        case 0: lo[i] = -1.0; hi[i] = 2.0; break;
        case 1: lo[i] = 0.5; hi[i] = 0.5; break;
        case 2: lo[i] = 3.0; hi[i] = 1.0; break;
        case 3: lo[i] = nan; hi[i] = 1.0; break;
        case 4: lo[i] = -0.0; hi[i] = 0.0; break;
        default: lo[i] = 0.0; hi[i] = 1.0; break;
      }
    }
    const svm::Scaler sc(lo, hi);
    for (std::size_t n = 1; n <= 9; ++n) {
      std::vector<svm::FeatureVector> vs(n, svm::FeatureVector(dim));
      for (std::size_t q = 0; q < n; ++q)
        for (std::size_t i = 0; i < dim; ++i)
          vs[q][i] = (q + i) % 3 == 0 ? specials[(q * 7 + i) % 8] : u(rng);
      std::vector<const svm::FeatureVector*> rows;
      for (const auto& v : vs) rows.push_back(&v);
      std::vector<double> got(n * dim), want(dim);
      sc.transformBatch(rows.data(), n, got.data());
      for (std::size_t q = 0; q < n; ++q) {
        sc.transformInto(vs[q], want.data());
        EXPECT_TRUE(sameBits(got.data() + q * dim, want.data(), dim))
            << "dim=" << dim << " n=" << n << " q=" << q
            << " simd=" << simd::toString(simd::activeLevel());
      }
    }
  }
  // std::clamp semantics, spelled out: NaN passes through, -0.0 stays
  // -0.0, out-of-range clamps, a constant feature maps to 0.5.
  const svm::Scaler unit({0.0, 0.0, 0.0, 0.0, 2.0}, {1.0, 1.0, 1.0, 1.0, 2.0});
  const svm::FeatureVector x = {nan, -0.0, -4.0, 9.0, 7.0};
  const svm::FeatureVector* const row = &x;
  double out[5];
  unit.transformBatch(&row, 1, out);
  EXPECT_TRUE(std::isnan(out[0]));
  EXPECT_TRUE(out[1] == 0.0 && std::signbit(out[1]));
  EXPECT_EQ(out[2], 0.0);
  EXPECT_FALSE(std::signbit(out[2]));
  EXPECT_EQ(out[3], 1.0);
  EXPECT_EQ(out[4], 0.5);
  const svm::FeatureVector shortRow = {1.0};
  const svm::FeatureVector* const bad[] = {&x, &shortRow};
  EXPECT_THROW(unit.transformBatch(bad, 2, out), std::invalid_argument);
}

TEST(SvmDecision, BatchMatchesDecisionFromPerQuery) {
  std::mt19937 rng(77u);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (const std::size_t nsv : {1u, 4u, 9u, 21u}) {
    const std::size_t dim = 13;
    std::vector<svm::FeatureVector> sv(nsv, svm::FeatureVector(dim));
    std::vector<double> coef(nsv);
    for (auto& v : sv)
      for (double& e : v) e = u(rng);
    for (double& c : coef) c = u(rng);
    const svm::SvmModel model(sv, coef, 0.21, 0.6);
    for (std::size_t n = 1; n <= 9; ++n) {
      std::vector<double> xs(n * dim);
      for (double& e : xs) e = u(rng);
      std::vector<double> got(n);
      model.decisionBatch(xs, got);
      for (std::size_t q = 0; q < n; ++q) {
        const svm::FeatureVector x(xs.begin() + q * dim,
                                   xs.begin() + (q + 1) * dim);
        double s = 0;  // the naive per-SV rbfKernel sum
        for (std::size_t i = 0; i < nsv; ++i)
          s += coef[i] * svm::rbfKernel(sv[i], x, 0.6);
        EXPECT_EQ(got[q], s - 0.21) << "nsv=" << nsv << " n=" << n;
        EXPECT_EQ(got[q], model.decisionFrom({x.data(), dim}));
      }
    }
    std::vector<double> out(2);
    EXPECT_THROW(model.decisionBatch(std::vector<double>(dim), out),
                 std::invalid_argument);
  }
  std::vector<double> out(3);
  svm::SvmModel().decisionBatch({}, out);  // no SVs: -rho for every query
  for (const double d : out) EXPECT_EQ(d, 0.0);
}

TEST(Scorer, SteadyStateChunkScoringAllocatesNothing) {
  std::mt19937 rng(8u);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const std::size_t dim = 12;
  std::vector<core::KernelEntry> kernels(5);
  for (core::KernelEntry& k : kernels) {
    std::vector<svm::FeatureVector> sv(7, svm::FeatureVector(dim));
    for (auto& v : sv)
      for (double& e : v) e = u(rng);
    k.scaler.fit(sv);
    k.model = svm::SvmModel(sv, std::vector<double>(7, -0.3), 0.1, 0.5);
  }
  std::vector<svm::FeatureVector> feats(core::kScoreChunk,
                                        svm::FeatureVector(dim));
  for (auto& f : feats)
    for (double& e : f) e = u(rng);
  std::vector<const svm::FeatureVector*> rows;
  for (const auto& f : feats) rows.push_back(&f);
  std::vector<core::KernelScore> out(rows.size());
  const auto scoreOnce = [&] {
    core::scoreKernels(kernels, rows, core::ScoreMode::kMax, 0.0, out);
  };
  scoreOnce();  // warm-up: arena block, distance scratch
  const std::uint64_t before = g_allocCount.load();
  for (int i = 0; i < 100; ++i) scoreOnce();
  EXPECT_EQ(g_allocCount.load(), before) << "scorer touched the heap";
}

// ---------------------------------------------------------------------------
// Arena.

TEST(Arena, AlignmentAndGrowth) {
  engine::Arena a;
  EXPECT_EQ(a.capacity(), 0u);
  void* p1 = a.allocate(3, 1);
  void* p2 = a.allocate(8, 8);
  void* p3 = a.allocate(1, 64);
  EXPECT_EQ(std::uintptr_t(p2) % 8, 0u);
  EXPECT_EQ(std::uintptr_t(p3) % 64, 0u);
  EXPECT_NE(p1, p2);
  EXPECT_GE(a.capacity(), engine::Arena::kDefaultBlockBytes);
  EXPECT_EQ(a.blockCount(), 1u);
  // An oversized request grows the chain instead of failing.
  const std::span<double> big =
      a.allocSpan<double>(engine::Arena::kDefaultBlockBytes);
  EXPECT_EQ(big.size(), engine::Arena::kDefaultBlockBytes);
  EXPECT_GE(a.blockCount(), 2u);
}

TEST(Arena, ScopeRewindReusesStorage) {
  engine::Arena a;
  void* first = nullptr;
  {
    engine::ArenaScope scope(a);
    first = scope.arena().allocate(128, 8);
  }
  {
    engine::ArenaScope scope(a);
    // Same storage comes back after the rewind.
    EXPECT_EQ(scope.arena().allocate(128, 8), first);
  }
  EXPECT_EQ(a.used(), 0u);
  EXPECT_GE(a.highWater(), 128u);
}

TEST(Arena, NestedScopes) {
  engine::Arena a;
  engine::ArenaScope outer(a);
  a.allocSpan<double>(10);
  const std::size_t usedOuter = a.used();
  {
    engine::ArenaScope inner(a);
    a.allocSpan<double>(100);
    EXPECT_GT(a.used(), usedOuter);
  }
  EXPECT_EQ(a.used(), usedOuter);  // inner rewound, outer intact
}

TEST(Arena, ResetKeepsCapacity) {
  engine::Arena a;
  a.allocSpan<double>(5000);  // forces growth past the first block
  const std::size_t cap = a.capacity();
  const std::size_t blocks = a.blockCount();
  a.reset();
  EXPECT_EQ(a.used(), 0u);
  EXPECT_EQ(a.capacity(), cap);
  EXPECT_EQ(a.blockCount(), blocks);
  a.allocSpan<double>(5000);
  EXPECT_EQ(a.capacity(), cap);  // reused, not re-grown
}

TEST(Arena, SteadyStateScaleAndDecideAllocatesNothing) {
  std::mt19937 rng(5u);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const std::size_t nsv = 10, dim = 12;
  std::vector<hsd::svm::FeatureVector> sv(nsv, hsd::svm::FeatureVector(dim));
  std::vector<double> coef(nsv, 0.5);
  for (auto& v : sv)
    for (double& e : v) e = u(rng);
  const hsd::svm::SvmModel model(sv, coef, 0.1, 0.5);
  hsd::svm::Scaler sc;
  sc.fit(sv);
  const hsd::svm::FeatureVector x(dim, 0.25);

  engine::Arena& arena = engine::threadScratch();
  const auto evalOnce = [&] {
    engine::ArenaScope scope(arena);
    const std::span<double> buf = scope.arena().allocSpan<double>(dim);
    sc.transformInto(x, buf.data());
    return model.decisionFrom(buf);
  };
  const double want = evalOnce();  // warm-up: arena block, d2 scratch
  const std::uint64_t before = g_allocCount.load();
  double got = 0;
  for (int i = 0; i < 1000; ++i) got = evalOnce();
  EXPECT_EQ(g_allocCount.load(), before) << "hot path touched the heap";
  EXPECT_EQ(got, want);
}

TEST(Arena, SteadyStateRasterizeAllocatesNothing) {
  std::mt19937 rng(6u);
  const Rect window(0, 0, 300, 300);
  const std::vector<Rect> rects = randomRects(rng, window, 40);
  engine::Arena& arena = engine::threadScratch();
  const auto rasterOnce = [&] {
    engine::ArenaScope scope(arena);
    const std::span<double> g = scope.arena().allocSpan<double>(16 * 16);
    rasterizeDensity(rects, window, 16, 16, g.data());
    return g[0];
  };
  rasterOnce();  // warm-up: arena block + rasterizer's x-overlap scratch
  const std::uint64_t before = g_allocCount.load();
  for (int i = 0; i < 200; ++i) rasterOnce();
  EXPECT_EQ(g_allocCount.load(), before) << "rasterize path touched the heap";
}

// ---------------------------------------------------------------------------
// StageCache sharding.

TEST(StageCacheShards, SmallCapacityStaysSingleShard) {
  engine::StageCache c(16);
  EXPECT_EQ(c.shardCount(), 1u);
}

TEST(StageCacheShards, LargeCapacityShardsAndKeepsTotals) {
  engine::StageCache c(engine::StageCache::kShardThreshold);
  EXPECT_EQ(c.shardCount(), engine::StageCache::kMaxShards);
  // Insert more keys than capacity: residency must never exceed the
  // global budget, and the counters must aggregate across shards.
  const std::size_t n = engine::StageCache::kShardThreshold * 2;
  for (std::size_t i = 0; i < n; ++i)
    c.insert(engine::CacheKey{i, i * 31, i * 131}, i % 2 == 0);
  EXPECT_LE(c.size(), c.capacity());
  std::size_t hits = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (c.find(engine::CacheKey{i, i * 31, i * 131})) ++hits;
  const engine::StageCache::Counters tallies = c.counters();
  EXPECT_EQ(tallies.hits, hits);
  EXPECT_EQ(tallies.misses, n - hits);
  EXPECT_GT(tallies.evictions, 0u);
  EXPECT_EQ(tallies.entries, c.size());
  c.clear();
  EXPECT_EQ(c.size(), 0u);
}

// ---------------------------------------------------------------------------
// Cache-line layout.

TEST(CacheLine, PaddedTypesAreLineAligned) {
  EXPECT_EQ(alignof(par::CachePadded<std::atomic<void*>>),
            par::kCacheLineSize);
  EXPECT_EQ(sizeof(par::CachePadded<std::atomic<void*>>),
            par::kCacheLineSize);
  EXPECT_EQ(alignof(obs::Counter), par::kCacheLineSize);
  EXPECT_EQ(alignof(obs::Gauge), par::kCacheLineSize);
  // Individually heap-allocated counters land on distinct lines (aligned
  // operator new honors the class alignment).
  const auto a = std::make_unique<obs::Counter>();
  const auto b = std::make_unique<obs::Counter>();
  EXPECT_EQ(std::uintptr_t(a.get()) % par::kCacheLineSize, 0u);
  EXPECT_EQ(std::uintptr_t(b.get()) % par::kCacheLineSize, 0u);
}

}  // namespace
}  // namespace hsd
