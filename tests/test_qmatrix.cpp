// SMO kernel-row cache tests (ctest label: hotpath). Pins the PR-8 fixes
// on svm::QMatrix:
//  - the use-after-free regression: a tiny cache (two resident rows) plus
//    the solver's hold-qi-across-row(j) pattern used to evict row i's
//    storage while the solver still read it. Training with
//    kernelCacheBytes=1 crashes under ASan on the old code; here it must
//    run clean AND produce the byte-identical model a big cache produces
//    (eviction may cost recomputation, never correctness);
//  - true LRU: a cache *hit* refreshes recency (the old deque was FIFO —
//    a hot row could sit at the eviction front);
//  - pinned eviction: row(j, pinned=i) never selects i as the victim, and
//    the reference the caller holds to row i stays valid and unchanged.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <random>
#include <vector>

#include "svm/qmatrix.hpp"
#include "svm/svm.hpp"

namespace hsd::svm {
namespace {

Dataset makeDataset(std::size_t n, std::size_t dim, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  Dataset d;
  for (std::size_t i = 0; i < n; ++i) {
    FeatureVector v(dim);
    for (double& x : v) x = u(rng);
    // Separable-ish labels with noise so SMO iterates a while (lots of
    // row() traffic, lots of eviction under a tiny cache).
    const int label = v[0] + 0.3 * v[1] > 0.5 + 0.1 * (u(rng) - 0.5) ? 1 : -1;
    d.add(std::move(v), label);
  }
  if (d.countLabel(1) == 0) d.y[0] = 1;
  if (d.countLabel(-1) == 0) d.y[0] = -1;
  return d;
}

// --------------------------------------------------------------------------
// The UAF regression: tiny cache, full SMO run.

TEST(QMatrixSolver, TinyCacheTrainsCleanAndMatchesBigCache) {
  const Dataset data = makeDataset(120, 6, 7u);

  SvmParams big;
  big.C = 10.0;
  big.gamma = 0.5;
  const TrainResult ref = train(data, big);

  SvmParams tiny = big;
  tiny.kernelCacheBytes = 1;  // clamps to the 2-row minimum: maximal churn
  const TrainResult out = train(data, tiny);

  // Eviction changes *when* rows are recomputed, never their values: the
  // solver must walk the identical iterate sequence to the identical model.
  EXPECT_EQ(out.iterations, ref.iterations);
  EXPECT_EQ(out.converged, ref.converged);
  ASSERT_EQ(out.model.supportVectorCount(), ref.model.supportVectorCount());
  EXPECT_EQ(out.model.rho(), ref.model.rho());
  EXPECT_EQ(out.model.coefficients(), ref.model.coefficients());
  for (std::size_t i = 0; i < ref.model.supportVectorCount(); ++i)
    EXPECT_EQ(out.model.supportVector(i).vector(),
              ref.model.supportVector(i).vector());
}

TEST(QMatrixSolver, TinyCacheBothWssVariants) {
  const Dataset data = makeDataset(80, 4, 21u);
  for (const bool wss2 : {false, true}) {
    SvmParams p;
    p.C = 5.0;
    p.gamma = 1.0;
    p.secondOrderWss = wss2;
    p.kernelCacheBytes = 1;
    const TrainResult out = train(data, p);
    EXPECT_TRUE(out.converged);
    EXPECT_GT(out.model.supportVectorCount(), 0u);
  }
}

// --------------------------------------------------------------------------
// Cache-policy units on QMatrix directly.

TEST(QMatrixCache, CapacityClampsToTwoRows) {
  const Dataset data = makeDataset(10, 3, 3u);
  QMatrix q(data, 0.5, /*cacheBytes=*/1);
  EXPECT_EQ(q.maxRows(), 2u);
}

TEST(QMatrixCache, HitRefreshesLruRecency) {
  const Dataset data = makeDataset(8, 3, 5u);
  QMatrix q(data, 0.5, /*cacheBytes=*/2 * data.size() * sizeof(float));
  ASSERT_EQ(q.maxRows(), 2u);

  q.row(0);
  q.row(1);  // LRU order: 0 (oldest), 1
  q.row(0);  // hit must refresh: order becomes 1 (oldest), 0
  q.row(2);  // eviction: victim must be 1, not the recently hit 0
  EXPECT_TRUE(q.cached(0));
  EXPECT_FALSE(q.cached(1));
  EXPECT_TRUE(q.cached(2));
  EXPECT_EQ(q.computedRows(), 3u);
  EXPECT_EQ(q.evictedRows(), 1u);

  // A re-hit on the evicted row recomputes it (counted), no crash.
  q.row(1);
  EXPECT_EQ(q.computedRows(), 4u);
}

TEST(QMatrixCache, PinnedRowSurvivesEvictionAndStaysValid) {
  const Dataset data = makeDataset(8, 3, 9u);
  QMatrix q(data, 0.5, /*cacheBytes=*/2 * data.size() * sizeof(float));
  ASSERT_EQ(q.maxRows(), 2u);

  const std::vector<float>& qi = q.row(0);
  const std::vector<float> snapshot = qi;  // copy before churn
  q.row(1);
  // 0 is the LRU victim candidate, but the caller still holds qi — the
  // pin must divert eviction to 1.
  const std::vector<float>& qj = q.row(2, /*pinned=*/0);
  EXPECT_TRUE(q.cached(0));
  EXPECT_FALSE(q.cached(1));
  EXPECT_TRUE(q.cached(2));
  EXPECT_EQ(qi, snapshot);  // reference still points at intact storage
  EXPECT_EQ(qj.size(), data.size());
}

TEST(QMatrixCache, RowValuesMatchRbfKernel) {
  const Dataset data = makeDataset(12, 4, 11u);
  QMatrix q(data, 0.7, 1 << 20);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::vector<float>& r = q.row(i);
    ASSERT_EQ(r.size(), data.size());
    for (std::size_t j = 0; j < data.size(); ++j) {
      const double kij = rbfKernel(data.x[i], data.x[j], 0.7);
      EXPECT_NEAR(r[j], float(data.y[i] * data.y[j] * kij), 1e-6);
    }
    EXPECT_EQ(q.diag(i), 1.0f);
  }
}

}  // namespace
}  // namespace hsd::svm
