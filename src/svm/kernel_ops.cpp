#include "svm/kernel_ops.hpp"

#include <stdexcept>

#include "geom/simd.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HSD_KERNEL_OPS_AVX2 1
#include <immintrin.h>
#endif

namespace hsd::svm::ops {

PackedVectors::PackedVectors(const std::vector<FeatureVector>& vs)
    : PackedVectors(vs.size(), vs.empty() ? 0 : vs.front().size()) {
  for (std::size_t j = 0; j < count_; ++j) {
    if (vs[j].size() != dim_)
      throw std::invalid_argument("PackedVectors: inconsistent dimension");
    for (std::size_t k = 0; k < dim_; ++k) at(j, k) = vs[j][k];
  }
}

PackedVectors::PackedVectors(std::size_t count, std::size_t dim)
    : count_(count), dim_(count == 0 ? 0 : dim) {
  data_.assign(blockCount() * dim_ * kPackWidth, 0.0);
}

FeatureVector PackedVectors::Row::vector() const {
  FeatureVector v(size);
  for (std::size_t k = 0; k < size; ++k) v[k] = (*this)[k];
  return v;
}

// ---------------------------------------------------------------------------
// Scalar oracles. Each lane's accumulator advances through k in order —
// the exact sequence the original per-vector loops performed. __restrict
// and contiguous spans let the compiler keep everything in registers; it
// cannot (and must not) vectorize the reduction itself without
// -ffast-math, which this project never enables.

void dotProductsScalar(const PackedVectors& vs, const double* x,
                       double* out) {
  const std::size_t dim = vs.dim();
  const std::size_t blocks = vs.blockCount();
  const double* __restrict xp = x;
  for (std::size_t b = 0; b < blocks; ++b) {
    const double* __restrict blk = vs.block(b);
    double acc[kPackWidth] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t k = 0; k < dim; ++k) {
      const double xk = xp[k];
      const double* const row = blk + k * kPackWidth;
      for (std::size_t l = 0; l < kPackWidth; ++l) acc[l] += row[l] * xk;
    }
    const std::size_t base = b * kPackWidth;
    const std::size_t lanes =
        base + kPackWidth <= vs.count() ? kPackWidth : vs.count() - base;
    for (std::size_t l = 0; l < lanes; ++l) out[base + l] = acc[l];
  }
}

void squaredDistancesScalar(const PackedVectors& vs, const double* x,
                            double* out) {
  const std::size_t dim = vs.dim();
  const std::size_t blocks = vs.blockCount();
  const double* __restrict xp = x;
  for (std::size_t b = 0; b < blocks; ++b) {
    const double* __restrict blk = vs.block(b);
    double acc[kPackWidth] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t k = 0; k < dim; ++k) {
      const double xk = xp[k];
      const double* const row = blk + k * kPackWidth;
      for (std::size_t l = 0; l < kPackWidth; ++l) {
        const double d = row[l] - xk;
        acc[l] += d * d;
      }
    }
    const std::size_t base = b * kPackWidth;
    const std::size_t lanes =
        base + kPackWidth <= vs.count() ? kPackWidth : vs.count() - base;
    for (std::size_t l = 0; l < lanes; ++l) out[base + l] = acc[l];
  }
}

// ---------------------------------------------------------------------------
// AVX2 paths. One ymm register carries the four accumulators of a block;
// only per-lane mul/add/sub are used (the avx2 target attribute does not
// enable FMA, so the compiler cannot contract them), which keeps every
// lane bit-identical to its scalar-oracle sequence.

#ifdef HSD_KERNEL_OPS_AVX2

// Stores the first `lanes` doubles of `acc` (a ragged final block's
// padding lanes are never written).
__attribute__((target("avx2"))) static void storeLanes(double* out,
                                                       __m256d acc,
                                                       std::size_t lanes) {
  if (lanes == kPackWidth) {
    _mm256_storeu_pd(out, acc);
    return;
  }
  double tmp[kPackWidth];
  _mm256_storeu_pd(tmp, acc);
  for (std::size_t l = 0; l < lanes; ++l) out[l] = tmp[l];
}

__attribute__((target("avx2"))) static void dotProductsAvx2(
    const PackedVectors& vs, const double* x, double* out) {
  const std::size_t dim = vs.dim();
  const std::size_t blocks = vs.blockCount();
  for (std::size_t b = 0; b < blocks; ++b) {
    const double* const blk = vs.block(b);
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t k = 0; k < dim; ++k) {
      const __m256d xk = _mm256_set1_pd(x[k]);
      const __m256d v = _mm256_loadu_pd(blk + k * kPackWidth);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(v, xk));
    }
    const std::size_t base = b * kPackWidth;
    storeLanes(out + base, acc,
               base + kPackWidth <= vs.count() ? kPackWidth
                                               : vs.count() - base);
  }
}

__attribute__((target("avx2"))) static void squaredDistancesBatchAvx2(
    const PackedVectors& vs, const double* xs, std::size_t nq, double* out) {
  const std::size_t dim = vs.dim();
  const std::size_t count = vs.count();
  const std::size_t blocks = vs.blockCount();
  for (std::size_t b = 0; b < blocks; ++b) {
    const double* const blk = vs.block(b);
    const std::size_t base = b * kPackWidth;
    const std::size_t lanes =
        base + kPackWidth <= count ? kPackWidth : count - base;
    std::size_t q = 0;
    // Four queries per pass: four independent add chains share each
    // component load. Per lane the sequence is exactly the one-query
    // loop below, i.e. the scalar oracle's.
    for (; q + 4 <= nq; q += 4) {
      const double* const x0 = xs + q * dim;
      const double* const x1 = x0 + dim;
      const double* const x2 = x1 + dim;
      const double* const x3 = x2 + dim;
      __m256d a0 = _mm256_setzero_pd();
      __m256d a1 = _mm256_setzero_pd();
      __m256d a2 = _mm256_setzero_pd();
      __m256d a3 = _mm256_setzero_pd();
      for (std::size_t k = 0; k < dim; ++k) {
        const __m256d v = _mm256_loadu_pd(blk + k * kPackWidth);
        const __m256d d0 = _mm256_sub_pd(v, _mm256_set1_pd(x0[k]));
        const __m256d d1 = _mm256_sub_pd(v, _mm256_set1_pd(x1[k]));
        const __m256d d2 = _mm256_sub_pd(v, _mm256_set1_pd(x2[k]));
        const __m256d d3 = _mm256_sub_pd(v, _mm256_set1_pd(x3[k]));
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(d0, d0));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(d1, d1));
        a2 = _mm256_add_pd(a2, _mm256_mul_pd(d2, d2));
        a3 = _mm256_add_pd(a3, _mm256_mul_pd(d3, d3));
      }
      storeLanes(out + q * count + base, a0, lanes);
      storeLanes(out + (q + 1) * count + base, a1, lanes);
      storeLanes(out + (q + 2) * count + base, a2, lanes);
      storeLanes(out + (q + 3) * count + base, a3, lanes);
    }
    for (; q < nq; ++q) {
      const double* const x = xs + q * dim;
      __m256d acc = _mm256_setzero_pd();
      for (std::size_t k = 0; k < dim; ++k) {
        const __m256d v = _mm256_loadu_pd(blk + k * kPackWidth);
        const __m256d d = _mm256_sub_pd(v, _mm256_set1_pd(x[k]));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
      }
      storeLanes(out + q * count + base, acc, lanes);
    }
  }
}

#endif  // HSD_KERNEL_OPS_AVX2

void dotProducts(const PackedVectors& vs, const double* x, double* out) {
  if (vs.empty()) return;
#ifdef HSD_KERNEL_OPS_AVX2
  if (simd::activeLevel() == simd::Level::kAvx2) {
    dotProductsAvx2(vs, x, out);
    return;
  }
#endif
  dotProductsScalar(vs, x, out);
}

void squaredDistances(const PackedVectors& vs, const double* x, double* out) {
  squaredDistancesBatch(vs, x, 1, out);
}

void squaredDistancesBatch(const PackedVectors& vs, const double* xs,
                           std::size_t nq, double* out) {
  if (vs.empty()) return;
#ifdef HSD_KERNEL_OPS_AVX2
  if (simd::activeLevel() == simd::Level::kAvx2) {
    squaredDistancesBatchAvx2(vs, xs, nq, out);
    return;
  }
#endif
  for (std::size_t q = 0; q < nq; ++q)
    squaredDistancesScalar(vs, xs + q * vs.dim(), out + q * vs.count());
}

}  // namespace hsd::svm::ops
