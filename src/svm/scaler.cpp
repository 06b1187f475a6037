#include "svm/scaler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "geom/simd.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HSD_SCALER_AVX2 1
#include <immintrin.h>
#endif

namespace hsd::svm {

namespace {

// One element of transformInto(): the scalar oracle every path matches.
double scaled(double v, double lo, double hi) {
  const double range = hi - lo;
  return range > 0 ? std::clamp((v - lo) / range, 0.0, 1.0) : 0.5;
}

}  // namespace

void Scaler::fit(const std::vector<FeatureVector>& data) {
  lo_.clear();
  hi_.clear();
  if (data.empty()) return;
  const std::size_t d = data.front().size();
  lo_.assign(d, std::numeric_limits<double>::infinity());
  hi_.assign(d, -std::numeric_limits<double>::infinity());
  for (const FeatureVector& v : data) {
    if (v.size() != d)
      throw std::invalid_argument("Scaler: inconsistent dimension");
    for (std::size_t i = 0; i < d; ++i) {
      lo_[i] = std::min(lo_[i], v[i]);
      hi_[i] = std::max(hi_[i], v[i]);
    }
  }
}

FeatureVector Scaler::transform(const FeatureVector& v) const {
  FeatureVector out(v.size());
  transformInto(v, out.data());
  return out;
}

void Scaler::transformInto(const FeatureVector& v, double* out) const {
  if (v.size() != lo_.size())
    throw std::invalid_argument("Scaler: dimension mismatch");
  for (std::size_t i = 0; i < v.size(); ++i)
    out[i] = scaled(v[i], lo_[i], hi_[i]);
}

#ifdef HSD_SCALER_AVX2
// Four dimensions per step, one vector at a time. Per element: the same
// IEEE sub, sub and div as transformInto(), then std::clamp(t, 0, 1)
// as `t < 0 ? 0 : (1 < t ? 1 : t)` via ordered compares (false on NaN,
// and -0.0 < 0 is false) and the range > 0 select likewise.
__attribute__((target("avx2"))) static void transformRowsAvx2(
    const double* lo, const double* hi, std::size_t d,
    const FeatureVector* const* vs, std::size_t n, double* out) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d half = _mm256_set1_pd(0.5);
  for (std::size_t q = 0; q < n; ++q) {
    const double* const v = vs[q]->data();
    double* const o = out + q * d;
    std::size_t i = 0;
    for (; i + 4 <= d; i += 4) {
      const __m256d l = _mm256_loadu_pd(lo + i);
      const __m256d range = _mm256_sub_pd(_mm256_loadu_pd(hi + i), l);
      __m256d t =
          _mm256_div_pd(_mm256_sub_pd(_mm256_loadu_pd(v + i), l), range);
      t = _mm256_blendv_pd(t, zero, _mm256_cmp_pd(t, zero, _CMP_LT_OQ));
      t = _mm256_blendv_pd(t, one, _mm256_cmp_pd(one, t, _CMP_LT_OQ));
      t = _mm256_blendv_pd(half, t, _mm256_cmp_pd(range, zero, _CMP_GT_OQ));
      _mm256_storeu_pd(o + i, t);
    }
    for (; i < d; ++i) o[i] = scaled(v[i], lo[i], hi[i]);
  }
}
#endif

void Scaler::transformBatch(const FeatureVector* const* vs, std::size_t n,
                            double* out) const {
  for (std::size_t q = 0; q < n; ++q)
    if (vs[q]->size() != lo_.size())
      throw std::invalid_argument("Scaler: dimension mismatch");
#ifdef HSD_SCALER_AVX2
  if (simd::activeLevel() == simd::Level::kAvx2) {
    transformRowsAvx2(lo_.data(), hi_.data(), lo_.size(), vs, n, out);
    return;
  }
#endif
  for (std::size_t q = 0; q < n; ++q) transformInto(*vs[q], out + q * dim());
}

void Scaler::transformInPlace(std::vector<FeatureVector>& data) const {
  for (FeatureVector& v : data) v = transform(v);
}

}  // namespace hsd::svm
