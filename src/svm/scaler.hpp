// Per-feature min-max scaling to [0, 1] (the standard libsvm-style
// preprocessing). Fitting records the training range; constant features
// map to 0.5 so they carry no information but stay bounded.
#pragma once

#include <cstddef>
#include <vector>

#include "svm/dataset.hpp"

namespace hsd::svm {

class Scaler {
 public:
  Scaler() = default;
  /// Restore a fitted scaler from stored ranges (deserialization).
  Scaler(std::vector<double> mins, std::vector<double> maxs)
      : lo_(std::move(mins)), hi_(std::move(maxs)) {}

  /// Learn per-dimension ranges from `data`.
  void fit(const std::vector<FeatureVector>& data);
  bool fitted() const { return !lo_.empty(); }
  std::size_t dim() const { return lo_.size(); }

  /// Scale one vector (clamping to [0,1] for out-of-range test values).
  FeatureVector transform(const FeatureVector& v) const;
  /// transform() into caller-provided storage of dim() doubles (the
  /// allocation-free hot path; `out` may be arena scratch). Same values
  /// and same dimension-mismatch contract as transform().
  void transformInto(const FeatureVector& v, double* out) const;
  /// transformInto() of `n` vectors at once: row q of `out` (dim()
  /// doubles, row-major) receives the scaled *vs[q]. Elementwise, so the
  /// AVX2 path (IEEE div, then compare/blend standing in for std::clamp:
  /// NaN and -0.0 pass through, range <= 0 or NaN gives 0.5) is
  /// byte-identical to transformInto(), the scalar oracle, per row.
  /// Dispatched (geom/simd.hpp); throws like transformInto() when any
  /// row's dimension mismatches.
  void transformBatch(const FeatureVector* const* vs, std::size_t n,
                      double* out) const;
  void transformInPlace(std::vector<FeatureVector>& data) const;

  const std::vector<double>& mins() const { return lo_; }
  const std::vector<double>& maxs() const { return hi_; }

 private:
  std::vector<double> lo_;
  std::vector<double> hi_;
};

}  // namespace hsd::svm
