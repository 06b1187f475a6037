// Two-class soft-margin C-SVM with Gaussian RBF kernel (paper Eq. 3),
// solved by SMO with maximal-violating-pair working-set selection — a
// from-scratch replacement for LIBSVM's C-SVC.
#pragma once

#include <cstddef>
#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "svm/dataset.hpp"
#include "svm/kernel_ops.hpp"
#include "text/text_cursor.hpp"

namespace hsd::svm {

/// Training hyperparameters.
struct SvmParams {
  double C = 1000.0;       ///< slack penalty (paper's initial value)
  double gamma = 0.01;     ///< RBF width (paper's initial value)
  double eps = 1e-3;       ///< KKT stopping tolerance
  double weightPos = 1.0;  ///< per-class C multiplier for label +1
  double weightNeg = 1.0;  ///< per-class C multiplier for label -1
  std::size_t maxIter = 200000;  ///< SMO iteration safety bound
  /// Working-set selection: true = second-order (LIBSVM WSS2, usually
  /// fewer iterations), false = maximal violating pair (WSS1). Both reach
  /// the same optimum of the convex dual.
  bool secondOrderWss = true;
  /// Q-row cache budget for the SMO solver (bytes). The default fits the
  /// production training sets entirely; tests shrink it to exercise the
  /// eviction path (see svm/qmatrix.hpp). At least two rows are always
  /// resident.
  std::size_t kernelCacheBytes = 64u << 20;
};

/// Trained model: support vectors with coefficients alpha_i * y_i and bias.
/// decision(x) = sum_i coef_i * K(sv_i, x) - rho; label = sign(decision).
class SvmModel {
 public:
  SvmModel() = default;

  bool empty() const { return packed_.empty(); }
  std::size_t supportVectorCount() const { return packed_.count(); }
  double gamma() const { return gamma_; }
  double rho() const { return rho_; }
  /// Support vector i, read in place from the packed layout.
  ops::PackedVectors::Row supportVector(std::size_t i) const {
    return packed_.row(i);
  }
  const std::vector<double>& coefficients() const { return coef_; }

  /// Signed decision value; positive means class +1 (hotspot).
  double decision(const FeatureVector& x) const;
  /// decision() over a borrowed contiguous span (the allocation-free hot
  /// path: the evaluator hands arena-backed scratch straight in). A
  /// decisionBatch() of one. Throws std::invalid_argument on a dimension
  /// mismatch.
  double decisionFrom(std::span<const double> x) const;
  /// Decision values of out.size() queries stored row-major in `xs`
  /// (out.size() * dim doubles): out[q] = decisionFrom(row q). The
  /// squared distances of every (query, SV) pair come from one
  /// ops::squaredDistancesBatch call over the packed SVs; then each
  /// query's kernel sum runs over the SVs in order, then `- rho` —
  /// byte-identical to the naive per-SV rbfKernel loop. Throws
  /// std::invalid_argument when xs.size() != out.size() * dim.
  void decisionBatch(std::span<const double> xs, std::span<double> out) const;
  /// Predicted label with an optional decision-threshold shift `bias`
  /// (predict +1 iff decision(x) > bias); bias sweeps trace the
  /// accuracy / false-alarm trade-off curve of Fig. 15.
  int predict(const FeatureVector& x, double bias = 0.0) const;
  /// predict() over a borrowed span (same NaN-maps-to--1 semantics).
  int predictFrom(std::span<const double> x, double bias = 0.0) const;

  void save(std::ostream& os) const;
  /// Inverse of save(), reading one model at the cursor. Throws
  /// std::runtime_error on a bad header, a count the remaining text
  /// cannot back or text that runs out (see text/text_cursor.hpp).
  static SvmModel load(text::TextCursor& in);
  /// load() over the rest of `is` (the cursor may read past the model).
  static SvmModel load(std::istream& is);

  /// Construct directly (used by the trainer and tests).
  SvmModel(const std::vector<FeatureVector>& sv, std::vector<double> coef,
           double rho, double gamma)
      : coef_(std::move(coef)), rho_(rho), gamma_(gamma), packed_(sv) {}

 private:
  std::vector<double> coef_;
  double rho_ = 0.0;
  double gamma_ = 0.0;
  /// The support vectors, blocked-transposed for the vectorized decision
  /// path; save() and supportVector() read rows back out of it.
  ops::PackedVectors packed_;
};

/// Result of one training run.
struct TrainResult {
  SvmModel model;
  std::size_t iterations = 0;
  bool converged = false;  ///< false when maxIter was hit
  double objective = 0.0;  ///< final dual objective value f(a) of Eq. 3
};

/// Train a C-SVC on `data` (labels +1/-1). Throws std::invalid_argument on
/// an empty or single-class dataset.
TrainResult train(const Dataset& data, const SvmParams& params);

/// RBF kernel value exp(-gamma * ||a-b||^2).
double rbfKernel(const FeatureVector& a, const FeatureVector& b, double gamma);

/// Fraction of `data` classified correctly by `model`.
double trainingAccuracy(const SvmModel& model, const Dataset& data);

}  // namespace hsd::svm
