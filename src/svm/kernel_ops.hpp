// Hot kernel primitives of the SVM layer: batched dot products and
// squared distances of query vectors against a packed set of stored
// vectors — the inner loops of QMatrix row computation (SMO training) and
// SvmModel::decisionBatch (serving).
//
// Vectorization strategy (see geom/simd.hpp for the dispatch): lanes run
// *across stored vectors*, never across dimensions — each output's
// reduction accumulates in exactly the scalar order, so the dispatched
// implementations are byte-identical to the *Scalar oracles at every
// input. tests/test_hotpath.cpp pins this; never reassociate these loops.
#pragma once

#include <cstddef>
#include <vector>

#include "svm/dataset.hpp"

namespace hsd::svm::ops {

/// Lane width of the packed layout (AVX2: 4 doubles per vector register).
inline constexpr std::size_t kPackWidth = 4;

/// Blocked-transposed storage of `count` equal-dimension vectors: vectors
/// are grouped kPackWidth at a time, and within a block the k-th
/// components of the group sit contiguously (dim-major). One 4-wide load
/// then reads component k of four vectors — the layout that lets a kernel
/// evaluate four stored vectors per instruction while each vector's own
/// reduction stays sequential. Lanes of a ragged final block are
/// zero-filled (their outputs are never read).
class PackedVectors {
 public:
  PackedVectors() = default;
  explicit PackedVectors(const std::vector<FeatureVector>& vs);
  /// `count` zero vectors of `dim` components, to be filled through at()
  /// (with no vectors the dimension is 0, as for an empty `vs` above).
  PackedVectors(std::size_t count, std::size_t dim);

  std::size_t count() const { return count_; }
  std::size_t dim() const { return dim_; }
  bool empty() const { return count_ == 0; }
  std::size_t blockCount() const {
    return (count_ + kPackWidth - 1) / kPackWidth;
  }
  /// Block b: dim_ * kPackWidth doubles, component-major.
  const double* block(std::size_t b) const {
    return data_.data() + b * dim_ * kPackWidth;
  }
  /// Component k of vector j.
  double& at(std::size_t j, std::size_t k) {
    return data_[(j / kPackWidth * dim_ + k) * kPackWidth + j % kPackWidth];
  }

  /// Vector j read in place: `size` components, `stride` doubles apart.
  struct Row {
    static constexpr std::size_t stride = kPackWidth;
    const double* first = nullptr;
    std::size_t size = 0;
    double operator[](std::size_t k) const { return first[k * stride]; }
    /// The components gathered into one vector.
    FeatureVector vector() const;
  };
  Row row(std::size_t j) const {
    return {block(j / kPackWidth) + j % kPackWidth, dim_};
  }

 private:
  std::size_t count_ = 0;
  std::size_t dim_ = 0;
  std::vector<double> data_;
};

/// out[j] = sum_k vs[j][k] * x[k] for j in [0, count). `x` must hold
/// dim() doubles, `out` count() doubles. Dispatched (AVX2 when the CPU
/// has it and HSD_SIMD does not force scalar); byte-identical to the
/// scalar oracle either way.
void dotProducts(const PackedVectors& vs, const double* x, double* out);
/// The scalar oracle: the exact accumulation order of the pre-SIMD code
/// (`dot = 0; for k: dot += vs[j][k] * x[k]`).
void dotProductsScalar(const PackedVectors& vs, const double* x, double* out);

/// out[j] = sum_k d*d with d = vs[j][k] - x[k], accumulated in scalar
/// order — the ||sv - x||^2 term of the RBF kernel. Dispatched; the same
/// kernel as squaredDistancesBatch with one query.
void squaredDistances(const PackedVectors& vs, const double* x, double* out);
/// squaredDistances() of `nq` queries at once: `xs` holds the queries
/// row-major (nq * dim() doubles), and row q of `out` (count() doubles,
/// row-major) receives query q's distances. Every (query, vector) sum
/// accumulates over k in scalar order, so each row equals
/// squaredDistancesScalar() of that query bit for bit. The AVX2 path
/// scores each block against four queries at a time with four
/// independent accumulators — the serial add chain of one query is
/// latency-bound, four chains fill the pipeline — and walks the blocks
/// outermost so a block's components stay in L1 while the queries
/// stream past. Dispatched.
void squaredDistancesBatch(const PackedVectors& vs, const double* xs,
                           std::size_t nq, double* out);
/// The scalar oracle (matches rbfKernel's loop bit-for-bit).
void squaredDistancesScalar(const PackedVectors& vs, const double* x,
                            double* out);

}  // namespace hsd::svm::ops
