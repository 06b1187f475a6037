// Multiple-kernel scoring (Fig. 3, Sec. III-E): every clip's core feature
// vector against the per-cluster SVM kernels, in kernel order. This is
// the one kernel loop of the codebase — eval/svm, rankReports, the
// Detector's per-clip API, MultiLayerDetector and the training-time
// self-evaluation, Platt and baseline passes all call it.
//
// Kernel-major: a chunk of clips walks the kernels once. Per kernel the
// still-active clips are scaled together (Scaler::transformBatch) and
// scored together (SvmModel::decisionBatch), so the kernel's support
// vectors stay in cache while the chunk streams past instead of being
// re-streamed for every (clip, kernel) pair. Every (clip, kernel)
// decision value is bit-identical to the per-pair
// `model.decision(scaler.transform(x))` (see svm/README.md), so verdicts,
// attributions and margins do not depend on chunking or thread count.
//
// Layouts repeat a few patterns, so a batch repeats feature vectors. The
// pooled scorer scores each bitwise-distinct row once (same size, same
// bits: -0.0 and +0.0 differ, NaNs match bit for bit) and copies its
// score to every row that repeats it. That is exact because a row's
// score depends only on its own bits, never on its chunk-mates.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "core/trainer.hpp"
#include "engine/run_context.hpp"
#include "svm/dataset.hpp"

namespace hsd::core {

enum class ScoreMode {
  /// Stop at the first kernel whose decision value exceeds the bias (the
  /// OR vote). An unflagged clip is attributed to kernel 0, then to any
  /// later kernel with a strictly larger value — the one that came
  /// closest to flagging it.
  kFirstFlag,
  /// Score every kernel and keep the maximum decision value, folded as
  /// std::max from -inf in kernel order (decisionValue, Platt, ranking).
  kMax,
};

/// One clip's outcome against the kernels.
struct KernelScore {
  /// kFirstFlag: some kernel's value exceeded the bias. kMax: the
  /// maximum exceeds it.
  bool flagged = false;
  /// kFirstFlag: the first flagging kernel, else the attributed one.
  /// kMax: the first kernel attaining the maximum.
  std::size_t kernel = 0;
  /// That kernel's decision value (-inf when there are no kernels).
  double decision = -std::numeric_limits<double>::infinity();
};

/// Clips per chunk of the parallel scorer: a chunk's scaled vectors
/// (chunk x 125 doubles) and one kernel's SVs fit in L1/L2 together.
inline constexpr std::size_t kScoreChunk = 32;

/// Score out.size() feature vectors (`feats[i]` -> out[i]) serially on
/// the calling thread, through its scratch arena. Throws
/// std::invalid_argument when a vector's dimension mismatches a kernel.
void scoreKernels(std::span<const KernelEntry> kernels,
                  std::span<const svm::FeatureVector* const> feats,
                  ScoreMode mode, double bias, std::span<KernelScore> out);

/// The parallel scorer: each bitwise-distinct row once, in chunks of
/// kScoreChunk rows on the context's pool, its score copied to every
/// repeat. Results are independent of the thread count.
std::vector<KernelScore> scoreKernels(
    engine::RunContext& ctx, std::span<const KernelEntry> kernels,
    std::span<const svm::FeatureVector* const> feats, ScoreMode mode,
    double bias = 0.0);

/// A batch of one (the per-clip API).
KernelScore scoreKernels(std::span<const KernelEntry> kernels,
                         const svm::FeatureVector& feat, ScoreMode mode,
                         double bias = 0.0);

}  // namespace hsd::core
