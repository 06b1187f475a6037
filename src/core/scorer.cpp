#include "core/scorer.hpp"

#include <algorithm>

#include "engine/arena.hpp"

namespace hsd::core {

void scoreKernels(std::span<const KernelEntry> kernels,
                  std::span<const svm::FeatureVector* const> feats,
                  ScoreMode mode, double bias, std::span<KernelScore> out) {
  const std::size_t n = out.size();
  std::fill(out.begin(), out.end(), KernelScore{});
  if (n == 0 || kernels.empty()) return;
  std::size_t maxDim = 0;
  for (const KernelEntry& k : kernels)
    maxDim = std::max(maxDim, k.scaler.dim());

  engine::ArenaScope scope(engine::threadScratch());
  engine::Arena& arena = scope.arena();
  // The active set: clips still being scored, in input order, with their
  // feature rows alongside (the scaler's input).
  const std::span<std::size_t> active = arena.allocSpan<std::size_t>(n);
  const std::span<const svm::FeatureVector*> rows =
      arena.allocSpan<const svm::FeatureVector*>(n);
  const std::span<double> xs = arena.allocSpan<double>(n * maxDim);
  const std::span<double> d = arena.allocSpan<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    active[i] = i;
    rows[i] = feats[i];
  }

  std::size_t m = n;
  for (std::size_t ki = 0; ki < kernels.size() && m > 0; ++ki) {
    const KernelEntry& k = kernels[ki];
    k.scaler.transformBatch(rows.data(), m, xs.data());
    k.model.decisionBatch(xs.first(m * k.scaler.dim()), d.first(m));
    std::size_t kept = 0;
    for (std::size_t a = 0; a < m; ++a) {
      KernelScore& s = out[active[a]];
      const double v = d[a];
      if (mode == ScoreMode::kMax) {
        if (s.decision < v) {  // std::max(best, v)
          s.decision = v;
          s.kernel = ki;
        }
      } else if (v > bias) {
        s = {true, ki, v};
        continue;  // first flag: the clip leaves the active set
      } else if (ki == 0 || v > s.decision) {
        s.kernel = ki;
        s.decision = v;
      }
      active[kept] = active[a];
      rows[kept] = rows[a];
      ++kept;
    }
    m = kept;
  }
  if (mode == ScoreMode::kMax)
    for (KernelScore& s : out) s.flagged = s.decision > bias;
}

std::vector<KernelScore> scoreKernels(
    engine::RunContext& ctx, std::span<const KernelEntry> kernels,
    std::span<const svm::FeatureVector* const> feats, ScoreMode mode,
    double bias) {
  std::vector<KernelScore> out(feats.size());
  const std::size_t chunks = (feats.size() + kScoreChunk - 1) / kScoreChunk;
  ctx.parallelFor(
      chunks,
      [&](std::size_t c) {
        const std::size_t first = c * kScoreChunk;
        const std::size_t len = std::min(kScoreChunk, feats.size() - first);
        scoreKernels(kernels, feats.subspan(first, len), mode, bias,
                     std::span<KernelScore>(out).subspan(first, len));
      },
      1);
  return out;
}

KernelScore scoreKernels(std::span<const KernelEntry> kernels,
                         const svm::FeatureVector& feat, ScoreMode mode,
                         double bias) {
  const svm::FeatureVector* const row = &feat;
  KernelScore s;
  scoreKernels(kernels, {&row, 1}, mode, bias, {&s, 1});
  return s;
}

}  // namespace hsd::core
