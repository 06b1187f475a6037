// Generic staged batch pipeline. A Stage<In, Out> is a named transform of
// one batch; runPipeline() streams an input range through the composed
// stages in batches of RunContext::batchSize(), so at most one batch of
// intermediate items is alive between stages (bounded memory) and every
// stage invocation lands in the context's EngineStats. Stages built with
// mapStage / filterMapStage parallelize across the batch with index-stable
// writes, which makes pipeline output independent of the thread count —
// the property the determinism regression tests pin down.
#pragma once

#include <cstddef>
#include <functional>
#include <iterator>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/run_context.hpp"
#include "engine/stats.hpp"

namespace hsd::engine {

/// One named pipeline stage: consumes a batch of In, produces a batch of
/// Out (any fan-in/fan-out; filters shrink, expanders grow). The run
/// callable itself is invoked serially per batch — intra-batch parallelism
/// is the stage's own business (see mapStage). `tile` is the tile its
/// invocations are recorded under in EngineStats.
template <typename In, typename Out>
struct Stage {
  using in_type = In;
  using out_type = Out;

  std::string name;
  std::function<std::vector<Out>(RunContext&, std::vector<In>&&)> run;
  std::size_t tile = kUntiled;
};

/// 1:1 parallel map stage: out[i] = fn(in[i]). Output order equals input
/// order regardless of thread count.
template <typename In, typename F>
auto mapStage(std::string name, F fn) {
  using Out = std::decay_t<std::invoke_result_t<F, const In&>>;
  return Stage<In, Out>{
      std::move(name),
      [fn = std::move(fn)](RunContext& ctx, std::vector<In>&& in) {
        std::vector<Out> out(in.size());
        ctx.parallelFor(in.size(),
                        [&](std::size_t i) { out[i] = fn(in[i]); });
        return out;
      }};
}

/// Parallel map + filter stage: fn returns std::optional<Out>; empty
/// results are dropped, survivors keep batch order.
template <typename In, typename F>
auto filterMapStage(std::string name, F fn) {
  using Opt = std::decay_t<std::invoke_result_t<F, const In&>>;
  using Out = typename Opt::value_type;
  return Stage<In, Out>{
      std::move(name),
      [fn = std::move(fn)](RunContext& ctx, std::vector<In>&& in) {
        std::vector<Opt> tmp(in.size());
        ctx.parallelFor(in.size(),
                        [&](std::size_t i) { tmp[i] = fn(in[i]); });
        std::vector<Out> out;
        out.reserve(in.size());
        for (Opt& o : tmp)
          if (o.has_value()) out.push_back(std::move(*o));
        return out;
      }};
}

namespace detail {

template <typename In>
std::vector<In> applyStages(RunContext&, std::vector<In>&& batch) {
  return std::move(batch);
}

template <typename In, typename S, typename... Rest>
auto applyStages(RunContext& ctx, std::vector<In>&& batch, S& stage,
                 Rest&... rest) {
  ctx.throwIfCancelled();
  std::vector<typename S::out_type> out;
  {
    StageTimer timer(ctx.stats(), stage.name, batch.size(), ctx.tracer(),
                     stage.tile);
    out = stage.run(ctx, std::move(batch));
  }
  return applyStages(ctx, std::move(out), rest...);
}

}  // namespace detail

/// Stream `items` through the stages in batches of ctx.batchSize(),
/// concatenating each batch's final output in order. Exceptions from any
/// stage (including CancelledError from a cancellation request) propagate
/// to the caller; no further batches run after one throws.
template <typename In, typename... Stages>
auto runPipeline(RunContext& ctx, std::vector<In> items, Stages&... stages) {
  using OutVec =
      decltype(detail::applyStages(ctx, std::vector<In>{}, stages...));
  OutVec all;
  const std::size_t n = items.size();
  const std::size_t bs = std::max<std::size_t>(1, ctx.batchSize());
  for (std::size_t i0 = 0; i0 < n; i0 += bs) {
    const std::size_t i1 = std::min(i0 + bs, n);
    std::vector<In> batch(std::make_move_iterator(items.begin() + i0),
                          std::make_move_iterator(items.begin() + i1));
    OutVec out = detail::applyStages(ctx, std::move(batch), stages...);
    all.insert(all.end(), std::make_move_iterator(out.begin()),
               std::make_move_iterator(out.end()));
  }
  return all;
}

}  // namespace hsd::engine
