#include "engine/tiler.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace hsd::engine {

std::uint64_t wholeNumber(const char* field, double v, double max) {
  if (v >= 0.0 && v <= max && v == std::floor(v)) return std::uint64_t(v);
  throw std::invalid_argument(std::string("'") + field +
                              "' must be a whole number in [0, " +
                              std::to_string(std::uint64_t(max)) + "]");
}

TilePlan TilePlan::make(const Rect& bounds, const TilingParams& params,
                        const ClipParams& clip) {
  if (params.tileSize <= 0)
    throw std::invalid_argument(
        "TilePlan: tileSize must be > 0 (tiling disabled)");
  TilePlan plan;
  plan.grid_ = GridTiling::over(bounds, params.tileSize);
  plan.halo_ = minTileHalo(clip);
  return plan;
}

}  // namespace hsd::engine
