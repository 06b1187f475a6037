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

TilingParams makeTilingParams(double tileSize, double halo,
                              double tileThreads) {
  TilingParams t;
  t.tileSize = Coord(wholeNumber("tile-size", tileSize, kMaxExactWhole));
  t.halo = Coord(wholeNumber("halo", halo, kMaxExactWhole));
  t.tileThreads = wholeNumber("tile-threads", tileThreads, kMaxExactWhole);
  return t;
}

TilePlan TilePlan::make(const Rect& bounds, const TilingParams& params,
                        const ClipParams& clip) {
  if (params.tileSize <= 0)
    throw std::invalid_argument(
        "TilePlan: tileSize must be > 0 (tiling disabled)");
  const Coord need = minTileHalo(clip);
  const Coord halo = params.halo == 0 ? need : params.halo;
  if (halo < need)
    throw std::invalid_argument(
        "TilePlan: halo " + std::to_string(halo) +
        " dbu is below the exactness minimum " + std::to_string(need) +
        " dbu (ambit + half core side): clips near seams would lose "
        "context and tiled verdicts would diverge from monolithic");
  TilePlan plan;
  plan.grid_ = GridTiling::over(bounds, params.tileSize);
  plan.halo_ = halo;
  return plan;
}

void checkTilePlan(const TilingParams& params, const ClipParams& clip) {
  if (params.enabled()) (void)TilePlan::make(Rect{}, params, clip);
}

}  // namespace hsd::engine
