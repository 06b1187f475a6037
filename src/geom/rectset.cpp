#include "geom/rectset.hpp"

#include <algorithm>
#include <limits>

namespace hsd {

std::vector<Rect> clipRects(const std::vector<Rect>& rects,
                            const Rect& window) {
  std::vector<Rect> out;
  out.reserve(rects.size());
  for (const Rect& r : rects) {
    const Rect c = r.intersect(window);
    if (c.valid() && !c.empty()) out.push_back(c);
  }
  return out;
}

namespace {

// Distinct y cut coordinates of a rect set.
std::vector<Coord> cutCoordsY(const std::vector<Rect>& rects) {
  std::vector<Coord> ys;
  ys.reserve(rects.size() * 2);
  for (const Rect& r : rects) {
    ys.push_back(r.lo.y);
    ys.push_back(r.hi.y);
  }
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());
  return ys;
}

}  // namespace

std::vector<Interval> coveredX(const std::vector<Rect>& rects, Coord y1,
                               Coord y2) {
  std::vector<Interval> iv;
  for (const Rect& r : rects)
    if (r.lo.y <= y1 && r.hi.y >= y2 && r.lo.x < r.hi.x)
      iv.push_back({r.lo.x, r.hi.x});
  return mergeIntervals(std::move(iv));
}

std::vector<Interval> coveredY(const std::vector<Rect>& rects, Coord x1,
                               Coord x2) {
  std::vector<Interval> iv;
  for (const Rect& r : rects)
    if (r.lo.x <= x1 && r.hi.x >= x2 && r.lo.y < r.hi.y)
      iv.push_back({r.lo.y, r.hi.y});
  return mergeIntervals(std::move(iv));
}

Area unionArea(const std::vector<Rect>& rects) {
  const std::vector<Coord> ys = cutCoordsY(rects);
  Area total = 0;
  for (std::size_t i = 0; i + 1 < ys.size(); ++i) {
    const Coord y1 = ys[i];
    const Coord y2 = ys[i + 1];
    if (y1 >= y2) continue;
    total += Area(totalLength(coveredX(rects, y1, y2))) * (y2 - y1);
  }
  return total;
}

std::vector<Rect> normalizeBands(const std::vector<Rect>& rects) {
  std::vector<Rect> out;
  const std::vector<Coord> ys = cutCoordsY(rects);
  for (std::size_t i = 0; i + 1 < ys.size(); ++i) {
    const Coord y1 = ys[i];
    const Coord y2 = ys[i + 1];
    if (y1 >= y2) continue;
    for (const Interval& iv : coveredX(rects, y1, y2))
      out.push_back({iv.lo, y1, iv.hi, y2});
  }
  return out;
}

CoverGrid::CoverGrid(const std::vector<Rect>& rects)
    : CoverGrid(rects, nullptr, std::pmr::get_default_resource()) {}

CoverGrid::CoverGrid(const std::vector<Rect>& rects, const Rect& window,
                     std::pmr::memory_resource* mr)
    : CoverGrid(rects, &window, mr) {}

CoverGrid::CoverGrid(const std::vector<Rect>& rects, const Rect* window,
                     std::pmr::memory_resource* mr)
    : xs_(mr), ys_(mr), cells_(mr) {
  const auto cuts = [&](std::pmr::vector<Coord>& cs, bool x) {
    cs.reserve(rects.size() * 2 + 2);
    for (const Rect& r : rects) {
      cs.push_back(x ? r.lo.x : r.lo.y);
      cs.push_back(x ? r.hi.x : r.hi.y);
    }
    if (window != nullptr) {
      cs.push_back(x ? window->lo.x : window->lo.y);
      cs.push_back(x ? window->hi.x : window->hi.y);
    }
    std::sort(cs.begin(), cs.end());
    cs.erase(std::unique(cs.begin(), cs.end()), cs.end());
  };
  cuts(xs_, true);
  cuts(ys_, false);
  if (xs_.empty()) return;  // no rects and no window: no cells
  nx_ = xs_.size() - 1;
  ny_ = ys_.size() - 1;
  cells_.assign(nx_ * ny_, 0);
  const auto at = [](const std::pmr::vector<Coord>& cs, Coord v) {
    return std::size_t(std::lower_bound(cs.begin(), cs.end(), v) -
                       cs.begin());
  };
  for (const Rect& r : rects) {
    const std::size_t i0 = at(xs_, r.lo.x), i1 = at(xs_, r.hi.x);
    const std::size_t j1 = at(ys_, r.hi.y);
    for (std::size_t j = at(ys_, r.lo.y); j < j1; ++j)
      for (std::size_t i = i0; i < i1; ++i) cells_[j * nx_ + i] = 1;
  }
  window_ = window == nullptr
                ? Span{0, nx_, 0, ny_}
                : Span{at(xs_, window->lo.x), at(xs_, window->hi.x),
                       at(ys_, window->lo.y), at(ys_, window->hi.y)};
}

template <class F>
void CoverGrid::forEachRun(bool rows, std::size_t line, F&& f) const {
  const std::pmr::vector<Coord>& cuts = rows ? xs_ : ys_;
  const std::size_t n = rows ? nx_ : ny_;
  const auto on = [&](std::size_t k) {
    return rows ? covered(k, line) : covered(line, k);
  };
  for (std::size_t k = 0; k < n;) {
    if (!on(k)) {
      ++k;
      continue;
    }
    const std::size_t first = k;
    while (k < n && on(k)) ++k;
    f(cuts[first], cuts[k]);
  }
}

BoundaryStats CoverGrid::boundaryStats() const {
  // The open quadrants around cut point (xs_[i], ys_[j]) are cells (i, j),
  // (i-1, j), (i, j-1) and (i-1, j-1).
  BoundaryStats st;
  for (std::size_t j = 0; j < ys_.size(); ++j) {
    for (std::size_t i = 0; i < xs_.size(); ++i) {
      const bool ne = covered(i, j);
      const bool nw = i > 0 && covered(i - 1, j);
      const bool se = j > 0 && covered(i, j - 1);
      const bool sw = i > 0 && j > 0 && covered(i - 1, j - 1);
      const int cnt = int(ne) + int(nw) + int(se) + int(sw);
      if (cnt == 1) {
        ++st.convexCorners;
      } else if (cnt == 3) {
        ++st.concaveCorners;
      } else if (cnt == 2 && ((ne && sw) || (nw && se))) {
        ++st.touchPoints;
      }
    }
  }
  return st;
}

Coord CoverGrid::minExternalSpacing(const Rect& window) const {
  Coord best = -1;
  // Gaps between consecutive runs of one band whose extent across the
  // band overlaps [wlo, whi].
  const auto scan = [this, &best](bool rows, std::size_t line, Coord lo,
                                  Coord hi, Coord wlo, Coord whi) {
    if (std::max(lo, wlo) >= std::min(hi, whi)) return;
    bool any = false;
    Coord prevHi = 0;
    forEachRun(rows, line, [&](Coord a, Coord b) {
      const Coord gap = a - prevHi;
      if (any && (best < 0 || gap < best)) best = gap;
      any = true;
      prevHi = b;
    });
  };
  // Horizontal gaps between facing vertical edges, band by band, then
  // vertical gaps between facing horizontal edges.
  for (std::size_t j = 0; j < ny_; ++j)
    scan(true, j, ys_[j], ys_[j + 1], window.lo.y, window.hi.y);
  for (std::size_t i = 0; i < nx_; ++i)
    scan(false, i, xs_[i], xs_[i + 1], window.lo.x, window.hi.x);
  return best;
}

Coord CoverGrid::minInternalWidth() const {
  Coord best = -1;
  const auto consider = [&best](Coord lo, Coord hi) {
    if (best < 0 || hi - lo < best) best = hi - lo;
  };
  for (std::size_t j = 0; j < ny_; ++j) forEachRun(true, j, consider);
  for (std::size_t i = 0; i < nx_; ++i) forEachRun(false, i, consider);
  return best;
}

Area CoverGrid::area() const {
  Area total = 0;
  for (std::size_t j = 0; j < ny_; ++j) {
    Coord len = 0;
    forEachRun(true, j, [&len](Coord lo, Coord hi) { len += hi - lo; });
    total += Area(len) * (ys_[j + 1] - ys_[j]);
  }
  return total;
}

BoundaryStats boundaryStats(const std::vector<Rect>& rects) {
  return CoverGrid(rects).boundaryStats();
}

Coord minExternalSpacing(const std::vector<Rect>& rects, const Rect& window) {
  return CoverGrid(rects).minExternalSpacing(window);
}

Coord minInternalWidth(const std::vector<Rect>& rects) {
  return CoverGrid(rects).minInternalWidth();
}

}  // namespace hsd
