#include "gds/ascii.hpp"

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "gds/gdsii.hpp"  // GdsError
#include "text/text_cursor.hpp"

namespace hsd::gds {

namespace {

/// `read(cursor)` over the rest of `is`; the cursor's errors ("<what>:
/// <reason> at byte <k>") are rethrown as GdsErrors.
template <class Read>
auto readText(std::istream& is, const char* what, Read read) {
  try {
    text::TextCursor in(is, what);
    return read(in);
  } catch (const std::runtime_error& e) {
    throw GdsError(e.what());
  }
}

/// The next keyword, skipping '#' comment lines; "" at the end of the text.
std::string_view keyword(text::TextCursor& in) {
  while (!in.atEnd()) {
    const std::string_view kw = in.word();
    if (kw.front() != '#') return kw;
    in.restOfLine();
  }
  return {};
}

[[noreturn]] void unknownKeyword(text::TextCursor& in, std::string_view kw) {
  in.failAt(kw, "unknown keyword '" + std::string(kw) + "'");
}

std::string_view trimBlanks(std::string_view s) {
  const std::size_t b = s.find_first_not_of(" \t\r");
  return b == std::string_view::npos
             ? std::string_view()
             : s.substr(b, s.find_last_not_of(" \t\r") - b + 1);
}

/// A coordinate or a clip side: 32-bit like a GDSII XY value, so the
/// sums the clip and tiling code forms from them cannot overflow.
Coord readCoord(text::TextCursor& in) { return in.integer<std::int32_t>(); }

Point readPoint(text::TextCursor& in) {
  const Coord x = readCoord(in);
  return {x, readCoord(in)};
}

Rect readRect(text::TextCursor& in) {
  const Point a = readPoint(in);
  const Point b = readPoint(in);
  return {a.x, a.y, b.x, b.y};
}

}  // namespace

void writeAsciiLayout(std::ostream& os, const Layout& layout) {
  os << "layout " << (layout.name().empty() ? "TOP" : layout.name()) << '\n';
  for (const auto& [id, layer] : layout.layers()) {
    os << "layer " << id << '\n';
    for (const Polygon& p : layer.polygons()) {
      const auto& pts = p.points();
      if (pts.size() == 4 && p.bbox().area() == p.area()) {
        const Rect r = p.bbox();
        os << "rect " << r.lo.x << ' ' << r.lo.y << ' ' << r.hi.x << ' '
           << r.hi.y << '\n';
      } else {
        os << "poly " << pts.size();
        for (const Point& pt : pts) os << ' ' << pt.x << ' ' << pt.y;
        os << '\n';
      }
    }
  }
}

Layout readAsciiLayout(std::istream& is) {
  return readText(is, "ascii layout", [](text::TextCursor& in) {
    Layout out;
    LayerId layer = 0;
    for (std::string_view kw; !(kw = keyword(in)).empty();) {
      if (kw == "layout") {
        out.setName(std::string(trimBlanks(in.restOfLine())));
      } else if (kw == "layer") {
        layer = in.integer<LayerId>();
      } else if (kw == "rect") {
        out.addRect(layer, readRect(in));
      } else if (kw == "poly") {
        std::vector<Point> pts(in.count(2));
        for (Point& p : pts) p = readPoint(in);
        out.addPolygon(layer, Polygon(std::move(pts)));
      } else {
        unknownKeyword(in, kw);
      }
    }
    return out;
  });
}

void writeAsciiLayoutFile(const std::string& path, const Layout& layout) {
  std::ofstream os(path);
  if (!os) throw GdsError("cannot open " + path + " for writing");
  writeAsciiLayout(os, layout);
}

Layout readAsciiLayoutFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw GdsError("cannot open " + path);
  return readAsciiLayout(is);
}

void writeClipSet(std::ostream& os, const ClipSet& set) {
  os << "clipset " << (set.name.empty() ? "clips" : set.name) << ' '
     << set.params.coreSide << ' ' << set.params.clipSide << '\n';
  for (const Clip& c : set.clips) {
    os << "clip " << int(c.label()) << ' ' << c.window().core.lo.x << ' '
       << c.window().core.lo.y << '\n';
    for (const LayerId id : c.layerIds()) {
      os << "layer " << id << '\n';
      for (const Rect& r : c.rectsOn(id))
        os << "rect " << r.lo.x << ' ' << r.lo.y << ' ' << r.hi.x << ' '
           << r.hi.y << '\n';
    }
    os << "endclip\n";
  }
}

ClipSet readClipSet(std::istream& is) {
  return readText(is, "clipset", [](text::TextCursor& in) {
    ClipSet set;
    Clip cur;
    std::vector<Rect> rects;
    LayerId layer = 0;
    bool inClip = false;
    const auto flushLayer = [&] {
      if (!rects.empty()) cur.setRects(layer, std::exchange(rects, {}));
    };
    for (std::string_view kw; !(kw = keyword(in)).empty();) {
      if (kw == "clipset") {
        set.name = in.word();
        set.params.coreSide = readCoord(in);
        set.params.clipSide = readCoord(in);
      } else if (kw == "clip") {
        if (inClip) in.failAt(kw, "'clip' before the previous 'endclip'");
        const int label = in.integer<int>();
        if (label < -1 || label > 1)
          in.fail("clip label " + std::to_string(label) +
                  " is not -1, 0 or 1");
        cur = Clip(ClipWindow::atCore(readPoint(in), set.params),
                   Label(label));
        inClip = true;
      } else if (kw != "layer" && kw != "rect" && kw != "endclip") {
        unknownKeyword(in, kw);
      } else if (!inClip) {
        in.failAt(kw, "'" + std::string(kw) + "' outside a clip");
      } else if (kw == "layer") {
        flushLayer();
        layer = in.integer<LayerId>();
      } else if (kw == "rect") {
        rects.push_back(readRect(in));
      } else {  // endclip
        flushLayer();
        set.clips.push_back(std::exchange(cur, Clip()));
        inClip = false;
      }
    }
    if (inClip) in.fail("missing final endclip");
    return set;
  });
}

void writeClipSetFile(const std::string& path, const ClipSet& set) {
  std::ofstream os(path);
  if (!os) throw GdsError("cannot open " + path + " for writing");
  writeClipSet(os, set);
}

ClipSet readClipSetFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw GdsError("cannot open " + path);
  return readClipSet(is);
}

void writeWindowList(std::ostream& os, const std::vector<ClipWindow>& wins,
                     const ClipParams& params) {
  os << "windows " << params.coreSide << ' ' << params.clipSide << '\n';
  for (const ClipWindow& w : wins)
    os << "at " << w.core.lo.x << ' ' << w.core.lo.y << '\n';
}

std::pair<std::vector<ClipWindow>, ClipParams> readWindowList(
    std::istream& is) {
  return readText(is, "window list", [](text::TextCursor& in) {
    std::vector<ClipWindow> wins;
    ClipParams params;
    bool sawHeader = false;
    for (std::string_view kw; !(kw = keyword(in)).empty();) {
      if (kw == "windows") {
        if (sawHeader) in.failAt(kw, "second 'windows' header");
        params.coreSide = readCoord(in);
        params.clipSide = readCoord(in);
        sawHeader = true;
      } else if (kw == "at") {
        if (!sawHeader) in.failAt(kw, "'at' before the 'windows' header");
        wins.push_back(ClipWindow::atCore(readPoint(in), params));
      } else {
        unknownKeyword(in, kw);
      }
    }
    if (!sawHeader) in.fail("missing 'windows' header");
    return std::pair(std::move(wins), params);
  });
}

void writeWindowListFile(const std::string& path,
                         const std::vector<ClipWindow>& wins,
                         const ClipParams& params) {
  std::ofstream os(path);
  if (!os) throw GdsError("cannot open " + path + " for writing");
  writeWindowList(os, wins, params);
}

std::pair<std::vector<ClipWindow>, ClipParams> readWindowListFile(
    const std::string& path) {
  std::ifstream is(path);
  if (!is) throw GdsError("cannot open " + path);
  return readWindowList(is);
}

}  // namespace hsd::gds
