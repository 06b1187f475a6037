// Shared test fixture library: the layout/clip/pattern builders, trained
// end-to-end fixtures, report canonicalization, and tmp-dir plumbing that
// used to be copy-pasted across the test_*.cpp files. Header-only; every
// test links the same libraries, so inline definitions suffice.
//
// Conventions:
//  - builders use the default ICCAD-2012 ClipParams (kClip);
//  - detectorFixture() memoizes by spec, so several test files can share
//    one (expensive) train-and-generate run within a binary;
//  - canonicalReport() is the byte-comparison format of the golden
//    regression harness: sorted windows, fixed integer formatting, one
//    record per line — see test_golden_regression.cpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/pattern.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "gds/ascii.hpp"
#include "gds/gdsii.hpp"
#include "layout/clip.hpp"
#include "layout/hierarchy.hpp"
#include "layout/spatial_index.hpp"

namespace hsd::tests {

inline const ClipParams kClip{};

/// A GDSII stream of a few hundred bytes whose top cell places a one-rect
/// cell in a 30000 x 30000 AREF: 9e8 polygons once flattened.
inline std::string hugeArrayGdsii() {
  CellLibrary lib;
  lib.addCell("TOP").addInstance(
      {"UNIT", {}, 30000, 30000, {200, 0}, {0, 200}});
  lib.addCell("UNIT").addRect(1, {0, 0, 100, 100});
  lib.setTop("TOP");
  std::ostringstream os(std::ios::binary);
  gds::writeGdsiiHierarchy(os, lib);
  return os.str();
}

/// Window whose core's lower-left corner sits at (x, y), contest geometry.
inline ClipWindow at(Coord x, Coord y) {
  return ClipWindow::atCore({x, y}, kClip);
}

/// A geometry-free grid index (removal tests that only exercise the
/// merge/reframe passes).
inline GridIndex emptyIndex() { return GridIndex({}, kClip.clipSide); }

/// A labeled clip with a vertical line of width `w` through the core.
inline Clip lineClip(Coord w, Label label, Coord jitterX = 0) {
  Clip c(ClipWindow::atCore({1800, 1800}, kClip), label);
  const Coord x = 2400 - w / 2 + jitterX;
  c.setRects(1, {{x, 0, x + w, 4800}});
  return c;
}

/// Small linearly separable training set: narrow lines are hotspots, wide
/// lines are not, with jittered positions for generalization checks.
inline std::vector<Clip> lineTrainingSet(std::uint32_t seed = 3,
                                         int hotspots = 12,
                                         int nonHotspots = 40) {
  std::vector<Clip> clips;
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Coord> j(-200, 200);
  for (int i = 0; i < hotspots; ++i)
    clips.push_back(lineClip(100, Label::kHotspot, j(rng)));
  for (int i = 0; i < nonHotspots; ++i)
    clips.push_back(lineClip(220, Label::kNonHotspot, j(rng)));
  return clips;
}

/// Core-sized window-local pattern from explicit rects.
inline core::CorePattern corePattern(std::vector<Rect> rects) {
  core::CorePattern p;
  p.w = kClip.coreSide;
  p.h = kClip.coreSide;
  p.rects = std::move(rects);
  return p;
}

/// A vertical line pattern at position x with width w.
inline core::CorePattern linePattern(Coord x, Coord w) {
  return corePattern({{x, 0, x + w, kClip.coreSide}});
}

/// Spec of a seeded end-to-end fixture: generated training set + testing
/// layout + detector trained on them. Equal specs share one fixture.
struct FixtureSpec {
  std::uint64_t seed = 77;
  std::size_t hotspots = 30;
  std::size_t nonHotspots = 120;
  Coord width = 30000;
  Coord height = 30000;
  std::size_t sites = 20;
  double riskyFrac = 0.6;
  std::size_t trainThreads = 2;

  friend auto operator<=>(const FixtureSpec&, const FixtureSpec&) = default;
};

struct DetectorFixture {
  gds::ClipSet training;
  data::TestLayout test;
  core::Detector detector;
};

/// Memoized fixture builder — training dominates end-to-end test runtime,
/// so tests sharing a spec within one binary pay for it once.
inline const DetectorFixture& detectorFixture(const FixtureSpec& spec = {}) {
  static std::mutex mu;
  static std::map<FixtureSpec, std::unique_ptr<DetectorFixture>> cache;
  const std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<DetectorFixture>& slot = cache[spec];
  if (!slot) {
    auto f = std::make_unique<DetectorFixture>();
    data::GeneratorParams gp;
    gp.seed = spec.seed;
    data::TrainingTargets t;
    t.hotspots = spec.hotspots;
    t.nonHotspots = spec.nonHotspots;
    f->training = data::generateTrainingSet(gp, t);
    f->test = data::generateTestLayout(gp, spec.width, spec.height,
                                       spec.sites, spec.riskyFrac);
    engine::RunContext ctx(spec.trainThreads);
    f->detector =
        core::trainDetector(f->training.clips, core::TrainParams{}, ctx);
    slot = std::move(f);
  }
  return *slot;
}

/// One window as a canonical text record: fixed field order, plain
/// integers, no locale dependence.
inline std::string canonicalWindow(const ClipWindow& w) {
  std::ostringstream os;
  os << "core " << w.core.lo.x << ' ' << w.core.lo.y << ' ' << w.core.hi.x
     << ' ' << w.core.hi.y << " clip " << w.clip.lo.x << ' ' << w.clip.lo.y
     << ' ' << w.clip.hi.x << ' ' << w.clip.hi.y;
  return os.str();
}

/// Canonical, byte-comparable serialization of an evaluation result:
/// summary counters followed by the reported windows in sorted order (so
/// the encoding is independent of report emission order).
inline std::string canonicalReport(const core::EvalResult& res) {
  std::vector<ClipWindow> sorted = res.reported;
  std::sort(sorted.begin(), sorted.end());
  std::ostringstream os;
  os << "candidates " << res.candidateClips << '\n';
  os << "flagged " << res.flaggedBeforeRemoval << '\n';
  os << "reported " << sorted.size() << '\n';
  for (std::size_t i = 0; i < sorted.size(); ++i)
    os << i << ' ' << canonicalWindow(sorted[i]) << '\n';
  return os.str();
}

/// First differing line between two canonical reports, formatted as a
/// loud, greppable diff excerpt. Empty string when the inputs are equal.
inline std::string firstDiff(const std::string& golden,
                             const std::string& actual) {
  if (golden == actual) return {};
  std::istringstream g(golden);
  std::istringstream a(actual);
  std::string gl;
  std::string al;
  std::size_t line = 0;
  while (true) {
    ++line;
    const bool gok = static_cast<bool>(std::getline(g, gl));
    const bool aok = static_cast<bool>(std::getline(a, al));
    if (!gok && !aok) break;  // differ only in trailing bytes
    if (!gok || !aok || gl != al) {
      std::ostringstream os;
      os << "first difference at line " << line << ":\n"
         << "  golden: " << (gok ? gl : std::string("<end of file>")) << '\n'
         << "  actual: " << (aok ? al : std::string("<end of file>"));
      return os.str();
    }
  }
  return "inputs differ in whitespace/trailing bytes only";
}

/// RAII temporary directory (removed recursively on scope exit).
class TmpDir {
 public:
  TmpDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "hsd_test_XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr)
      throw std::runtime_error("TmpDir: mkdtemp failed");
    path_ = tmpl;
  }
  TmpDir(const TmpDir&) = delete;
  TmpDir& operator=(const TmpDir&) = delete;
  ~TmpDir() {
    std::error_code ec;  // best-effort cleanup; never throw in a dtor
    std::filesystem::remove_all(path_, ec);
  }

  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const {
    return (std::filesystem::path(path_) / name).string();
  }

 private:
  std::string path_;
};

}  // namespace hsd::tests
