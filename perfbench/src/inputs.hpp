// Everything the program under test is fed: models trained on the
// synthetic suite's clips, seeded test layouts encoded as GDSII bodies,
// and the offline monolithic reference report of each input that every
// timed operation is checked against byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/trainer.hpp"
#include "layout/clip.hpp"
#include "layout/layout.hpp"

namespace perfbench {

/// A detector trained on the clips of suite entry `suiteIndex`
/// (0 = benchmark1, 2 = benchmark3), serialized as model text. Training
/// is seeded by the suite, not by --seed: the model is the program's
/// configuration, the layouts are its inputs.
struct TrainedModel {
  std::string text;
  std::size_t kernels = 0;
};
TrainedModel trainSuiteModel(std::size_t suiteIndex, std::size_t threads);

/// Shape of a seeded test layout: process, riskiness and site density
/// follow suite entry `suiteIndex`; extent and site count are the
/// workload's.
struct LayoutShape {
  std::size_t suiteIndex = 0;
  hsd::Coord width = 0;
  hsd::Coord height = 0;
  std::size_t sites = 0;
};

/// One generated input: the GDSII body the program receives, plus the
/// oracle's ground-truth hotspots for scoring.
struct Input {
  std::string body;
  std::vector<hsd::ClipWindow> truth;
};
Input makeInput(const LayoutShape& shape, std::uint64_t seed);

/// The evaluation parameters every operation uses (the same defaults as
/// hsd_detect and POST /detect).
hsd::core::EvalParams evalParams(const hsd::core::Detector& det);

hsd::Layout parseGds(const std::string& body);

/// gds::writeWindowList bytes: the report format of hsd_detect and of
/// POST /detect responses.
std::string reportBytes(const std::vector<hsd::ClipWindow>& reported,
                        const hsd::ClipParams& clip);

/// Offline monolithic evaluation of one body on a fresh, uncached
/// context: the report every timed operation on that body must match.
struct Reference {
  std::string report;
  std::vector<hsd::ClipWindow> reported;
  std::size_t candidates = 0;
  std::size_t flagged = 0;
};
Reference offlineReference(const hsd::core::Detector& det,
                           const std::string& body, std::size_t threads);

}  // namespace perfbench
