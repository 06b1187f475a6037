#include "inputs.hpp"

#include <locale>
#include <sstream>
#include <stdexcept>

#include "data/generator.hpp"
#include "engine/run_context.hpp"
#include "gds/ascii.hpp"
#include "gds/gdsii.hpp"

namespace perfbench {

using namespace hsd;

namespace {

data::BenchmarkSpec suiteSpec(std::size_t suiteIndex) {
  const std::vector<data::BenchmarkSpec> suite = data::iccad2012LikeSuite();
  if (suiteIndex >= suite.size())
    throw std::out_of_range("perfbench: no suite entry " +
                            std::to_string(suiteIndex));
  return suite[suiteIndex];
}

data::GeneratorParams generatorParams(const data::BenchmarkSpec& spec,
                                      std::uint64_t seed) {
  data::GeneratorParams gp;
  gp.dims = spec.node32 ? data::ProcessDims::node32()
                        : data::ProcessDims::node28();
  gp.seed = seed;
  return gp;
}

}  // namespace

TrainedModel trainSuiteModel(std::size_t suiteIndex, std::size_t threads) {
  const data::BenchmarkSpec spec = suiteSpec(suiteIndex);
  const gds::ClipSet clips = data::generateTrainingSet(
      generatorParams(spec, spec.seed), spec.targets, spec.name);
  core::TrainParams tp;
  tp.clip = clips.params;
  engine::RunContext ctx(threads);
  const core::Detector det = core::trainDetector(clips.clips, tp, ctx);
  std::ostringstream os;
  os.imbue(std::locale::classic());
  det.save(os);
  return {os.str(), det.kernels.size()};
}

Input makeInput(const LayoutShape& shape, std::uint64_t seed) {
  const data::BenchmarkSpec spec = suiteSpec(shape.suiteIndex);
  data::TestLayout t =
      data::generateTestLayout(generatorParams(spec, seed), shape.width,
                               shape.height, shape.sites, spec.riskyFrac);
  std::ostringstream os;
  gds::writeGdsii(os, t.layout);
  return {os.str(), std::move(t.actualHotspots)};
}

core::EvalParams evalParams(const core::Detector& det) {
  core::EvalParams ep;
  ep.extract.clip = det.params.clip;
  ep.removal.clip = det.params.clip;
  return ep;
}

Layout parseGds(const std::string& body) {
  std::istringstream is(body);
  return gds::readGdsii(is);
}

std::string reportBytes(const std::vector<ClipWindow>& reported,
                        const ClipParams& clip) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  gds::writeWindowList(os, reported, clip);
  return os.str();
}

Reference offlineReference(const core::Detector& det, const std::string& body,
                           std::size_t threads) {
  const Layout layout = parseGds(body);
  engine::RunContext ctx(threads);
  core::EvalResult res =
      core::evaluateLayout(det, layout, evalParams(det), ctx);
  Reference ref;
  ref.report = reportBytes(res.reported, det.params.clip);
  ref.reported = std::move(res.reported);
  ref.candidates = res.candidateClips;
  ref.flagged = res.flaggedBeforeRemoval;
  return ref;
}

}  // namespace perfbench
