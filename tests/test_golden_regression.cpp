// Golden end-to-end regression harness. Two deterministic seeded layouts
// (src/data generator) are trained on and evaluated; the canonicalized
// report (tests/common.hpp canonicalReport: summary counters + sorted
// windows) is byte-compared against goldens committed under tests/golden/.
//
// Any change to generation, training, extraction, evaluation, or removal
// that alters reported hotspots fails here with a first-difference excerpt
// naming the exact line that moved.
//
// Regenerating goldens after an *intentional* behavior change:
//
//   HSD_UPDATE_GOLDEN=1 ctest -R Golden --output-on-failure
//
// (or run the test_golden_regression binary directly with the variable
// set). The test then rewrites tests/golden/*.txt in the source tree and
// reports the refreshed paths; commit the diff alongside the change that
// caused it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "core/evaluator.hpp"
#include "engine/run_context.hpp"
#include "gds/ascii.hpp"
#include "net/http.hpp"
#include "serve/detect_endpoint.hpp"
#include "serve/server.hpp"

#ifndef HSD_GOLDEN_DIR
#error "test_golden_regression.cpp requires HSD_GOLDEN_DIR (see CMakeLists)"
#endif

namespace hsd::core {
namespace {

// gtest names each instantiation after a byte dump of its parameter, and
// gtest_discover_tests bakes that dump into the ctest test name. The tag is
// therefore stored inline: a `const char*` member would put a string
// literal's address, which ASLR moves on every run, into those names.
struct GoldenCase {
  char seedTag[8];  ///< golden file stem is "eval_seed" + seedTag
  tests::FixtureSpec spec;
};

// Two different seeds so a regression that happens to cancel out on one
// arrangement still trips on the other.
const GoldenCase kCases[] = {
    {"5",
     {.seed = 5, .hotspots = 20, .nonHotspots = 80, .width = 24000,
      .height = 24000, .sites = 12}},
    {"11",
     {.seed = 11, .hotspots = 24, .nonHotspots = 90, .width = 26000,
      .height = 26000, .sites = 14}},
};

std::string stem(const GoldenCase& c) {
  return std::string("eval_seed") + c.seedTag;
}

std::string goldenPath(const GoldenCase& c) {
  return std::string(HSD_GOLDEN_DIR) + "/" + stem(c) + ".txt";
}

std::string actualReport(const GoldenCase& c) {
  const tests::DetectorFixture& f = tests::detectorFixture(c.spec);
  engine::RunContext ctx(2);
  const EvalResult res = evaluateLayout(f.detector, f.test.layout,
                                        EvalParams{}, ctx);
  return tests::canonicalReport(res);
}

class GoldenRegression : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenRegression, ReportMatchesCommittedGolden) {
  const GoldenCase& c = GetParam();
  const std::string actual = actualReport(c);
  const std::string path = goldenPath(c);

  if (std::getenv("HSD_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << actual;
    out.close();
    ASSERT_TRUE(out.good()) << "short write to golden " << path;
    GTEST_SKIP() << "golden regenerated: " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden " << path
      << " — generate it with HSD_UPDATE_GOLDEN=1 and commit it";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();

  EXPECT_EQ(golden, actual)
      << "report diverged from " << path << "\n"
      << tests::firstDiff(golden, actual) << "\n"
      << "If this change is intentional, regenerate with "
         "HSD_UPDATE_GOLDEN=1 (see header).";
}

TEST_P(GoldenRegression, TiledEvaluationMatchesCommittedGolden) {
  // The tiled path must reproduce the SAME committed goldens as the
  // monolithic path — tiling is a schedule, never a behavior change, so
  // goldens are shared and never regenerated for it (the
  // HSD_UPDATE_GOLDEN writer above stays monolithic-only).
  const GoldenCase& c = GetParam();
  if (std::getenv("HSD_UPDATE_GOLDEN") != nullptr)
    GTEST_SKIP() << "goldens regenerate from the monolithic path only";

  const std::string path = goldenPath(c);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();

  const tests::DetectorFixture& f = tests::detectorFixture(c.spec);
  for (const Coord tileSize : {Coord(5000), Coord(11000)}) {
    for (const std::size_t threads : {std::size_t(1), std::size_t(8)}) {
      EvalParams ep;
      ep.tiling.tileSize = tileSize;
      engine::RunContext ctx(threads);
      const std::string actual = tests::canonicalReport(
          evaluateLayout(f.detector, f.test.layout, ep, ctx));
      EXPECT_EQ(golden, actual)
          << "tiled run (tileSize=" << tileSize << ", threads=" << threads
          << ") diverged from " << path << "\n"
          << tests::firstDiff(golden, actual);
    }
  }
}

TEST_P(GoldenRegression, WireEvaluationMatchesCommittedGolden) {
  // The over-the-wire variant: POST /detect against the same committed
  // goldens. Like the tiled variant, the wire plane is transport, never a
  // behavior change — goldens are shared with the monolithic path and the
  // HSD_UPDATE_GOLDEN writer stays monolithic-only. The canonical report
  // is reconstructed from the response: reported windows from the body
  // (windows format), funnel counters from the X-Candidate-Clips /
  // X-Flagged-Before-Removal headers.
  const GoldenCase& c = GetParam();
  if (std::getenv("HSD_UPDATE_GOLDEN") != nullptr)
    GTEST_SKIP() << "goldens regenerate from the monolithic path only";

  const std::string path = goldenPath(c);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();

  const tests::DetectorFixture& f = tests::detectorFixture(c.spec);
  serve::ServerConfig scfg;
  scfg.workers = 2;
  scfg.threadsPerContext = 1;
  serve::DetectionServer server(scfg);
  serve::DetectionEndpoint endpoint(server, f.detector);
  net::HttpServerOptions ho;
  ho.maxBodyBytes = 64 << 20;
  net::HttpServer http(ho);
  endpoint.mount(http);
  http.start();

  std::ostringstream layoutBody;
  gds::writeAsciiLayout(layoutBody, f.test.layout);

  for (const char* target : {"/detect", "/detect?tile-size=8000"}) {
    const net::HttpResult res =
        net::httpPost("127.0.0.1", http.port(), target, layoutBody.str(),
                      "text/plain", {}, 120000);
    ASSERT_EQ(res.status, 200) << target << ": " << res.body;
    ASSERT_NE(res.header("x-candidate-clips"), nullptr);
    ASSERT_NE(res.header("x-flagged-before-removal"), nullptr);

    std::istringstream body(res.body);
    EvalResult wire;
    wire.reported = gds::readWindowList(body).first;
    wire.candidateClips = std::stoull(*res.header("x-candidate-clips"));
    wire.flaggedBeforeRemoval =
        std::stoull(*res.header("x-flagged-before-removal"));
    const std::string actual = tests::canonicalReport(wire);
    EXPECT_EQ(golden, actual)
        << "wire run (" << target << ") diverged from " << path << "\n"
        << tests::firstDiff(golden, actual);
  }

  http.stop();
  server.shutdown();
}

TEST_P(GoldenRegression, EvaluationIsRunToRunDeterministic) {
  // The harness is only meaningful if two in-process runs agree with each
  // other (threads=1 vs threads=8 included — the engine's determinism
  // guarantee).
  const GoldenCase& c = GetParam();
  const tests::DetectorFixture& f = tests::detectorFixture(c.spec);
  engine::RunContext serial(1);
  engine::RunContext wide(8);
  const std::string a = tests::canonicalReport(
      evaluateLayout(f.detector, f.test.layout, EvalParams{}, serial));
  const std::string b = tests::canonicalReport(
      evaluateLayout(f.detector, f.test.layout, EvalParams{}, wide));
  EXPECT_EQ(a, b) << tests::firstDiff(a, b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenRegression, ::testing::ValuesIn(kCases),
                         [](const auto& info) {
                           return stem(info.param);
                         });

TEST(GoldenRegression, InjectedChangeFailsLoudlyWithExcerpt) {
  // Self-test of the failure path: a one-byte perturbation of a canonical
  // report must produce a non-empty, line-pinpointing diff excerpt.
  const std::string golden = actualReport(kCases[0]);
  ASSERT_FALSE(golden.empty());
  std::string mutated = golden;
  mutated[mutated.size() / 2] ^= 1;
  const std::string diff = tests::firstDiff(golden, mutated);
  EXPECT_NE(diff.find("first difference at line"), std::string::npos) << diff;
  EXPECT_NE(diff.find("golden:"), std::string::npos);
  EXPECT_NE(diff.find("actual:"), std::string::npos);
  // And identical inputs report no difference.
  EXPECT_TRUE(tests::firstDiff(golden, golden).empty());
}

}  // namespace
}  // namespace hsd::core
