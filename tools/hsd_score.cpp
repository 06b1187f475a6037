// CLI: score a hotspot report against a golden hotspot list (contest
// metric: hits / accuracy / extras / hit-extra ratio).
//
//   hsd_score <report.txt> <golden.txt> [--layout layout.gds]
#include <cstdio>
#include <string>

#include "args.hpp"
#include "core/metrics.hpp"
#include "gds/ascii.hpp"
#include "gds/gdsii.hpp"

int main(int argc, char** argv) {
  using namespace hsd;
  if (!tools::checkArgs(argc, argv, 2, "<report.txt> <golden.txt>",
                        {{"--layout", "x.gds"}}))
    return 2;
  try {
    const auto [reports, rp] = gds::readWindowListFile(argv[1]);
    const auto [golden, gp] = gds::readWindowListFile(argv[2]);
    if (rp != gp)
      std::fprintf(stderr,
                   "warning: report and golden clip parameters differ\n");
    const core::Score s = core::scoreReports(reports, golden);
    std::printf("#report %zu  #golden %zu\n", s.reports, s.actualHotspots);
    std::printf("#hit    %zu  accuracy %.2f%%\n", s.hits,
                100.0 * s.accuracy());
    std::printf("#extra  %zu  hit/extra %.3e\n", s.extras,
                s.hitExtraRatio());
    if (const char* path =
            tools::argString(argc, argv, "--layout", nullptr)) {
      const Layout layout = gds::readGdsiiFile(path);
      std::printf("false alarm: %.4f extras/um^2 (area %.0f um^2)\n",
                  s.falseAlarmPerUm2(layout.areaUm2()), layout.areaUm2());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
