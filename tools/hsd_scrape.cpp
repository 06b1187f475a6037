// CLI: curl-free HTTP client against the embedded admin server, the
// detection wire plane, or any plain HTTP endpoint — the scrape/POST
// client of tests/tools_smoke.sh and the verify drive steps, built on
// net::httpGet / net::httpPost.
//
//   hsd_scrape <host> <port> <path> [--post <file>] [--content-type <ct>]
//              [--timeout-ms <n>] [-H "Name: value"]... [-v]
//
// Without --post: GET <path>. With --post: POST the file's bytes as the
// request body (--content-type defaults to application/octet-stream —
// right for GDSII; use text/plain for the ASCII layout format).
// -H adds a request header (repeatable; "Name: value" form, curl-style)
// — how tools_smoke.sh sends a traceparent and X-Profile. --timeout-ms
// bounds the whole exchange (default 5000 for GET, 30000 for POST).
// -v prints the response status and headers to stderr.
//
// Prints the response body to stdout. Exit 0 on a 2xx status, 1 on any
// other status or transport failure (the status line goes to stderr so
// the body stays pipeable).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "args.hpp"
#include "net/http.hpp"
#include "text/text_cursor.hpp"

using namespace hsd::tools;

namespace {

/// Every -H occurrence, split at the first ':' (value whitespace-trimmed
/// on the left, curl-style). A malformed header is a usage error.
bool collectHeaders(int argc, char** argv,
                    std::vector<std::pair<std::string, std::string>>& out) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "-H") != 0) continue;
    const std::string h = argv[i + 1];
    const std::size_t colon = h.find(':');
    if (colon == 0 || colon == std::string::npos) {
      std::fprintf(stderr, "error: bad -H header '%s' (want 'Name: value')\n",
                   h.c_str());
      return false;
    }
    std::size_t v = colon + 1;
    while (v < h.size() && h[v] == ' ') ++v;
    out.emplace_back(h.substr(0, colon), h.substr(v));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (!checkArgs(argc, argv, 3, "<host> <port> <path>",
                 {{"--post", "<file>"}, {"--content-type", "<ct>"},
                  {"--timeout-ms", "<n>"}, {"-H", "\"Name: value\""},
                  {"-v"}}))
    return 2;
  const std::optional<std::uint16_t> port =
      hsd::text::parseNumber<std::uint16_t>(argv[2]);
  if (!port || *port == 0) {
    std::fprintf(stderr, "error: bad port '%s'\n", argv[2]);
    return 2;
  }
  const char* postFile = argString(argc, argv, "--post", nullptr);
  const char* contentType =
      argString(argc, argv, "--content-type", "application/octet-stream");
  const bool verbose = hasFlag(argc, argv, "-v");
  const char* timeoutArg = argString(argc, argv, "--timeout-ms", nullptr);
  int timeoutMs = postFile != nullptr ? 30000 : 5000;
  if (timeoutArg != nullptr) {
    const std::optional<int> t = hsd::text::parseNumber<int>(timeoutArg);
    if (!t || *t <= 0) {
      std::fprintf(stderr, "error: bad --timeout-ms '%s'\n", timeoutArg);
      return 2;
    }
    timeoutMs = *t;
  }
  std::vector<std::pair<std::string, std::string>> headers;
  if (!collectHeaders(argc, argv, headers)) return 2;
  try {
    hsd::net::HttpResult res;
    if (postFile != nullptr) {
      std::ifstream in(postFile, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "error: cannot open %s\n", postFile);
        return 2;
      }
      std::ostringstream body;
      body << in.rdbuf();
      res = hsd::net::httpPost(argv[1], *port, argv[3], body.str(),
                               contentType, headers, timeoutMs);
    } else {
      res = hsd::net::httpGet(argv[1], *port, argv[3], timeoutMs, headers);
    }
    if (verbose) {
      std::fprintf(stderr, "< HTTP %d\n", res.status);
      for (const auto& [name, value] : res.headers)
        std::fprintf(stderr, "< %s: %s\n", name.c_str(), value.c_str());
    }
    std::fwrite(res.body.data(), 1, res.body.size(), stdout);
    if (!res.ok()) {
      std::fprintf(stderr, "hsd_scrape: HTTP %d for %s\n", res.status,
                   argv[3]);
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hsd_scrape: %s\n", e.what());
    return 1;
  }
}
