// Wire-level conformance suite for the detection-over-HTTP plane (ctest
// label: wire; part of the TSan label set). Pins the full POST /detect
// contract of serve::DetectionEndpoint mounted on net::HttpServer:
//
//  - the identity guarantee: the report fetched over the wire is
//    byte-identical to the in-process/offline report for the same layout
//    and config — ASCII and GDSII bodies, monolithic and tiled
//    (tile-size set), with a warm-cache second POST showing nonzero
//    shared-cache hits in the response headers;
//  - chunked upload of a layout through the raw socket;
//  - typed failures: oversize body 413, malformed layout/GDSII/query
//    400, undersized halo 400, unknown content-type 415, deadline 504,
//    queue-full 429 carrying Retry-After;
//  - keep-alive reuse of one connection across an error response and a
//    successful detection;
//  - client disconnect cancelling the server-side run (observable via
//    the serve cancellation counters and the endpoint's
//    disconnect-cancel counter);
//  - 405-vs-404 precedence on the detect server (GET /detect -> 405
//    Allow: POST; unknown path -> 404);
//  - a concurrent POST hammer with every response strictly parsed and
//    byte-compared;
//  - end-to-end request observability: the client's traceparent id (or a
//    freshly minted one) echoes back as X-Trace-Id and correlates the
//    request's spans (/tracez?trace=) and log records (/logz?trace=),
//    including across the tiled fan-out's borrowed helper contexts; the
//    X-Profile opt-in returns a per-request breakdown header ending in
//    the serving model's fingerprint; and a fully observed plane
//    (tracer + log + propagation) keeps reports byte-identical across
//    threads {1,8} x {monolithic, tiled}.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/evaluator.hpp"
#include "engine/run_context.hpp"
#include "gds/ascii.hpp"
#include "gds/gdsii.hpp"
#include "mini_json.hpp"
#include "net/http.hpp"
#include "obs/admin.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "obs/trace_id.hpp"
#include "serve/detect_endpoint.hpp"
#include "serve/server.hpp"

namespace hsd::serve {
namespace {

// One shared fixture spec for the whole binary (memoized training run).
tests::FixtureSpec wireSpec() {
  tests::FixtureSpec spec;
  spec.seed = 21;
  spec.hotspots = 12;
  spec.nonHotspots = 48;
  spec.width = 20000;
  spec.height = 20000;
  spec.sites = 8;
  return spec;
}

/// The offline reference: exactly the bytes hsd_detect would write for
/// the fixture layout with default EvalParams.
const std::string& offlineReport() {
  static const std::string report = [] {
    const tests::DetectorFixture& f = tests::detectorFixture(wireSpec());
    engine::RunContext ctx(1);
    core::EvalParams ep;
    ep.extract.clip = f.detector.params.clip;
    ep.removal.clip = f.detector.params.clip;
    const core::EvalResult res =
        core::evaluateLayout(f.detector, f.test.layout, ep, ctx);
    std::ostringstream os;
    gds::writeWindowList(os, res.reported, f.detector.params.clip);
    return os.str();
  }();
  return report;
}

std::string asciiLayoutBody() {
  const tests::DetectorFixture& f = tests::detectorFixture(wireSpec());
  std::ostringstream os;
  gds::writeAsciiLayout(os, f.test.layout);
  return os.str();
}

std::string gdsiiLayoutBody() {
  const tests::DetectorFixture& f = tests::detectorFixture(wireSpec());
  std::ostringstream os;
  gds::writeGdsii(os, f.test.layout);
  return os.str();
}

/// A DetectionServer + endpoint + transport, wired the way hsd_serve
/// does it.
struct WirePlane {
  explicit WirePlane(DetectEndpointConfig dcfg = {},
                     net::HttpServerOptions ho = defaultHttpOptions(),
                     ServerConfig scfg = defaultServerConfig()) {
    server = std::make_unique<DetectionServer>(scfg);
    endpoint = std::make_unique<DetectionEndpoint>(
        *server, tests::detectorFixture(wireSpec()).detector, dcfg);
    http = std::make_unique<net::HttpServer>(ho);
    endpoint->mount(*http);
    http->start();
  }

  static ServerConfig defaultServerConfig() {
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.threadsPerContext = 1;
    return cfg;
  }

  static net::HttpServerOptions defaultHttpOptions() {
    net::HttpServerOptions ho;
    ho.maxBodyBytes = 64 << 20;  // fixture layouts exceed the 1 MiB default
    ho.handlerThreads = 4;
    return ho;
  }

  ~WirePlane() {
    // The production drain order (tools/hsd_serve): transport first, so
    // in-flight handlers resolve while workers still run.
    http->stop();
    server->shutdown();
  }

  std::uint16_t port() const { return http->port(); }

  std::unique_ptr<DetectionServer> server;
  std::unique_ptr<DetectionEndpoint> endpoint;
  std::unique_ptr<net::HttpServer> http;
};

net::HttpResult postLayout(const WirePlane& w, const std::string& target,
                           const std::string& body,
                           const std::string& contentType = "text/plain") {
  return net::httpPost("127.0.0.1", w.port(), target, body, contentType, {},
                       /*timeoutMs=*/60000);
}

/// Raw TCP exchange (verbatim request, read to EOF) for wire cases the
/// well-behaved client cannot produce.
std::string rawExchange(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0)
      << std::strerror(errno);
  timeval tv{};
  tv.tv_sec = 60;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t w =
        ::send(fd, request.data() + off, request.size() - off, MSG_NOSIGNAL);
    if (w <= 0) break;
    off += std::size_t(w);
  }
  std::string resp;
  for (;;) {
    char chunk[8192];
    const ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
    if (r <= 0) break;
    resp.append(chunk, std::size_t(r));
  }
  ::close(fd);
  return resp;
}

std::string bodyOf(const std::string& rawResponse) {
  const std::size_t headEnd = rawResponse.find("\r\n\r\n");
  return headEnd == std::string::npos ? std::string()
                                      : rawResponse.substr(headEnd + 4);
}

// ---------------------------------------------------------------------------
// Identity: the wire report is the offline report, byte for byte

TEST(DetectHttp, ReportIsByteIdenticalToOfflineForAsciiAndGdsii) {
  WirePlane w;
  const net::HttpResult ascii = postLayout(w, "/detect", asciiLayoutBody());
  ASSERT_EQ(ascii.status, 200) << ascii.body;
  EXPECT_EQ(ascii.body, offlineReport());
  ASSERT_NE(ascii.header("x-request-id"), nullptr);
  ASSERT_NE(ascii.header("x-serve-request"), nullptr);
  ASSERT_NE(ascii.header("x-candidate-clips"), nullptr);

  const net::HttpResult gds = postLayout(w, "/detect", gdsiiLayoutBody(),
                                         "application/octet-stream");
  ASSERT_EQ(gds.status, 200) << gds.body;
  EXPECT_EQ(gds.body, offlineReport());

  // Warm-cache second POST: the shared StageCache has seen this exact
  // layout, so the report must repeat AND the hit counter must be live.
  const net::HttpResult warm = postLayout(w, "/detect", asciiLayoutBody());
  ASSERT_EQ(warm.status, 200);
  EXPECT_EQ(warm.body, offlineReport());
  ASSERT_NE(warm.header("x-cache-hits"), nullptr);
  EXPECT_GT(std::stoull(*warm.header("x-cache-hits")), 0u)
      << "second POST of one layout should hit the shared cache";
}

TEST(DetectHttp, TiledPostMatchesMonolithicBytes) {
  WirePlane w;
  const net::HttpResult mono = postLayout(w, "/detect", asciiLayoutBody());
  ASSERT_EQ(mono.status, 200);
  for (const char* target :
       {"/detect?tile-size=8000", "/detect?tile-size=5000"}) {
    const net::HttpResult tiled = postLayout(w, target, asciiLayoutBody());
    ASSERT_EQ(tiled.status, 200) << tiled.body;
    EXPECT_EQ(tiled.body, mono.body) << "tiled wire report diverged for "
                                     << target;
    EXPECT_EQ(tiled.body, offlineReport());
    // The funnel counters ride the same identity contract.
    ASSERT_NE(tiled.header("x-candidate-clips"), nullptr);
    EXPECT_EQ(*tiled.header("x-candidate-clips"),
              *mono.header("x-candidate-clips"));
  }
}

// ---------------------------------------------------------------------------
// Chunked upload through the raw socket

TEST(DetectHttp, ChunkedUploadDetectsIdentically) {
  WirePlane w;
  const std::string layout = asciiLayoutBody();
  // De-frame the layout into uneven chunks; the transport must reassemble
  // the exact bytes before the endpoint parses them.
  std::ostringstream req;
  req << "POST /detect HTTP/1.1\r\nHost: t\r\nContent-Type: text/plain\r\n"
         "Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n";
  std::size_t pos = 0;
  const std::size_t sizes[] = {1, 700, 13, 4096, 257};
  std::size_t i = 0;
  while (pos < layout.size()) {
    const std::size_t n =
        std::min(sizes[i++ % 5], layout.size() - pos);
    req << std::hex << n << std::dec << "\r\n"
        << layout.substr(pos, n) << "\r\n";
    pos += n;
  }
  req << "0\r\n\r\n";
  const std::string resp = rawExchange(w.port(), req.str());
  ASSERT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos)
      << resp.substr(0, 200);
  EXPECT_EQ(bodyOf(resp), offlineReport());
}

// ---------------------------------------------------------------------------
// Typed failures

TEST(DetectHttp, OversizeBodyGets413) {
  net::HttpServerOptions ho;
  ho.maxBodyBytes = 1024;
  WirePlane w({}, ho);
  const net::HttpResult res =
      postLayout(w, "/detect", std::string(4096, 'x'));
  EXPECT_EQ(res.status, 413);
  // A body under the cap whose hierarchy would flatten past
  // gds::kMaxFlatPolygons is refused the same way, before flattening.
  const net::HttpResult huge = postLayout(w, "/detect", tests::hugeArrayGdsii(),
                                          "application/octet-stream");
  EXPECT_EQ(huge.status, 413) << huge.body;
  EXPECT_NE(huge.body.find("polygons"), std::string::npos) << huge.body;
  EXPECT_NE(w.endpoint->statsJson().find("\"413\": 1"), std::string::npos)
      << w.endpoint->statsJson();
}

TEST(DetectHttp, MalformedInputsGet400) {
  WirePlane w;
  // Garbage where the ASCII layout grammar belongs.
  EXPECT_EQ(postLayout(w, "/detect", "this is not a layout\n").status, 400);
  // Garbage where a GDSII stream belongs.
  EXPECT_EQ(postLayout(w, "/detect", "\x00\x01\x02garbage",
                       "application/octet-stream")
                .status,
            400);
  // Empty body.
  EXPECT_EQ(postLayout(w, "/detect", "").status, 400);
  // Hostile ASCII bodies: a vertex count the body cannot back (once a
  // 16 GB allocation), counts and layer ids out of range, tokens left over
  // on a line, and a body cut inside its last number.
  for (const char* body :
       {"layer 1\npoly 1000000000\n", "poly 18446744073709551615\n",
        "layer -7\n", "layer 99999999999\n", "rect 0 0 10 10 junk\n",
        "poly 3 0 0 10 0 10 10 99\n", "layer 1\nrect 0 0 10 10"}) {
    const net::HttpResult r = postLayout(w, "/detect", body);
    EXPECT_EQ(r.status, 400) << body;
    EXPECT_NE(r.body.find("ascii layout: "), std::string::npos) << r.body;
  }
  // Bad numeric query parameters and headers, rejected before any parsing
  // work: one decimal number per value, no hex floats.
  // A present value must be one the contract names: an empty or bare
  // numeric is no number, a deadline is never negative, and the removal
  // and feedback flags are 0 or 1.
  for (const char* target :
       {"/detect?bias=wat", "/detect?bias=0x1p3", "/detect?bias=",
        "/detect?bias", "/detect?tile-size=", "/detect?deadline-ms",
        "/detect?deadline-ms=-1", "/detect?removal=2", "/detect?removal=",
        "/detect?feedback=0.5", "/detect?feedback"})
    EXPECT_EQ(postLayout(w, target, asciiLayoutBody()).status, 400) << target;
  for (const char* deadline : {"0x10", "-1"})
    EXPECT_EQ(net::httpPost("127.0.0.1", w.port(), "/detect",
                            asciiLayoutBody(), "text/plain",
                            {{"X-Deadline-Ms", deadline}}, 60000)
                  .status,
              400)
        << deadline;
  // The tile size must be a whole number in [0, 2^53]: huge values would
  // overflow the integer conversion, fractions and negatives would
  // silently run untiled.
  for (const char* target :
       {"/detect?tile-size=1e300", "/detect?tile-size=0.5",
        "/detect?tile-size=-1", "/detect?tile-size=9007199254740994"}) {
    const net::HttpResult r = postLayout(w, target, asciiLayoutBody());
    EXPECT_EQ(r.status, 400) << target;
    EXPECT_NE(r.body.find("whole number"), std::string::npos) << r.body;
  }
  // A key the contract does not name — a typo, or a parameter the wire
  // no longer takes (the halo follows from the model) — is a 400 naming
  // it, never a run with the default.
  for (const auto& [target, key] :
       {std::pair{"/detect?halo=100", "'halo'"},
        std::pair{"/detect?tile-size=8000&halo=100", "'halo'"},
        std::pair{"/detect?tile-threads=2", "'tile-threads'"},
        std::pair{"/detect?tile-szie=8000", "'tile-szie'"},
        std::pair{"/detect?bias=0&=1", "''"}}) {
    const net::HttpResult r = postLayout(w, target, asciiLayoutBody());
    EXPECT_EQ(r.status, 400) << target;
    EXPECT_NE(r.body.find("unknown query parameter " + std::string(key)),
              std::string::npos)
        << r.body;
  }
}

TEST(DetectHttp, UnknownContentTypeGets415) {
  WirePlane w;
  EXPECT_EQ(
      postLayout(w, "/detect", asciiLayoutBody(), "application/json").status,
      415);
}

TEST(DetectHttp, ExpiredDeadlineGets504) {
  WirePlane w;
  const net::HttpResult res =
      postLayout(w, "/detect?deadline-ms=0.001", asciiLayoutBody());
  EXPECT_EQ(res.status, 504);
  // The header spelling of the deadline behaves identically.
  const net::HttpResult viaHeader = net::httpPost(
      "127.0.0.1", w.port(), "/detect", asciiLayoutBody(), "text/plain",
      {{"X-Deadline-Ms", "0.001"}}, 60000);
  EXPECT_EQ(viaHeader.status, 504);
}

TEST(DetectHttp, QueueFullGets429WithRetryAfter) {
  // maxQueueDepth = 0 makes admission deterministic: every POST is over
  // the bound, none reaches the queue.
  DetectEndpointConfig dcfg;
  dcfg.maxQueueDepth = 0;
  WirePlane w(dcfg);
  const net::HttpResult res = postLayout(w, "/detect", asciiLayoutBody());
  ASSERT_EQ(res.status, 429) << res.body;
  ASSERT_NE(res.header("retry-after"), nullptr)
      << "429 must carry Retry-After";
  EXPECT_GE(std::stoll(*res.header("retry-after")), 1);

  // And a plane with headroom accepts the identical request.
  WirePlane open;
  EXPECT_EQ(postLayout(open, "/detect", asciiLayoutBody()).status, 200);
}

// ---------------------------------------------------------------------------
// Keep-alive across an error response

TEST(DetectHttp, ConnectionSurvivesErrorResponseThenServes200) {
  WirePlane w;
  const std::string bad = "not a layout\n";
  const std::string good = asciiLayoutBody();
  std::ostringstream req;
  req << "POST /detect HTTP/1.1\r\nHost: t\r\nContent-Type: text/plain\r\n"
      << "Content-Length: " << bad.size() << "\r\n\r\n" << bad
      << "POST /detect HTTP/1.1\r\nHost: t\r\nContent-Type: text/plain\r\n"
      << "Content-Length: " << good.size() << "\r\nConnection: close\r\n\r\n"
      << good;
  const std::string resp = rawExchange(w.port(), req.str());
  // First response: 400, keep-alive honored; second: the real report.
  EXPECT_NE(resp.find("HTTP/1.1 400 "), std::string::npos)
      << resp.substr(0, 300);
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos)
      << resp.substr(0, 300);
  EXPECT_NE(resp.find("Connection: keep-alive"), std::string::npos);
  // The 200 body closes the stream, so the report is the tail bytes.
  const std::size_t okAt = resp.find("HTTP/1.1 200 OK");
  EXPECT_EQ(bodyOf(resp.substr(okAt)), offlineReport());
}

// ---------------------------------------------------------------------------
// Client disconnect cancels the server-side run

TEST(DetectHttp, ClientDisconnectCancelsQueuedRun) {
  // One worker, blocked by in-process submissions; the wire request
  // queues behind them. Closing the client socket must cancel it — the
  // handler's disconnect probe fires the CancelSource, and the queued
  // fast-fail path resolves kCancelled without ever running.
  ServerConfig scfg;
  scfg.workers = 1;
  scfg.threadsPerContext = 1;
  // No stage cache: every blocker runs a full evaluation. With the cache
  // on, blockers 2 and 3 were cache hits, so the worker was busy for one
  // cold run only — shorter than the handler's first 25 ms disconnect
  // probe once scoring got fast enough. Three uncached blockers (~8 ms
  // each) still sometimes drained before that probe; twelve keep the
  // worker busy for several probe periods.
  scfg.enableCache = false;
  WirePlane w({}, {}, scfg);
  const tests::DetectorFixture& f = tests::detectorFixture(wireSpec());
  core::EvalParams ep;
  ep.extract.clip = f.detector.params.clip;
  ep.removal.clip = f.detector.params.clip;
  std::vector<std::future<ServeResult>> blockers;
  for (int i = 0; i < 12; ++i)
    blockers.push_back(w.server->submit(f.detector, f.test.layout, ep));

  // Full request, then immediate close: the handler sees EOF on its
  // MSG_PEEK probe while the request waits for the busy worker.
  const std::string body = asciiLayoutBody();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(w.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::ostringstream req;
  req << "POST /detect HTTP/1.1\r\nHost: t\r\nContent-Type: text/plain\r\n"
      << "Content-Length: " << body.size() << "\r\n\r\n" << body;
  const std::string text = req.str();
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n =
        ::send(fd, text.data() + off, text.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += std::size_t(n);
  }
  ::close(fd);  // client walks away

  // The cancellation must become observable in the counters.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (w.server->stats().cancelled < 1 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(w.server->stats().cancelled, 1u)
      << "client disconnect never surfaced as a cancelled request";
  EXPECT_NE(w.endpoint->statsJson().find("\"disconnectCancels\": 1"),
            std::string::npos)
      << w.endpoint->statsJson();
  for (auto& b : blockers) EXPECT_TRUE(b.get().ok());
}

// ---------------------------------------------------------------------------
// Routing precedence on the detect plane

TEST(DetectHttp, MethodAndPathPrecedence) {
  WirePlane w;
  // GET on the known POST path: 405 naming POST.
  const net::HttpResult get = net::httpGet("127.0.0.1", w.port(), "/detect");
  EXPECT_EQ(get.status, 405);
  ASSERT_NE(get.header("allow"), nullptr);
  EXPECT_EQ(*get.header("allow"), "POST");
  // POST on an unknown path: 404, never 405.
  EXPECT_EQ(postLayout(w, "/nope", asciiLayoutBody()).status, 404);
}

// ---------------------------------------------------------------------------
// Concurrent POST hammer, every response strictly parsed

TEST(DetectHttp, ConcurrentPostsAllSucceedByteIdentically) {
  WirePlane w;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3;
  std::vector<std::thread> posters;
  std::vector<int> badStatus(kThreads, 0);
  std::vector<int> badBody(kThreads, 0);
  posters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    posters.emplace_back([&w, t, &badStatus, &badBody] {
      for (int i = 0; i < kPerThread; ++i) {
        try {
          // Alternate ASCII and GDSII bodies; all must agree.
          const bool gds = (t + i) % 2 == 0;
          const net::HttpResult res = postLayout(
              w, "/detect", gds ? gdsiiLayoutBody() : asciiLayoutBody(),
              gds ? "application/octet-stream" : "text/plain");
          if (res.status != 200) ++badStatus[std::size_t(t)];
          if (res.body != offlineReport()) ++badBody[std::size_t(t)];
        } catch (const std::exception&) {
          ++badStatus[std::size_t(t)];
        }
      }
    });
  }
  for (std::thread& p : posters) p.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(badStatus[std::size_t(t)], 0) << "thread " << t;
    EXPECT_EQ(badBody[std::size_t(t)], 0) << "thread " << t;
  }
  // Every wire request flowed through the serve path.
  EXPECT_GE(w.server->stats().ok, std::size_t(kThreads * kPerThread));
}

// ---------------------------------------------------------------------------
// End-to-end request observability

/// A fully observed server config: tracer + log recorder attached the way
/// tools/hsd_serve wires them.
ServerConfig observedServerConfig(std::shared_ptr<obs::TraceRecorder> tracer,
                                  std::shared_ptr<obs::LogRecorder> log,
                                  std::size_t workers = 2,
                                  std::size_t threadsPerContext = 1) {
  ServerConfig cfg;
  cfg.workers = workers;
  cfg.threadsPerContext = threadsPerContext;
  cfg.tracer = std::move(tracer);
  cfg.log = std::move(log);
  return cfg;
}

TEST(DetectHttp, TraceparentEchoesAndCorrelatesSpansAndLogs) {
  auto tracer = std::make_shared<obs::TraceRecorder>();
  auto log = std::make_shared<obs::LogRecorder>();
  WirePlane w({}, WirePlane::defaultHttpOptions(),
              observedServerConfig(tracer, log));
  const obs::TraceId sent = obs::makeTraceId();
  const std::string hex = obs::formatTraceId(sent);

  const net::HttpResult res = net::httpPost(
      "127.0.0.1", w.port(), "/detect", asciiLayoutBody(), "text/plain",
      {{"traceparent", obs::formatTraceparent(sent)}}, 60000);
  ASSERT_EQ(res.status, 200) << res.body;
  EXPECT_EQ(res.body, offlineReport());
  ASSERT_NE(res.header("x-trace-id"), nullptr);
  EXPECT_EQ(*res.header("x-trace-id"), hex);

  // The request's story is visible from both admin sides, keyed by the
  // same id the client holds.
  obs::AdminServer admin;
  admin.setTracer(tracer);
  admin.setLog(log);
  admin.start();
  const net::HttpResult tracez =
      net::httpGet("127.0.0.1", admin.port(), "/tracez?trace=" + hex);
  ASSERT_EQ(tracez.status, 200);
  EXPECT_TRUE(hsd::tests::parsesAsJson(tracez.body)) << tracez.body;
  EXPECT_EQ(tracez.body.find("\"returnedSpans\": 0"), std::string::npos)
      << tracez.body;
  EXPECT_NE(tracez.body.find("serve/run"), std::string::npos);
  EXPECT_NE(tracez.body.find("\"cat\": \"stage\""), std::string::npos)
      << "engine stage spans should carry the request trace";
  const net::HttpResult logz =
      net::httpGet("127.0.0.1", admin.port(), "/logz?trace=" + hex);
  ASSERT_EQ(logz.status, 200);
  EXPECT_NE(logz.body.find("detect request"), std::string::npos)
      << logz.body;
  EXPECT_NE(logz.body.find("request complete"), std::string::npos);
  EXPECT_EQ(logz.body.find("\"returnedRecords\": 0"), std::string::npos);

  // No traceparent: a fresh id is minted and echoed.
  const net::HttpResult fresh = postLayout(w, "/detect", asciiLayoutBody());
  ASSERT_NE(fresh.header("x-trace-id"), nullptr);
  obs::TraceId minted;
  ASSERT_TRUE(obs::parseTraceId(*fresh.header("x-trace-id"), minted));
  EXPECT_NE(minted, sent);

  // An invalid traceparent restarts the trace (W3C rule) — never a 400.
  const net::HttpResult bad = net::httpPost(
      "127.0.0.1", w.port(), "/detect", asciiLayoutBody(), "text/plain",
      {{"traceparent", "garbage-header"}}, 60000);
  ASSERT_EQ(bad.status, 200);
  ASSERT_NE(bad.header("x-trace-id"), nullptr);
  EXPECT_TRUE(obs::parseTraceId(*bad.header("x-trace-id"), minted));
}

TEST(DetectHttp, TiledFanoutCorrelatesAcrossBorrowedContexts) {
  auto tracer = std::make_shared<obs::TraceRecorder>();
  auto log = std::make_shared<obs::LogRecorder>();
  log->setMinLevel(obs::LogLevel::kDebug);  // admit per-tile records
  // Three pool contexts: the tiled run borrows the two idle ones as
  // helpers, so tile work lands on threads the request never owned.
  WirePlane w({}, WirePlane::defaultHttpOptions(),
              observedServerConfig(tracer, log, /*workers=*/3));
  const obs::TraceId sent = obs::makeTraceId();
  const net::HttpResult res = net::httpPost(
      "127.0.0.1", w.port(), "/detect?tile-size=5000",
      asciiLayoutBody(), "text/plain",
      {{"traceparent", obs::formatTraceparent(sent)}}, 60000);
  ASSERT_EQ(res.status, 200) << res.body;
  EXPECT_EQ(res.body, offlineReport());
  ASSERT_NE(res.header("x-trace-id"), nullptr);
  EXPECT_EQ(*res.header("x-trace-id"), obs::formatTraceId(sent));

  // Spans carrying this trace must span multiple recorder threads: the
  // serve worker plus at least one borrowed helper drain.
  std::set<std::uint32_t> tids;
  std::size_t traced = 0;
  for (const auto& se : tracer->snapshot())
    if (se.event.trace == sent) {
      ++traced;
      tids.insert(se.tid);
    }
  EXPECT_GT(traced, 1u);
  EXPECT_GE(tids.size(), 2u)
      << "tile fan-out should stamp the trace across borrowed contexts";

  // Per-tile log records carry the id too — from more than one thread.
  std::set<std::uint32_t> logTids;
  std::size_t tileRecords = 0;
  for (const auto& sr : log->snapshot())
    if (sr.record.trace == sent &&
        std::strncmp(sr.record.message, "tile eval", 9) == 0) {
      ++tileRecords;
      logTids.insert(sr.tid);
    }
  EXPECT_GT(tileRecords, 1u);
  EXPECT_GE(logTids.size(), 2u);
}

TEST(DetectHttp, ProfileHeaderOptInReturnsPerRequestBreakdown) {
  WirePlane w;
  // Off by default: no X-Profile header on a plain POST.
  const net::HttpResult plain = postLayout(w, "/detect", asciiLayoutBody());
  ASSERT_EQ(plain.status, 200);
  EXPECT_EQ(plain.header("x-profile"), nullptr);

  const net::HttpResult res = net::httpPost(
      "127.0.0.1", w.port(), "/detect", asciiLayoutBody(), "text/plain",
      {{"X-Profile", "1"}}, 60000);
  ASSERT_EQ(res.status, 200) << res.body;
  EXPECT_EQ(res.body, offlineReport());  // profiling never perturbs output
  ASSERT_NE(res.header("x-profile"), nullptr);
  const std::string& profile = *res.header("x-profile");
  EXPECT_TRUE(hsd::tests::parsesAsJson(profile)) << profile;
  for (const char* field :
       {"\"wireId\"", "\"status\"", "\"queueSeconds\"", "\"runSeconds\"",
        "\"arenaReservedBytes\"", "\"cache\"", "\"stages\""})
    EXPECT_NE(profile.find(field), std::string::npos) << profile;
  // The serving model's identity closes the object: 16 hex digits of
  // Detector::fingerprint().
  const std::string modelKey = ", \"model\": \"";
  const std::size_t at = profile.rfind(modelKey);
  ASSERT_NE(at, std::string::npos) << profile;
  const std::string hex = profile.substr(at + modelKey.size());
  ASSERT_EQ(hex.size(), 16u + 2u) << profile;  // digits + closing "}
  EXPECT_EQ(hex.substr(16), "\"}") << profile;
  EXPECT_EQ(std::strtoull(hex.substr(0, 16).c_str(), nullptr, 16),
            tests::detectorFixture(wireSpec()).detector.fingerprint())
      << profile;
  // The profile is also kept in the endpoint's recent-profiles ring.
  const std::string stats = w.endpoint->statsJson();
  EXPECT_TRUE(hsd::tests::parsesAsJson(stats)) << stats;
  EXPECT_NE(stats.find("\"recentProfiles\""), std::string::npos);
  EXPECT_NE(stats.find("\"runSeconds\""), std::string::npos);
}

TEST(DetectHttp, ObservedPlaneKeepsReportsByteIdentical) {
  // Full observability on (tracer + log + trace propagation): reports
  // stay byte-identical to the unobserved offline run across thread
  // counts and the monolithic/tiled split.
  for (const std::size_t threads : {std::size_t(1), std::size_t(8)}) {
    auto tracer = std::make_shared<obs::TraceRecorder>();
    auto log = std::make_shared<obs::LogRecorder>();
    log->setMinLevel(obs::LogLevel::kTrace);
    WirePlane w({}, WirePlane::defaultHttpOptions(),
                observedServerConfig(tracer, log, /*workers=*/2, threads));
    for (const char* target : {"/detect", "/detect?tile-size=5000"}) {
      const net::HttpResult res = net::httpPost(
          "127.0.0.1", w.port(), target, asciiLayoutBody(), "text/plain",
          {{"traceparent", obs::formatTraceparent(obs::makeTraceId())}},
          60000);
      ASSERT_EQ(res.status, 200) << target << " threads=" << threads;
      EXPECT_EQ(res.body, offlineReport())
          << "observed report diverged for " << target << " at threads="
          << threads;
    }
    EXPECT_GT(log->recordCount(), 0u);
  }
}

}  // namespace
}  // namespace hsd::serve
