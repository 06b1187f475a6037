// Transport + admin-surface tests (ctest label: net). Pins the src/net
// HTTP/1.1 listener and the obs::AdminServer built on it:
//  - routing (GET/HEAD/POST), query params, 404 endpoint listing, HEAD
//    semantics, 405-before-404 precedence with the Allow header;
//  - the parsing limits: malformed -> 400, oversized header -> 431,
//    oversized body -> 413 (Content-Length and chunked), chunked bodies
//    decoded, Content-Length+Transfer-Encoding smuggling -> 400;
//  - the connection-close contract: transport/parse errors (400 framing,
//    413, 431) close; application responses (404, 405, handler 500)
//    honor keep-alive — the request was fully read, so the stream stays
//    in sync;
//  - keep-alive serves several requests on one connection (including
//    after an application error); stop() is graceful and idempotent;
//    httpGet/httpPost fail loudly on a dead port;
//  - AdminServer endpoint contracts: /healthz, /readyz readiness flips
//    (plus the ?degraded JSON detail view), /metrics (Prometheus 0.0.4,
//    mount order + self-metrics), /statsz (JSON; throwing providers
//    degrade, never fail the scrape; SLO section when mounted), /tracez
//    (non-destructive snapshot, ?limit=, ?trace= filtering, one span's
//    exact bytes next to its Chrome-JSON rendering), /logz
//    (JSON-lines, ?level=/?trace= filters), /sloz, and the shared
//    query-param strictness (junk ?limit= / ?trace= -> 400, never a
//    silent default);
//  - the concurrent-scrape hammer: many client threads scraping every
//    endpoint while a DetectionServer runs real detection traffic — every
//    response parses; run under TSan via the `net` label.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "mini_json.hpp"
#include "net/http.hpp"
#include "obs/admin.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "obs/trace_id.hpp"
#include "serve/server.hpp"

namespace hsd::net {
namespace {

using hsd::tests::parsesAsJson;

// Raw TCP client: send `request` verbatim, read until EOF. Lets the tests
// exercise wire-level cases (malformed requests, keep-alive pipelining)
// that the well-behaved httpGet client cannot produce.
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
  tv.tv_sec = 5;
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
    char chunk[4096];
    const ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
    if (r <= 0) break;
    resp.append(chunk, std::size_t(r));
  }
  ::close(fd);
  return resp;
}

int countOccurrences(const std::string& text, const std::string& needle) {
  int n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size()))
    ++n;
  return n;
}

// ---------------------------------------------------------------------------
// HttpServer: routing and the happy path

TEST(HttpServer, RoutesRequestsAndParsesQueryParams) {
  HttpServer server;
  server.handle("/hello", [](const HttpRequest& req) {
    std::string who = req.queryParam("name");
    if (who.empty()) who = "anonymous";
    EXPECT_NE(req.header("host"), nullptr);
    return HttpResponse::text(200, "hello " + who + "\n");
  });
  server.start();
  ASSERT_NE(server.port(), 0);

  const HttpResult plain = httpGet("127.0.0.1", server.port(), "/hello");
  EXPECT_EQ(plain.status, 200);
  EXPECT_EQ(plain.body, "hello anonymous\n");
  EXPECT_NE(plain.contentType.find("text/plain"), std::string::npos);

  const HttpResult q =
      httpGet("127.0.0.1", server.port(), "/hello?name=world&x=1");
  EXPECT_EQ(q.status, 200);
  EXPECT_EQ(q.body, "hello world\n");
}

TEST(HttpServer, UnknownPathGets404ListingEndpoints) {
  HttpServer server;
  server.handle("/a", [](const HttpRequest&) {
    return HttpResponse::text(200, "a");
  });
  server.handle("/b", [](const HttpRequest&) {
    return HttpResponse::text(200, "b");
  });
  server.start();
  const HttpResult res = httpGet("127.0.0.1", server.port(), "/missing");
  EXPECT_EQ(res.status, 404);
  EXPECT_NE(res.body.find("/missing"), std::string::npos);
  EXPECT_NE(res.body.find("/a"), std::string::npos);
  EXPECT_NE(res.body.find("/b"), std::string::npos);
}

TEST(HttpServer, HeadReturnsHeadersWithoutBody) {
  HttpServer server;
  server.handle("/x", [](const HttpRequest&) {
    return HttpResponse::text(200, "body-bytes");
  });
  server.start();
  const std::string resp = rawExchange(
      server.port(), "HEAD /x HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos) << resp;
  EXPECT_NE(resp.find("Content-Length: 10"), std::string::npos) << resp;
  // The header block ends the response: no body follows for HEAD.
  EXPECT_EQ(resp.substr(resp.find("\r\n\r\n") + 4), "");
}

TEST(HttpServer, HandlerExceptionBecomes500) {
  HttpServer server;
  server.handle("/boom", [](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error("kaboom");
  });
  server.start();
  const HttpResult res = httpGet("127.0.0.1", server.port(), "/boom");
  EXPECT_EQ(res.status, 500);
  EXPECT_NE(res.body.find("kaboom"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Parsing limits on the wire

TEST(HttpServer, MalformedRequestLineGets400) {
  HttpServer server;
  server.start();
  const std::string resp =
      rawExchange(server.port(), "THIS IS NOT HTTP\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.1 400 Bad Request"), std::string::npos) << resp;
}

TEST(HttpServer, OversizedHeadersGet431) {
  HttpServerOptions opts;
  opts.maxHeaderBytes = 128;  // constructor floor; tiny on purpose
  HttpServer server(opts);
  server.start();
  const std::string resp = rawExchange(
      server.port(), "GET / HTTP/1.1\r\nX-Pad: " + std::string(4096, 'x') +
                         "\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.1 431 "), std::string::npos) << resp;
}

TEST(HttpServer, OversizedBodyGets413) {
  HttpServer server;  // default 1 MiB body cap
  server.start();
  const std::string resp = rawExchange(
      server.port(),
      "GET / HTTP/1.1\r\nContent-Length: 16777216\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.1 413 "), std::string::npos) << resp;
}

// ---------------------------------------------------------------------------
// Chunked uploads: decoded, capped, and strict about framing

TEST(HttpServer, ChunkedBodyIsDecodedAndDelivered) {
  HttpServer server;
  server.handlePost("/echo", [](const HttpRequest& req) {
    return HttpResponse::text(200, req.body);
  });
  server.start();
  // Two chunks with an extension and a trailer — all must be tolerated.
  const std::string resp = rawExchange(
      server.port(),
      "POST /echo HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n"
      "Connection: close\r\n\r\n"
      "5;ext=1\r\nhello\r\n"
      "7\r\n, world\r\n"
      "0\r\nX-Trailer: v\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos) << resp;
  EXPECT_EQ(resp.substr(resp.find("\r\n\r\n") + 4), "hello, world");
}

TEST(HttpServer, MalformedChunkFramingGets400) {
  HttpServer server;
  server.handlePost("/echo", [](const HttpRequest& req) {
    return HttpResponse::text(200, req.body);
  });
  server.start();
  // Chunk data not terminated by CRLF: unrecoverable framing error.
  const std::string badData = rawExchange(
      server.port(),
      "POST /echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5\r\nhelloXX0\r\n\r\n");
  EXPECT_NE(badData.find("HTTP/1.1 400 "), std::string::npos) << badData;
  // Garbage where the hex chunk size belongs.
  const std::string badSize = rawExchange(
      server.port(),
      "POST /echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "zz\r\nhello\r\n0\r\n\r\n");
  EXPECT_NE(badSize.find("HTTP/1.1 400 "), std::string::npos) << badSize;
}

TEST(HttpServer, ChunkedBodyOverCapGets413) {
  HttpServerOptions opts;
  opts.maxBodyBytes = 16;
  HttpServer server(opts);
  server.handlePost("/echo", [](const HttpRequest& req) {
    return HttpResponse::text(200, req.body);
  });
  server.start();
  const std::string resp = rawExchange(
      server.port(),
      "POST /echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "20\r\n" + std::string(32, 'x') + "\r\n0\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.1 413 "), std::string::npos) << resp;
}

TEST(HttpServer, ContentLengthWithTransferEncodingGets400) {
  // Both framings at once is the classic request-smuggling vector.
  HttpServer server;
  server.handlePost("/echo", [](const HttpRequest& req) {
    return HttpResponse::text(200, req.body);
  });
  server.start();
  const std::string resp = rawExchange(
      server.port(),
      "POST /echo HTTP/1.1\r\nContent-Length: 5\r\n"
      "Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.1 400 "), std::string::npos) << resp;
}

TEST(HttpServer, FramingNumbersAreBareDigits) {
  // RFC 9112: Content-Length is 1*DIGIT and a chunk size 1*HEXDIG. The C
  // library conversions behind them took a sign and a 0x prefix:
  // Content-Length "+5" and chunk sizes "0x5" / "+5" got a 200, and "-1"
  // wrapped to 2^64 - 1 (a 413).
  HttpServer server;
  server.handlePost("/echo", [](const HttpRequest& req) {
    return HttpResponse::text(200, req.body);
  });
  server.start();
  const auto withLength = [&](const std::string& length) {
    return rawExchange(server.port(), "POST /echo HTTP/1.1\r\nContent-Length: " +
                                          length + "\r\n\r\nhello");
  };
  const auto withChunk = [&](const std::string& size) {
    return rawExchange(server.port(),
                       "POST /echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
                       "Connection: close\r\n\r\n" +
                           size + "\r\nhello\r\n0\r\n\r\n");
  };
  for (const char* bad : {"+5", "-1", "0x5", "5x", "5 5", "99999999999999999999"})
    EXPECT_NE(withLength(bad).find("HTTP/1.1 400 "), std::string::npos) << bad;
  for (const char* bad : {"0x5", "+5", "-5", " 5", "5x", ";ext"})
    EXPECT_NE(withChunk(bad).find("HTTP/1.1 400 "), std::string::npos) << bad;
  // Bare digits still frame, and blanks before a chunk extension are
  // allowed.
  const std::string ext = withChunk("5 ;ext=1");
  EXPECT_EQ(ext.substr(ext.find("\r\n\r\n") + 4), "hello");
  const std::string ok = rawExchange(
      server.port(),
      "POST /echo HTTP/1.1\r\nContent-Length: 5\r\nConnection: close\r\n"
      "\r\nhello");
  EXPECT_NE(ok.find("HTTP/1.1 200 "), std::string::npos) << ok;
}

// ---------------------------------------------------------------------------
// Method routing: 405-before-404 precedence and the Allow header

TEST(HttpServer, WrongMethodOnKnownPathGets405WithAllow) {
  HttpServer server;
  server.handle("/x", [](const HttpRequest&) {
    return HttpResponse::text(200, "x");
  });
  server.handlePost("/submit", [](const HttpRequest& req) {
    return HttpResponse::text(200, req.body);
  });
  server.start();
  // POST to a GET-only path: 405 naming GET, HEAD.
  const std::string postToGet = rawExchange(
      server.port(),
      "POST /x HTTP/1.1\r\nContent-Length: 2\r\nConnection: close\r\n\r\nhi");
  EXPECT_NE(postToGet.find("HTTP/1.1 405 "), std::string::npos) << postToGet;
  EXPECT_NE(postToGet.find("Allow: GET, HEAD"), std::string::npos)
      << postToGet;
  // GET to a POST-only path: 405 naming POST.
  const HttpResult getToPost = httpGet("127.0.0.1", server.port(), "/submit");
  EXPECT_EQ(getToPost.status, 405);
  ASSERT_NE(getToPost.header("allow"), nullptr);
  EXPECT_EQ(*getToPost.header("allow"), "POST");
  // Unknown path: 404 whatever the method — 405 is reserved for known
  // paths (the precedence contract).
  const HttpResult unknown = httpPost("127.0.0.1", server.port(), "/nope",
                                      "body", "text/plain");
  EXPECT_EQ(unknown.status, 404);
}

TEST(HttpServer, GetAndPostCoexistOnOnePath) {
  HttpServer server;
  server.handle("/r", [](const HttpRequest&) {
    return HttpResponse::text(200, "got GET");
  });
  server.handlePost("/r", [](const HttpRequest& req) {
    return HttpResponse::text(200, "got POST: " + req.body);
  });
  server.start();
  EXPECT_EQ(httpGet("127.0.0.1", server.port(), "/r").body, "got GET");
  EXPECT_EQ(httpPost("127.0.0.1", server.port(), "/r", "hi", "text/plain")
                .body,
            "got POST: hi");
}

// ---------------------------------------------------------------------------
// The connection-close contract, pinned per error class

TEST(HttpServer, ParseErrorsCloseTheConnection) {
  HttpServerOptions opts;
  opts.maxHeaderBytes = 128;
  opts.maxBodyBytes = 64;
  HttpServer server(opts);
  server.handlePost("/echo", [](const HttpRequest& req) {
    return HttpResponse::text(200, req.body);
  });
  server.start();
  // Each transport-level failure must answer Connection: close — the
  // request stream cannot be resynchronized past a framing error.
  const std::string malformed =
      rawExchange(server.port(), "NOT HTTP AT ALL\r\n\r\n");
  EXPECT_NE(malformed.find("HTTP/1.1 400 "), std::string::npos) << malformed;
  EXPECT_NE(malformed.find("Connection: close"), std::string::npos)
      << malformed;
  const std::string oversizedBody = rawExchange(
      server.port(), "POST /echo HTTP/1.1\r\nContent-Length: 4096\r\n\r\n");
  EXPECT_NE(oversizedBody.find("HTTP/1.1 413 "), std::string::npos)
      << oversizedBody;
  EXPECT_NE(oversizedBody.find("Connection: close"), std::string::npos)
      << oversizedBody;
  const std::string oversizedHead = rawExchange(
      server.port(),
      "GET /echo HTTP/1.1\r\nX-Pad: " + std::string(4096, 'x') + "\r\n\r\n");
  EXPECT_NE(oversizedHead.find("HTTP/1.1 431 "), std::string::npos)
      << oversizedHead;
  EXPECT_NE(oversizedHead.find("Connection: close"), std::string::npos)
      << oversizedHead;
}

TEST(HttpServer, ApplicationErrorsKeepTheConnectionAlive) {
  HttpServer server;
  server.handle("/ok", [](const HttpRequest&) {
    return HttpResponse::text(200, "fine\n");
  });
  server.handle("/boom", [](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error("bang");
  });
  server.start();
  // One connection: 404, 405, handler-500 — then a 200 must still work.
  // Application errors consumed their request, so keep-alive holds.
  const std::string resp = rawExchange(
      server.port(),
      "GET /missing HTTP/1.1\r\nHost: t\r\n\r\n"
      "POST /ok HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"
      "GET /boom HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /ok HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.1 404 "), std::string::npos) << resp;
  EXPECT_NE(resp.find("HTTP/1.1 405 "), std::string::npos) << resp;
  EXPECT_NE(resp.find("HTTP/1.1 500 "), std::string::npos) << resp;
  EXPECT_NE(resp.find("fine\n"), std::string::npos) << resp;
  EXPECT_EQ(countOccurrences(resp, "HTTP/1.1 "), 4) << resp;
  EXPECT_EQ(countOccurrences(resp, "Connection: keep-alive"), 3) << resp;
}

// ---------------------------------------------------------------------------
// The httpPost client

TEST(HttpPost, SendsBodyHeadersAndParsesResponse) {
  HttpServer server;
  server.handlePost("/in", [](const HttpRequest& req) {
    const std::string* ct = req.header("content-type");
    const std::string* extra = req.header("x-extra");
    HttpResponse res = HttpResponse::text(
        201, "ct=" + (ct ? *ct : "") + " extra=" + (extra ? *extra : "") +
                 " body=" + req.body);
    res.withHeader("X-Answer", "42");
    return res;
  });
  server.start();
  const HttpResult res =
      httpPost("127.0.0.1", server.port(), "/in", "payload", "text/plain",
               {{"X-Extra", "v1"}});
  EXPECT_EQ(res.status, 201);
  EXPECT_EQ(res.body, "ct=text/plain extra=v1 body=payload");
  ASSERT_NE(res.header("x-answer"), nullptr);
  EXPECT_EQ(*res.header("x-answer"), "42");
  EXPECT_NE(res.contentType.find("text/plain"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Keep-alive and lifecycle

TEST(HttpServer, KeepAliveServesTwoRequestsOnOneConnection) {
  std::atomic<int> hits{0};
  HttpServer server;
  server.handle("/k", [&hits](const HttpRequest&) {
    return HttpResponse::text(200,
                              "hit " + std::to_string(++hits) + "\n");
  });
  server.start();
  const std::string resp = rawExchange(
      server.port(),
      "GET /k HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /k HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(countOccurrences(resp, "HTTP/1.1 200 OK"), 2) << resp;
  EXPECT_NE(resp.find("hit 1"), std::string::npos);
  EXPECT_NE(resp.find("hit 2"), std::string::npos);
  EXPECT_EQ(hits.load(), 2);
}

TEST(HttpServer, StopIsGracefulAndIdempotentAndFreesThePort) {
  HttpServer server;
  server.handle("/x", [](const HttpRequest&) {
    return HttpResponse::text(200, "x");
  });
  server.start();
  const std::uint16_t port = server.port();
  EXPECT_TRUE(server.running());
  EXPECT_EQ(httpGet("127.0.0.1", port, "/x").status, 200);
  server.stop();
  server.stop();  // idempotent
  EXPECT_FALSE(server.running());
  EXPECT_THROW(httpGet("127.0.0.1", port, "/x", /*timeoutMs=*/500),
               std::runtime_error);
}

TEST(HttpServer, RegisteringRoutesAfterStartThrows) {
  HttpServer server;
  server.start();
  EXPECT_THROW(server.handle("/late",
                             [](const HttpRequest&) {
                               return HttpResponse::text(200, "");
                             }),
               std::logic_error);
}

TEST(HttpGet, ConnectFailureThrows) {
  // Bind-then-stop guarantees the port was just free.
  HttpServer server;
  server.start();
  const std::uint16_t port = server.port();
  server.stop();
  EXPECT_THROW(httpGet("127.0.0.1", port, "/", /*timeoutMs=*/500),
               std::runtime_error);
  EXPECT_THROW(httpGet("not-an-ip", 1, "/"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// AdminServer endpoints

TEST(AdminServer, ServesAllEndpointsWithSelfMetrics) {
  auto reg = std::make_shared<obs::MetricsRegistry>();
  reg->counter("app_events_total", "demo").inc(5);
  auto tracer = std::make_shared<obs::TraceRecorder>();
  tracer->recordSpan("warm", "test", std::chrono::steady_clock::now(),
                     std::chrono::steady_clock::now());

  obs::AdminServer admin;
  admin.addMetrics(reg);
  admin.setTracer(tracer);
  admin.addStatsProvider("demo", [] { return std::string("{\"n\": 1}"); });
  admin.start();
  ASSERT_NE(admin.port(), 0);

  const HttpResult index = httpGet("127.0.0.1", admin.port(), "/");
  EXPECT_EQ(index.status, 200);
  for (const char* ep : {"/healthz", "/readyz", "/metrics", "/statsz",
                         "/tracez"})
    EXPECT_NE(index.body.find(ep), std::string::npos) << index.body;

  EXPECT_EQ(httpGet("127.0.0.1", admin.port(), "/healthz").body, "ok\n");
  EXPECT_EQ(httpGet("127.0.0.1", admin.port(), "/readyz").body, "ready\n");

  const HttpResult metrics =
      httpGet("127.0.0.1", admin.port(), "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.contentType.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.body.find("app_events_total 5\n"), std::string::npos);
  // Self-metrics render last and count this very scrape.
  EXPECT_NE(metrics.body.find("hsd_admin_scrapes_total"), std::string::npos);
  EXPECT_LT(metrics.body.find("app_events_total"),
            metrics.body.find("hsd_admin_scrapes_total"));
  EXPECT_NE(
      metrics.body.find(
          "hsd_admin_scrapes_total{endpoint=\"/metrics\"} 1\n"),
      std::string::npos)
      << metrics.body;

  const HttpResult statsz = httpGet("127.0.0.1", admin.port(), "/statsz");
  EXPECT_EQ(statsz.status, 200);
  EXPECT_NE(statsz.contentType.find("application/json"), std::string::npos);
  EXPECT_TRUE(parsesAsJson(statsz.body)) << statsz.body;
  EXPECT_NE(statsz.body.find("\"demo\": {\"n\": 1}"), std::string::npos);
  EXPECT_NE(statsz.body.find("\"uptimeSeconds\""), std::string::npos);

  const HttpResult tracez = httpGet("127.0.0.1", admin.port(), "/tracez");
  EXPECT_EQ(tracez.status, 200);
  EXPECT_TRUE(parsesAsJson(tracez.body)) << tracez.body;
  EXPECT_NE(tracez.body.find("\"enabled\": true"), std::string::npos);
  EXPECT_NE(tracez.body.find("\"warm\""), std::string::npos);
  // Non-destructive: the recorder still holds the span afterwards.
  EXPECT_EQ(tracer->spanCount(), 1u);
}

TEST(AdminServer, ReadyzReflectsEveryReadinessHook) {
  std::atomic<bool> ready{false};
  obs::AdminServer admin;
  admin.addReadiness([&ready] { return ready.load(); });
  admin.addReadiness([] { return true; });
  admin.start();
  EXPECT_EQ(httpGet("127.0.0.1", admin.port(), "/readyz").status, 503);
  EXPECT_EQ(httpGet("127.0.0.1", admin.port(), "/readyz").body, "unready\n");
  ready.store(true);
  EXPECT_EQ(httpGet("127.0.0.1", admin.port(), "/readyz").status, 200);
  // Liveness is independent of readiness.
  EXPECT_EQ(httpGet("127.0.0.1", admin.port(), "/healthz").status, 200);
}

TEST(AdminServer, ThrowingStatsProviderDegradesToErrorObject) {
  obs::AdminServer admin;
  admin.addStatsProvider("good", [] { return std::string("7"); });
  admin.addStatsProvider("bad", []() -> std::string {
    throw std::runtime_error("provider down");
  });
  admin.start();
  const HttpResult res = httpGet("127.0.0.1", admin.port(), "/statsz");
  EXPECT_EQ(res.status, 200);  // a broken provider never fails the scrape
  EXPECT_TRUE(parsesAsJson(res.body)) << res.body;
  EXPECT_NE(res.body.find("\"good\": 7"), std::string::npos);
  EXPECT_NE(res.body.find("provider down"), std::string::npos);
}

TEST(AdminServer, TracezHonorsLimitAndReportsDisabledWithoutTracer) {
  auto tracer = std::make_shared<obs::TraceRecorder>();
  const auto t = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i)
    tracer->recordSpan("s" + std::to_string(i), "test", t, t);
  obs::AdminServer admin;
  admin.setTracer(tracer);
  admin.start();
  const HttpResult limited =
      httpGet("127.0.0.1", admin.port(), "/tracez?limit=3");
  EXPECT_TRUE(parsesAsJson(limited.body)) << limited.body;
  EXPECT_NE(limited.body.find("\"spanCount\": 10"), std::string::npos);
  EXPECT_NE(limited.body.find("\"returnedSpans\": 3"), std::string::npos);
  EXPECT_EQ(countOccurrences(limited.body, "\"name\": \"s"), 3);
  admin.stop();

  obs::AdminServer bare;
  bare.start();
  const HttpResult off = httpGet("127.0.0.1", bare.port(), "/tracez");
  EXPECT_EQ(off.status, 200);
  EXPECT_TRUE(parsesAsJson(off.body)) << off.body;
  EXPECT_NE(off.body.find("\"enabled\": false"), std::string::npos);
}

TEST(AdminServer, SnapshotEndpointsRejectJunkQueryParams) {
  obs::AdminServer admin;
  admin.setTracer(std::make_shared<obs::TraceRecorder>());
  admin.setLog(std::make_shared<obs::LogRecorder>());
  admin.start();
  // Junk ?limit= is a 400 on both snapshot endpoints, never a silent
  // default.
  for (const char* target :
       {"/tracez?limit=abc", "/tracez?limit=-1", "/tracez?limit=0",
        "/tracez?limit=3x", "/logz?limit=abc", "/logz?limit=0"}) {
    const HttpResult res = httpGet("127.0.0.1", admin.port(), target);
    EXPECT_EQ(res.status, 400) << target;
    EXPECT_NE(res.body.find("limit"), std::string::npos) << target;
  }
  // Junk ?trace= likewise (wrong length, non-hex, the all-zero id).
  for (const char* target :
       {"/tracez?trace=abc", "/logz?trace=xyz",
        "/tracez?trace=00000000000000000000000000000000"}) {
    EXPECT_EQ(httpGet("127.0.0.1", admin.port(), target).status, 400)
        << target;
  }
  EXPECT_EQ(httpGet("127.0.0.1", admin.port(), "/logz?level=loud").status,
            400);
  // Well-formed values still work.
  EXPECT_EQ(httpGet("127.0.0.1", admin.port(), "/tracez?limit=5").status,
            200);
  EXPECT_EQ(httpGet("127.0.0.1", admin.port(), "/logz?limit=5&level=warn")
                .status,
            200);
}

TEST(AdminServer, TracezFiltersBySpanTraceId) {
  auto tracer = std::make_shared<obs::TraceRecorder>();
  const obs::TraceId wanted = obs::makeTraceId();
  const obs::TraceId other = obs::makeTraceId();
  const auto t = std::chrono::steady_clock::now();
  for (int i = 0; i < 3; ++i) {
    const obs::ScopedTraceId scope(wanted);
    tracer->recordSpan("hit" + std::to_string(i), "test", t, t);
  }
  {
    const obs::ScopedTraceId scope(other);
    tracer->recordSpan("miss", "test", t, t);
  }
  tracer->recordSpan("untraced", "test", t, t);
  obs::AdminServer admin;
  admin.setTracer(tracer);
  admin.start();
  const HttpResult res = httpGet(
      "127.0.0.1", admin.port(), "/tracez?trace=" + obs::formatTraceId(wanted));
  EXPECT_EQ(res.status, 200);
  EXPECT_TRUE(parsesAsJson(res.body)) << res.body;
  // spanCount stays the pre-filter ring total; the filter narrows only
  // what is returned, and the meta echoes it.
  EXPECT_NE(res.body.find("\"spanCount\": 5"), std::string::npos);
  EXPECT_NE(res.body.find("\"returnedSpans\": 3"), std::string::npos);
  EXPECT_NE(res.body.find("\"trace\": \"" + obs::formatTraceId(wanted) + "\""),
            std::string::npos);
  EXPECT_EQ(countOccurrences(res.body, "\"name\": \"hit"), 3);
  EXPECT_EQ(countOccurrences(res.body, "\"name\": \"miss\""), 0);
  EXPECT_EQ(countOccurrences(res.body, "\"name\": \"untraced\""), 0);
}

TEST(AdminServer, TracezAndChromeJsonRenderOneSpanByteForByte) {
  auto tracer = std::make_shared<obs::TraceRecorder>();
  // A begin before the recorder existed clamps to ts 0, so every byte of
  // both renderings is fixed.
  const std::chrono::steady_clock::time_point t0{};
  const obs::TraceId id{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  tracer->recordSpan("pin", "test", t0, t0 + std::chrono::nanoseconds(1234567),
                     {"items", 3}, {"bytes", 42}, {"status", "ok"}, id);
  EXPECT_EQ(tracer->toJson(),
            "{\"traceEvents\": [\n"
            "{\"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"name\": \"pin\", "
            "\"cat\": \"test\", \"ts\": 0.000, \"dur\": 1234.567, \"args\": "
            "{\"items\": 3, \"bytes\": 42, \"status\": \"ok\", "
            "\"trace\": \"0123456789abcdeffedcba9876543210\"}}\n"
            "], \"displayTimeUnit\": \"ms\", \"droppedEvents\": 0}\n");
  obs::AdminServer admin;
  admin.setTracer(tracer);
  admin.start();
  EXPECT_EQ(httpGet("127.0.0.1", admin.port(), "/tracez").body,
            "{\"enabled\": true, \"spanCount\": 1, \"returnedSpans\": 1, "
            "\"droppedEvents\": 0, "
            "\"threads\": [{\"tid\": 0, \"name\": \"\"}], \"spans\": [\n"
            "{\"tid\": 0, \"name\": \"pin\", \"cat\": \"test\", \"tsNs\": 0, "
            "\"durNs\": 1234567, "
            "\"trace\": \"0123456789abcdeffedcba9876543210\", \"args\": "
            "{\"items\": 3, \"bytes\": 42, \"status\": \"ok\"}}\n"
            "]}\n");
}

TEST(AdminServer, LogzServesJsonLinesWithLevelAndTraceFilters) {
  auto log = std::make_shared<obs::LogRecorder>();
  log->setMinLevel(obs::LogLevel::kDebug);
  const obs::TraceId wanted = obs::makeTraceId();
  log->log(obs::LogLevel::kDebug, "test", "quiet detail");
  log->log(obs::LogLevel::kInfo, "test", "routine");
  log->log(obs::LogLevel::kWarn, "test", "trouble", {}, {}, {}, wanted);
  log->log(obs::LogLevel::kError, "test", "boom", {}, {}, {}, wanted);
  obs::AdminServer admin;
  admin.setLog(log);
  admin.start();

  const HttpResult all = httpGet("127.0.0.1", admin.port(), "/logz");
  EXPECT_EQ(all.status, 200);
  EXPECT_NE(all.contentType.find("application/x-ndjson"), std::string::npos);
  // Meta line first, then one record per line; every line parses alone.
  std::istringstream lines(all.body);
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    EXPECT_TRUE(parsesAsJson(line)) << line;
  }
  EXPECT_EQ(n, 5u);  // meta + 4 records
  EXPECT_NE(all.body.find("\"enabled\": true"), std::string::npos);
  EXPECT_NE(all.body.find("\"recordCount\": 4"), std::string::npos);
  EXPECT_NE(all.body.find("\"returnedRecords\": 4"), std::string::npos);
  EXPECT_NE(all.body.find("\"minLevel\": \"debug\""), std::string::npos);

  // ?level= is a floor: warn admits warn and error.
  const HttpResult warns =
      httpGet("127.0.0.1", admin.port(), "/logz?level=warn");
  EXPECT_NE(warns.body.find("\"returnedRecords\": 2"), std::string::npos);
  EXPECT_EQ(countOccurrences(warns.body, "routine"), 0);
  EXPECT_EQ(countOccurrences(warns.body, "trouble"), 1);

  // ?trace= narrows to one request's records.
  const HttpResult traced = httpGet(
      "127.0.0.1", admin.port(), "/logz?trace=" + obs::formatTraceId(wanted));
  EXPECT_NE(traced.body.find("\"returnedRecords\": 2"), std::string::npos);
  EXPECT_NE(traced.body.find("\"trace\": \"" + obs::formatTraceId(wanted) + "\""),
            std::string::npos);
  EXPECT_EQ(countOccurrences(traced.body, "routine"), 0);

  // ?limit= keeps the most recent records.
  const HttpResult limited =
      httpGet("127.0.0.1", admin.port(), "/logz?limit=1");
  EXPECT_NE(limited.body.find("\"returnedRecords\": 1"), std::string::npos);
  EXPECT_EQ(countOccurrences(limited.body, "boom"), 1);
  admin.stop();

  // Without a recorder the endpoint stays up and says so.
  obs::AdminServer bare;
  bare.start();
  const HttpResult off = httpGet("127.0.0.1", bare.port(), "/logz");
  EXPECT_EQ(off.status, 200);
  EXPECT_NE(off.body.find("\"enabled\": false"), std::string::npos);
}

TEST(AdminServer, SlozAndStatszCarryTheSloSection) {
  auto slo = std::make_shared<obs::SloTracker>();
  std::atomic<std::uint64_t> good{99};
  std::atomic<std::uint64_t> total{100};
  slo->setAvailabilitySource([&] { return good.load(); },
                             [&] { return total.load(); });
  obs::AdminServer admin;
  admin.setSlo(slo);
  admin.start();
  const HttpResult sloz = httpGet("127.0.0.1", admin.port(), "/sloz");
  EXPECT_EQ(sloz.status, 200);
  EXPECT_TRUE(parsesAsJson(sloz.body)) << sloz.body;
  EXPECT_NE(sloz.body.find("\"enabled\": true"), std::string::npos);
  EXPECT_NE(sloz.body.find("\"availabilityTarget\""), std::string::npos);
  EXPECT_NE(sloz.body.find("\"windows\""), std::string::npos);
  const HttpResult statsz = httpGet("127.0.0.1", admin.port(), "/statsz");
  EXPECT_TRUE(parsesAsJson(statsz.body)) << statsz.body;
  EXPECT_NE(statsz.body.find("\"slo\": {"), std::string::npos);
  admin.stop();

  obs::AdminServer bare;
  bare.start();
  const HttpResult off = httpGet("127.0.0.1", bare.port(), "/sloz");
  EXPECT_EQ(off.status, 200);
  EXPECT_NE(off.body.find("\"enabled\": false"), std::string::npos);
  const HttpResult plainStats =
      httpGet("127.0.0.1", bare.port(), "/statsz");
  EXPECT_EQ(plainStats.body.find("\"slo\""), std::string::npos);
}

TEST(AdminServer, ReadyzDegradedDetailNamesEveryHook) {
  std::atomic<bool> accepting{false};
  obs::AdminServer admin;
  admin.addReadiness("serve-accepting", [&] { return accepting.load(); });
  admin.addReadiness("warmup", [] { return true; });
  admin.setSlo(std::make_shared<obs::SloTracker>());
  admin.start();
  // The bare view keeps the terse text contract.
  EXPECT_EQ(httpGet("127.0.0.1", admin.port(), "/readyz").body, "unready\n");
  // The detail view carries the same status code with a JSON body naming
  // each hook, plus the SLO burn status when a tracker is mounted.
  const HttpResult down =
      httpGet("127.0.0.1", admin.port(), "/readyz?degraded");
  EXPECT_EQ(down.status, 503);
  EXPECT_TRUE(parsesAsJson(down.body)) << down.body;
  EXPECT_NE(down.body.find("\"ready\": false"), std::string::npos);
  EXPECT_NE(down.body.find(
                "{\"name\": \"serve-accepting\", \"ready\": false}"),
            std::string::npos);
  EXPECT_NE(down.body.find("{\"name\": \"warmup\", \"ready\": true}"),
            std::string::npos);
  EXPECT_NE(down.body.find("\"degraded\": false"), std::string::npos);
  EXPECT_NE(down.body.find("\"slo\""), std::string::npos);
  accepting.store(true);
  const HttpResult up =
      httpGet("127.0.0.1", admin.port(), "/readyz?degraded");
  EXPECT_EQ(up.status, 200);
  EXPECT_NE(up.body.find("\"ready\": true"), std::string::npos);
}

TEST(AdminServer, MountingAfterStartThrows) {
  obs::AdminServer admin;
  admin.start();
  EXPECT_THROW(admin.addMetrics(std::make_shared<obs::MetricsRegistry>()),
               std::logic_error);
  EXPECT_THROW(admin.addStatsProvider("x", [] { return std::string("1"); }),
               std::logic_error);
  EXPECT_THROW(admin.addReadiness([] { return true; }),
               std::logic_error);
  EXPECT_THROW(admin.setTracer(nullptr), std::logic_error);
  EXPECT_THROW(admin.setLog(nullptr), std::logic_error);
  EXPECT_THROW(admin.setSlo(nullptr), std::logic_error);
}

// ---------------------------------------------------------------------------
// The concurrent-scrape hammer: every admin endpoint scraped from many
// threads while the DetectionServer runs real detection traffic. Run
// under TSan via the `net` ctest label; every response must parse.

TEST(AdminServer, ConcurrentScrapesDuringDetectionTrafficAllParse) {
  hsd::tests::FixtureSpec spec;
  spec.hotspots = 12;
  spec.nonHotspots = 48;
  spec.width = 20000;
  spec.height = 20000;
  spec.sites = 8;
  const hsd::tests::DetectorFixture& fx = hsd::tests::detectorFixture(spec);

  serve::ServerConfig cfg;
  cfg.workers = 2;
  cfg.threadsPerContext = 1;
  cfg.tracer = std::make_shared<obs::TraceRecorder>();
  serve::DetectionServer server(cfg);

  obs::AdminServer admin;
  admin.addMetrics(server.metrics());
  admin.setTracer(cfg.tracer);
  admin.addStatsProvider("serve", [&server] { return server.statsJson(); });
  admin.addReadiness([&server] { return server.accepting(); });
  admin.start();
  const std::uint16_t port = admin.port();
  EXPECT_EQ(httpGet("127.0.0.1", port, "/readyz").status, 200);

  // Detection traffic: a stream of real evaluations on the fixture.
  constexpr int kRequests = 6;
  core::EvalParams ep;
  std::vector<std::future<serve::ServeResult>> futs;
  futs.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i)
    futs.push_back(server.submit(fx.detector, fx.test.layout, ep));

  // Scrapers: four threads cycling through every endpoint.
  constexpr int kScrapers = 4;
  constexpr int kRounds = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> scrapers;
  scrapers.reserve(kScrapers);
  for (int s = 0; s < kScrapers; ++s) {
    scrapers.emplace_back([port, &failures] {
      const char* targets[] = {"/metrics", "/tracez?limit=64", "/statsz",
                               "/healthz"};
      for (int round = 0; round < kRounds; ++round) {
        const std::string target(targets[round % 4]);
        try {
          const HttpResult res = httpGet("127.0.0.1", port, target);
          bool good = res.status == 200;
          if (target == "/metrics")
            good = good && res.body.find(
                               "hsd_serve_requests_submitted_total") !=
                               std::string::npos;
          else if (target != "/healthz")
            good = good && parsesAsJson(res.body);
          if (!good) ++failures;
        } catch (const std::exception&) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : scrapers) t.join();
  std::size_t ok = 0;
  for (auto& f : futs) ok += f.get().ok() ? 1 : 0;
  EXPECT_EQ(ok, std::size_t(kRequests));
  EXPECT_EQ(failures.load(), 0);

  // Drain flips readiness off while the admin surface stays live.
  server.shutdown();
  EXPECT_EQ(httpGet("127.0.0.1", port, "/readyz").status, 503);
  EXPECT_EQ(httpGet("127.0.0.1", port, "/healthz").status, 200);
  const HttpResult finalStats = httpGet("127.0.0.1", port, "/statsz");
  EXPECT_TRUE(parsesAsJson(finalStats.body)) << finalStats.body;
  EXPECT_NE(finalStats.body.find("\"submitted\": 6"), std::string::npos);
}

}  // namespace
}  // namespace hsd::net
