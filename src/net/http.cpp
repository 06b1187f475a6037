#include "net/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "text/text_cursor.hpp"

namespace hsd::net {

namespace {

/// Accepted connections waiting for a handler thread; past it the
/// acceptor sheds (closes) new ones instead of queueing unboundedly.
constexpr std::size_t kMaxQueuedConnections = 64;

std::string toLower(std::string s) {
  for (char& c : s) c = char(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

void setSocketTimeouts(int fd, int timeoutMs) {
  timeval tv{};
  tv.tv_sec = timeoutMs / 1000;
  tv.tv_usec = (timeoutMs % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// send() the whole buffer; false on error/timeout. MSG_NOSIGNAL keeps a
/// peer that hung up from killing the process with SIGPIPE.
bool sendAll(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += std::size_t(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// recv() once into buf; true when bytes arrived. EINTR retries; every
/// other failure (timeout, reset, EOF) is false.
bool recvSome(int fd, std::string& buf) {
  for (;;) {
    char chunk[4096];
    const ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
    if (r > 0) {
      buf.append(chunk, std::size_t(r));
      return true;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;
  }
}

bool parseRequestHead(std::string_view head, HttpRequest& req) {
  // Request line: METHOD SP TARGET SP VERSION. Lines are CRLF-separated;
  // we tolerate bare LF (trim strips the CR).
  const std::size_t eol = head.find('\n');
  const std::string_view line =
      trim(eol == std::string_view::npos ? head : head.substr(0, eol));
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) return false;
  req.method = std::string(line.substr(0, sp1));
  req.target = std::string(trim(line.substr(sp1 + 1, sp2 - sp1 - 1)));
  req.version = std::string(line.substr(sp2 + 1));
  if (req.method.empty() || req.target.empty() ||
      req.target.front() != '/' ||
      req.version.compare(0, 5, "HTTP/") != 0)
    return false;
  const std::size_t qm = req.target.find('?');
  req.path = req.target.substr(0, qm);
  req.query = qm == std::string::npos ? std::string()
                                      : req.target.substr(qm + 1);
  // Header fields, one per line, until the blank line (already excluded
  // from `head` by the caller).
  std::size_t pos = eol == std::string_view::npos ? head.size() : eol + 1;
  while (pos < head.size()) {
    std::size_t end = head.find('\n', pos);
    if (end == std::string_view::npos) end = head.size();
    const std::string_view raw = trim(head.substr(pos, end - pos));
    pos = end + 1;
    if (raw.empty()) continue;
    const std::size_t colon = raw.find(':');
    if (colon == std::string_view::npos || colon == 0) return false;
    req.headers.emplace_back(toLower(std::string(trim(raw.substr(0, colon)))),
                             std::string(trim(raw.substr(colon + 1))));
  }
  return true;
}

bool wantsKeepAlive(const HttpRequest& req) {
  const std::string* conn = req.header("connection");
  if (conn != nullptr) {
    const std::string v = toLower(*conn);
    if (v.find("close") != std::string::npos) return false;
    if (v.find("keep-alive") != std::string::npos) return true;
  }
  return req.version == "HTTP/1.1";  // 1.1 defaults to persistent
}

}  // namespace

const std::string* HttpRequest::header(std::string_view lowerName) const {
  for (const auto& [k, v] : headers)
    if (k == lowerName) return &v;
  return nullptr;
}

std::vector<std::pair<std::string_view, std::string_view>>
HttpRequest::queryPairs() const {
  std::vector<std::pair<std::string_view, std::string_view>> out;
  for (std::string_view rest = query; !rest.empty();) {
    const std::string_view pair = rest.substr(0, rest.find('&'));
    rest.remove_prefix(std::min(rest.size(), pair.size() + 1));
    const std::size_t eq = pair.find('=');
    if (!pair.empty())
      out.emplace_back(pair.substr(0, eq),
                       eq == std::string_view::npos ? std::string_view()
                                                    : pair.substr(eq + 1));
  }
  return out;
}

std::optional<std::string> HttpRequest::queryParam(
    std::string_view key) const {
  for (const auto& [k, v] : queryPairs())
    if (k == key) return std::string(v);
  return std::nullopt;
}

HttpResponse HttpResponse::text(int status, std::string body) {
  HttpResponse res;
  res.status = status;
  res.body = std::move(body);
  return res;
}

HttpResponse HttpResponse::json(std::string body) {
  HttpResponse res;
  res.contentType = "application/json; charset=utf-8";
  res.body = std::move(body);
  return res;
}

HttpResponse& HttpResponse::withHeader(std::string name, std::string value) {
  headers.emplace_back(std::move(name), std::move(value));
  return *this;
}

const std::string* HttpResult::header(std::string_view lowerName) const {
  for (const auto& [k, v] : headers)
    if (k == lowerName) return &v;
  return nullptr;
}

const char* statusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 415: return "Unsupported Media Type";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 499: return "Client Closed Request";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

HttpServer::HttpServer(HttpServerOptions opts) : opts_(std::move(opts)) {
  opts_.handlerThreads = std::max<std::size_t>(1, opts_.handlerThreads);
  opts_.maxHeaderBytes = std::max<std::size_t>(128, opts_.maxHeaderBytes);
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::addRoute(Method method, std::string path, Handler handler) {
  if (running())
    throw std::logic_error("HttpServer::handle: register routes before start");
  routes_.push_back(Route{method, std::move(path), std::move(handler)});
}

void HttpServer::handle(std::string path, Handler handler) {
  addRoute(Method::kGet, std::move(path), std::move(handler));
}

void HttpServer::handlePost(std::string path, Handler handler) {
  addRoute(Method::kPost, std::move(path), std::move(handler));
}

std::vector<std::string> HttpServer::routes() const {
  std::vector<std::string> out;
  out.reserve(routes_.size());
  for (const Route& r : routes_)
    if (std::find(out.begin(), out.end(), r.path) == out.end())
      out.push_back(r.path);
  return out;
}

void HttpServer::start() {
  if (running()) throw std::logic_error("HttpServer::start: already running");
  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listenFd_ < 0)
    throw std::runtime_error(std::string("HttpServer: socket: ") +
                             std::strerror(errno));
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.bindAddress.c_str(), &addr.sin_addr) != 1) {
    ::close(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error("HttpServer: bad bind address '" +
                             opts_.bindAddress + "' (numeric IPv4 required)");
  }
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listenFd_, 64) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error("HttpServer: bind/listen on " +
                             opts_.bindAddress + ": " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0)
    port_ = ntohs(bound.sin_port);
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { acceptLoop(); });
  handlers_.reserve(opts_.handlerThreads);
  for (std::size_t i = 0; i < opts_.handlerThreads; ++i)
    handlers_.emplace_back([this] { handlerLoop(); });
}

void HttpServer::stop() {
  if (!running()) return;
  stopping_.store(true, std::memory_order_release);
  // Wake blocked reads on in-flight keep-alive connections; their write
  // side stays open so a response in progress still goes out.
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const int fd : active_) ::shutdown(fd, SHUT_RD);
  }
  cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& t : handlers_)
    if (t.joinable()) t.join();
  handlers_.clear();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const int fd : pending_) ::close(fd);  // accepted, never served
    pending_.clear();
  }
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void HttpServer::acceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listenFd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 50);  // 50ms bound on stop() latency
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;  // listener broken; handler threads still drain the queue
    }
    setSocketTimeouts(fd, opts_.ioTimeoutMs);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (pending_.size() >= kMaxQueuedConnections) {
        lock.unlock();
        ::close(fd);  // overloaded: shed instead of queueing unboundedly
        continue;
      }
      pending_.push_back(fd);
    }
    cv_.notify_one();
  }
}

void HttpServer::handlerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) || !pending_.empty();
      });
      if (pending_.empty()) return;  // stopping and nothing queued
      if (stopping_.load(std::memory_order_acquire)) return;  // shed queued
      fd = pending_.front();
      pending_.pop_front();
      active_.insert(fd);
    }
    serveConnection(fd);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      active_.erase(fd);
    }
    ::close(fd);
  }
}

bool HttpServer::readChunkedBody(int fd, std::string& buf,
                                 std::size_t bodyStart, HttpRequest& req,
                                 int& errStatus) {
  // De-frame "<hex-size>[;ext]\r\n<bytes>\r\n ... 0\r\n[trailers]\r\n",
  // enforcing maxBodyBytes on the decoded total. `pos` walks the raw
  // buffer; on success everything consumed is erased so keep-alive sees
  // the next request at buf[0].
  std::size_t pos = bodyStart;
  std::string body;
  // A line must appear within the raw cap; chunk framing overhead is
  // bounded, so cap the raw buffer at body + header slack to stop a
  // malicious endless-extension stream from growing memory unboundedly.
  const std::size_t rawCap =
      opts_.maxBodyBytes + opts_.maxHeaderBytes + (opts_.maxBodyBytes >> 2);
  const auto needBytes = [&](std::size_t upto) -> bool {
    while (buf.size() < upto) {
      if (buf.size() > rawCap) return false;
      if (!recvSome(fd, buf)) return false;
    }
    return true;
  };
  const auto readLine = [&](std::size_t from, std::size_t& eol) -> bool {
    for (;;) {
      eol = buf.find("\r\n", from);
      if (eol != std::string::npos) return true;
      if (buf.size() > rawCap) return false;
      if (!recvSome(fd, buf)) return false;
    }
  };
  for (;;) {
    std::size_t eol;
    if (!readLine(pos, eol)) {
      errStatus = 400;
      return false;
    }
    // The chunk size is 1*HEXDIG (RFC 9112); chunk extensions
    // (";name=value", after optional blanks) are tolerated and ignored.
    std::string_view sizeHex = std::string_view(buf).substr(pos, eol - pos);
    sizeHex = sizeHex.substr(0, sizeHex.find(';'));
    sizeHex = sizeHex.substr(0, sizeHex.find_last_not_of(" \t") + 1);
    const std::optional<std::uint64_t> parsed =
        text::parseNumber<std::uint64_t>(sizeHex, 16);
    if (!parsed) {
      errStatus = 400;
      return false;
    }
    const std::uint64_t size = *parsed;
    pos = eol + 2;
    if (size == 0) break;
    // body.size() never exceeds the cap, so this cannot wrap.
    if (size > opts_.maxBodyBytes - body.size()) {
      errStatus = 413;
      return false;
    }
    if (!needBytes(pos + size + 2)) {
      errStatus = 400;
      return false;
    }
    body.append(buf, pos, std::size_t(size));
    if (buf.compare(pos + size, 2, "\r\n") != 0) {
      errStatus = 400;  // chunk data must end in CRLF
      return false;
    }
    pos += std::size_t(size) + 2;
  }
  // Trailer section: zero or more header lines, then an empty line.
  for (;;) {
    std::size_t eol;
    if (!readLine(pos, eol)) {
      errStatus = 400;
      return false;
    }
    const bool blank = eol == pos;
    pos = eol + 2;
    if (blank) break;
  }
  req.body = std::move(body);
  buf.erase(0, pos);  // keep-alive: leftover is the next request
  return true;
}

bool HttpServer::readRequest(int fd, std::string& buf, HttpRequest& req,
                             int& errStatus) {
  errStatus = 0;
  // Accumulate until the header terminator, enforcing the header cap.
  std::size_t headEnd;
  for (;;) {
    headEnd = buf.find("\r\n\r\n");
    if (headEnd != std::string::npos) break;
    if (buf.size() > opts_.maxHeaderBytes) {
      errStatus = 431;
      return false;
    }
    if (!recvSome(fd, buf)) {
      // Peer closed (or recv timed out / read side was shut down by
      // stop()). Bytes short of a full head mean a truncated request:
      // owe a 400 unless the connection is simply idle-closed.
      if (!buf.empty()) errStatus = 400;
      return false;
    }
  }
  if (headEnd > opts_.maxHeaderBytes) {
    errStatus = 431;
    return false;
  }
  req = HttpRequest();
  if (!parseRequestHead(std::string_view(buf).substr(0, headEnd), req)) {
    errStatus = 400;
    return false;
  }
  const std::size_t bodyStart = headEnd + 4;
  const std::string* te = req.header("transfer-encoding");
  if (te != nullptr) {
    if (toLower(*te).find("chunked") == std::string::npos ||
        req.header("content-length") != nullptr) {
      // Only chunked is implemented; Content-Length alongside
      // Transfer-Encoding is a smuggling vector — reject both.
      errStatus = 400;
      return false;
    }
    return readChunkedBody(fd, buf, bodyStart, req, errStatus);
  }
  std::size_t bodyLen = 0;
  if (const std::string* cl = req.header("content-length")) {
    // 1*DIGIT (RFC 9112): no sign, no blanks, no hex.
    const std::optional<std::uint64_t> v =
        text::parseNumber<std::uint64_t>(*cl);
    if (!v) {
      errStatus = 400;
      return false;
    }
    bodyLen = std::size_t(*v);
  }
  if (bodyLen > opts_.maxBodyBytes) {
    errStatus = 413;
    return false;
  }
  while (buf.size() < bodyStart + bodyLen) {
    if (!recvSome(fd, buf)) {
      errStatus = 400;  // body shorter than Content-Length promised
      return false;
    }
  }
  req.body = buf.substr(bodyStart, bodyLen);
  buf.erase(0, bodyStart + bodyLen);  // keep-alive: leftover is next request
  return true;
}

void HttpServer::writeResponse(int fd, const HttpResponse& res,
                               bool keepOpen, bool headOnly) {
  std::string head = "HTTP/1.1 " + std::to_string(res.status) + ' ' +
                     statusReason(res.status) + "\r\nContent-Type: " +
                     res.contentType + "\r\nContent-Length: " +
                     std::to_string(res.body.size()) + "\r\nConnection: " +
                     (keepOpen ? "keep-alive" : "close") + "\r\n";
  for (const auto& [name, value] : res.headers)
    head += name + ": " + value + "\r\n";
  head += "\r\n";
  if (!sendAll(fd, head.data(), head.size())) return;
  if (!headOnly) sendAll(fd, res.body.data(), res.body.size());
}

HttpResponse HttpServer::dispatch(const HttpRequest& req) {
  const bool headOnly = req.method == "HEAD";
  const Method want =
      req.method == "POST" ? Method::kPost : Method::kGet;
  const bool methodRoutable =
      req.method == "GET" || headOnly || req.method == "POST";
  bool pathKnown = false;
  std::string allow;
  for (const Route& r : routes_) {
    if (r.path != req.path) continue;
    pathKnown = true;
    if (methodRoutable && r.method == want) {
      try {
        return r.handler(req);
      } catch (const std::exception& e) {
        return HttpResponse::text(500, std::string("handler error: ") +
                                           e.what() + "\n");
      } catch (...) {
        return HttpResponse::text(500, "handler error\n");
      }
    }
    const char* m = r.method == Method::kPost ? "POST" : "GET, HEAD";
    if (allow.find(m) == std::string::npos) {
      if (!allow.empty()) allow += ", ";
      allow += m;
    }
  }
  if (pathKnown) {
    // Known path, wrong (or unimplemented) method: 405 names what would
    // work. The request was fully read, so keep-alive is honored.
    HttpResponse res = HttpResponse::text(
        405, "method " + req.method + " not allowed for " + req.path +
                 " (allow: " + allow + ")\n");
    res.withHeader("Allow", allow);
    return res;
  }
  std::string body = "404 not found: " + req.path + "\nendpoints:\n";
  for (const std::string& path : routes()) body += "  " + path + "\n";
  return HttpResponse::text(404, std::move(body));
}

void HttpServer::serveConnection(int fd) {
  std::string buf;
  bool keep = true;
  while (keep && !stopping_.load(std::memory_order_acquire)) {
    HttpRequest req;
    int errStatus = 0;
    if (!readRequest(fd, buf, req, errStatus)) {
      // Transport/parse errors close the connection: past a framing
      // error the request stream cannot be resynchronized.
      if (errStatus != 0) {
        HttpResponse err = HttpResponse::text(
            errStatus, std::string(statusReason(errStatus)) + "\n");
        writeResponse(fd, err, /*keepOpen=*/false, /*headOnly=*/false);
      }
      return;
    }
    const bool headOnly = req.method == "HEAD";
    req.clientFd = fd;
    const HttpResponse res = dispatch(req);
    // Application responses honor keep-alive whatever their status: the
    // request was fully consumed, so the connection stays in sync even
    // after a 404/405/429/5xx.
    keep = wantsKeepAlive(req) && !res.closeConnection &&
           !stopping_.load(std::memory_order_acquire);
    writeResponse(fd, res, keep, headOnly);
  }
}

namespace {

/// Shared client path: connect, send `requestText`, read to EOF, parse
/// status line + headers. Both httpGet and httpPost ride on it.
HttpResult httpExchange(const std::string& host, std::uint16_t port,
                        const std::string& requestText, int timeoutMs,
                        const char* who) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    throw std::runtime_error(std::string(who) + ": socket: " +
                             std::strerror(errno));
  struct FdGuard {
    int fd;
    ~FdGuard() { ::close(fd); }
  } guard{fd};
  setSocketTimeouts(fd, timeoutMs);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error(std::string(who) + ": bad host '" + host +
                             "' (numeric IPv4 required)");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0)
    throw std::runtime_error(std::string(who) + ": connect " + host + ':' +
                             std::to_string(port) + ": " +
                             std::strerror(errno));
  if (!sendAll(fd, requestText.data(), requestText.size()))
    throw std::runtime_error(std::string(who) + ": send failed");
  std::string resp;
  for (;;) {
    char chunk[8192];
    const ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
    if (r > 0) {
      resp.append(chunk, std::size_t(r));
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      throw std::runtime_error(std::string(who) + ": read timed out");
    break;  // EOF: Connection: close means the response is complete
  }
  const std::size_t headEnd = resp.find("\r\n\r\n");
  if (headEnd == std::string::npos)
    throw std::runtime_error(std::string(who) +
                             ": malformed response (no header end)");
  const std::string_view head = std::string_view(resp).substr(0, headEnd);
  // Status line: HTTP/1.1 SP code SP reason.
  const std::size_t sp = head.find(' ');
  if (sp == std::string_view::npos || head.compare(0, 5, "HTTP/") != 0)
    throw std::runtime_error(std::string(who) + ": malformed status line");
  // The status code is 3DIGIT, ended by SP (or the end of the line).
  const std::string_view rest = head.substr(sp + 1);
  const std::string_view code = rest.substr(0, rest.find_first_of(" \r\n"));
  const std::optional<int> status = text::parseNumber<int>(code);
  if (code.size() != 3 || !status || *status < 100 || *status > 599)
    throw std::runtime_error(std::string(who) + ": malformed status code");
  HttpResult out;
  out.status = *status;
  // Response headers (lower-cased names; Content-Type also pulled out).
  std::size_t pos = head.find('\n');
  while (pos != std::string_view::npos && pos < head.size()) {
    std::size_t end = head.find('\n', pos + 1);
    const std::string_view line = trim(head.substr(
        pos + 1, (end == std::string_view::npos ? head.size() : end) - pos -
                     1));
    pos = end;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string name = toLower(std::string(trim(line.substr(0, colon))));
    std::string value(trim(line.substr(colon + 1)));
    if (name == "content-type") out.contentType = value;
    out.headers.emplace_back(std::move(name), std::move(value));
  }
  out.body = resp.substr(headEnd + 4);
  return out;
}

}  // namespace

HttpResult httpGet(const std::string& host, std::uint16_t port,
                   const std::string& target, int timeoutMs,
                   const std::vector<std::pair<std::string, std::string>>&
                       extraHeaders) {
  std::string reqText = "GET " + target + " HTTP/1.1\r\nHost: " + host +
                        "\r\nConnection: close\r\n";
  for (const auto& [name, value] : extraHeaders)
    reqText += name + ": " + value + "\r\n";
  reqText += "\r\n";
  return httpExchange(host, port, reqText, timeoutMs, "httpGet");
}

HttpResult httpPost(
    const std::string& host, std::uint16_t port, const std::string& target,
    const std::string& body, const std::string& contentType,
    const std::vector<std::pair<std::string, std::string>>& extraHeaders,
    int timeoutMs) {
  std::string reqText = "POST " + target + " HTTP/1.1\r\nHost: " + host +
                        "\r\nContent-Type: " + contentType +
                        "\r\nContent-Length: " + std::to_string(body.size()) +
                        "\r\nConnection: close\r\n";
  for (const auto& [name, value] : extraHeaders)
    reqText += name + ": " + value + "\r\n";
  reqText += "\r\n";
  reqText += body;
  return httpExchange(host, port, reqText, timeoutMs, "httpPost");
}

}  // namespace hsd::net
