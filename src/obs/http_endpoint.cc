#include "obs/http_endpoint.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/flight_recorder.h"
#include "obs/openmetrics.h"
#include "obs/registry.h"
#include "obs/timeline.h"

namespace edr {

namespace {

constexpr const char kContentTypeOpenMetrics[] =
    "application/openmetrics-text; version=1.0.0; charset=utf-8";
constexpr const char kContentTypeJson[] = "application/json";
constexpr const char kContentTypeText[] = "text/plain; charset=utf-8";

// MSG_NOSIGNAL: a scraper that disconnects mid-response must surface as
// EPIPE, not deliver SIGPIPE (whose default action would kill the whole
// process — including a batch run that merely offered --listen).
#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

void WriteAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, kSendFlags);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // peer went away (EPIPE/timeout); nothing sensible to do
    }
    sent += static_cast<size_t>(n);
  }
}

void WriteResponse(int fd, int status, const char* status_text,
                   const char* content_type, const std::string& body) {
  char head[256];
  const int n = std::snprintf(
      head, sizeof(head),
      "HTTP/1.1 %d %s\r\n"
      "Content-Type: %s\r\n"
      "Content-Length: %zu\r\n"
      "Connection: close\r\n"
      "\r\n",
      status, status_text, content_type, body.size());
  WriteAll(fd, head, static_cast<size_t>(n));
  WriteAll(fd, body.data(), body.size());
}

/// Reads until the end of the request head ("\r\n\r\n") or a small cap —
/// bodies are ignored; every route is a GET.
std::string ReadRequestHead(int fd) {
  std::string head;
  char buf[1024];
  while (head.size() < 16 * 1024) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    head.append(buf, static_cast<size_t>(n));
    if (head.find("\r\n\r\n") != std::string::npos) break;
  }
  return head;
}

/// "GET /metrics HTTP/1.1" → "/metrics" (query strings stripped);
/// empty on anything that is not a GET.
std::string ParseGetPath(const std::string& head) {
  if (head.compare(0, 4, "GET ") != 0) return "";
  const size_t start = 4;
  const size_t end = head.find(' ', start);
  if (end == std::string::npos) return "";
  std::string path = head.substr(start, end - start);
  const size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);
  return path;
}

}  // namespace

MetricsHttpEndpoint::MetricsHttpEndpoint()
    : MetricsHttpEndpoint(Options()) {}

MetricsHttpEndpoint::MetricsHttpEndpoint(const Options& options)
    : options_(options) {}

MetricsHttpEndpoint::~MetricsHttpEndpoint() { Stop(); }

bool MetricsHttpEndpoint::Start(std::string* error) {
  if constexpr (!kObsEnabled) {
    if (error != nullptr) *error = "observability compiled out";
    return false;
  }
  if (listen_fd_.load() >= 0) return true;  // already running

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 16) != 0) {
    if (error != nullptr) *error = std::strerror(errno);
    ::close(fd);
    return false;
  }

  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    if (error != nullptr) *error = std::strerror(errno);
    ::close(fd);
    return false;
  }
  port_.store(ntohs(bound.sin_port));
  listen_fd_.store(fd);
  thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void MetricsHttpEndpoint::Stop() {
  const int fd = listen_fd_.exchange(-1);
  if (fd < 0) return;
  // shutdown unblocks the accept() in flight; close releases the port.
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
  {
    // Unblock a connection mid-recv/send so the join below can't wait on
    // a client that never speaks. Safe under the lock: the accept loop
    // only close()s a connection after clearing conn_fd_ here.
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (conn_fd_ >= 0) ::shutdown(conn_fd_, SHUT_RDWR);
  }
  if (thread_.joinable()) thread_.join();
  port_.store(0);
}

void MetricsHttpEndpoint::AcceptLoop() {
  for (;;) {
    const int fd = listen_fd_.load();
    if (fd < 0) return;
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by Stop
    }
    // Bound each recv/send so one silent client can't stall the serial
    // accept loop (or a Stop racing this accept) indefinitely.
    if (options_.io_timeout_ms > 0) {
      timeval tv;
      tv.tv_sec = options_.io_timeout_ms / 1000;
      tv.tv_usec = (options_.io_timeout_ms % 1000) * 1000;
      ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      ::setsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      conn_fd_ = conn;
    }
    if (listen_fd_.load() < 0) {
      // Stop ran between accept and registration; its shutdown may have
      // missed this connection, so bail out instead of serving it.
      std::lock_guard<std::mutex> lock(conn_mu_);
      conn_fd_ = -1;
      ::close(conn);
      return;
    }
    ServeConnection(conn);
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      conn_fd_ = -1;
    }
    ::close(conn);
  }
}

void MetricsHttpEndpoint::ServeConnection(int fd) {
  const std::string path = ParseGetPath(ReadRequestHead(fd));
  requests_.fetch_add(1, std::memory_order_relaxed);

  const FlightRecorder* flight = options_.flight != nullptr
                                     ? options_.flight
                                     : &FlightRecorder::Global();
  if (path == "/metrics") {
    OpenMetricsOptions om;
    om.exemplars = flight;
    WriteResponse(fd, 200, "OK", kContentTypeOpenMetrics,
                  RenderOpenMetrics(MetricsRegistry::Global().Snapshot(), om));
  } else if (path == "/healthz") {
    WriteResponse(fd, 200, "OK", kContentTypeText, "ok\n");
  } else if (path == "/flight") {
    WriteResponse(fd, 200, "OK", kContentTypeJson, flight->ToJson());
  } else if (path == "/timeline" && options_.timeline != nullptr) {
    WriteResponse(fd, 200, "OK", kContentTypeJson,
                  options_.timeline->ToJson());
  } else if (path.empty()) {
    WriteResponse(fd, 405, "Method Not Allowed", kContentTypeText,
                  "only GET is served\n");
  } else {
    WriteResponse(fd, 404, "Not Found", kContentTypeText,
                  "routes: /metrics /healthz /flight /timeline\n");
  }
}

}  // namespace edr
