#ifndef EDR_OBS_HTTP_ENDPOINT_H_
#define EDR_OBS_HTTP_ENDPOINT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "obs/obs.h"

namespace edr {

class FlightRecorder;
class TimelineSampler;

/// A minimal blocking HTTP/1.1 exposition endpoint over POSIX sockets —
/// just enough protocol for `curl` and a Prometheus/OpenMetrics scraper,
/// on purpose: no external dependency, one accept-loop thread, one
/// request per connection. Routes:
///
///   GET /metrics   OpenMetrics text exposition of the global registry
///                  (with flight-recorder exemplars when attached)
///   GET /healthz   "ok" — liveness probe
///   GET /flight    flight-recorder JSON dump
///   GET /timeline  utilization timeline JSON (when a sampler is attached)
///
/// Binds 127.0.0.1 only: this is an operator diagnostics port, not a
/// public listener. In EDR_DISABLE_OBS builds Start() returns false and
/// no socket is ever opened.
class MetricsHttpEndpoint {
 public:
  struct Options {
    /// 0 picks an ephemeral port (read it back via port()).
    uint16_t port = 0;
    /// Exemplar + /flight source; nullptr = FlightRecorder::Global().
    const FlightRecorder* flight = nullptr;
    /// /timeline source; nullptr serves 404 on that route.
    const TimelineSampler* timeline = nullptr;
    /// Per-recv/send socket timeout on accepted connections. The accept
    /// loop serves serially, so this bounds how long one silent client
    /// can stall other scrapers (and how long Stop() waits on a
    /// connection accepted in the instant before shutdown).
    int io_timeout_ms = 5000;
  };

  MetricsHttpEndpoint();
  explicit MetricsHttpEndpoint(const Options& options);
  ~MetricsHttpEndpoint();

  MetricsHttpEndpoint(const MetricsHttpEndpoint&) = delete;
  MetricsHttpEndpoint& operator=(const MetricsHttpEndpoint&) = delete;

  /// Binds, listens, and spawns the accept loop. False (with `*error`
  /// describing why, when non-null) on bind failure or when observability
  /// is compiled out. Idempotent while running.
  bool Start(std::string* error = nullptr);

  /// Closes the listener and joins the accept loop. Idempotent.
  void Stop();

  bool running() const { return listen_fd_.load() >= 0; }

  /// The bound port (the resolved ephemeral port when Options::port was
  /// 0); 0 before Start.
  uint16_t port() const { return port_.load(); }

  /// Requests served since Start (404s included).
  uint64_t requests() const { return requests_.load(); }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  Options options_;
  std::atomic<int> listen_fd_{-1};
  std::atomic<uint16_t> port_{0};
  std::atomic<uint64_t> requests_{0};
  std::thread thread_;
  /// The connection currently being served (-1 between requests), so
  /// Stop() can shutdown() a mid-recv client instead of waiting on it.
  /// Guarded by conn_mu_: the accept loop clears it before close(), so a
  /// shutdown() under the lock can never hit a recycled descriptor.
  std::mutex conn_mu_;
  int conn_fd_ = -1;
};

}  // namespace edr

#endif  // EDR_OBS_HTTP_ENDPOINT_H_
