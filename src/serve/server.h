// SocketServer — the transport in front of TimingService.
//
// One IO thread accepts connections and polls every live socket (plus a
// self-pipe for shutdown); complete request lines are handed to a
// base::ThreadPool, where a worker runs TimingService::handle_line and
// writes the response frame back under the connection's write lock. That
// split gives the latency profile the SLO bench measures: the IO thread
// never computes, the workers never poll.
//
// Consequences worth knowing (all covered by the server/robustness tests):
//   * Requests from ONE connection may be answered out of order — each line
//     is an independent task. The pool starts tasks in arrival order, but
//     several workers finish them in any order. Clients match on the echoed
//     id (client.h does).
//   * Connection lifetime is shared_ptr-managed: the IO thread drops its
//     reference when the peer disconnects, in-flight workers finish against
//     the dead socket (writes fail silently, MSG_NOSIGNAL), and the fd
//     closes with the last reference — a worker can never write into a
//     recycled fd.
//   * A frame overflow (partial line beyond the cap) gets one final
//     frame_too_large error written inline, then the connection is shut
//     down; malformed-but-complete lines only cost an error response.
//   * stop() joins the IO thread, the pool's only submitter, so the pool's
//     wait() then drains exactly the requests already read; every one of
//     them is answered before the remaining sockets close. It half-closes
//     each socket and reads what its peer still sends until the peer
//     closes, for at most 100 ms in all, before closing it: closing over
//     unread request bytes would reset the connection and drop answers
//     still queued to send.
//   * Pool and queue gauges (pool.*, serve.queue_depth) are read from the
//     pool when the service samples its runtime gauges, and once more by
//     stop() after the drain, so a final snapshot describes the idle pool.
//
// Listeners: a Unix-domain socket (path unlinked before bind, after stop
// and after a failed start) and/or loopback TCP (port 0 = ephemeral;
// tcp_port() reports the bound port).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/error.h"
#include "base/thread_pool.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/service.h"

namespace mintc::serve {

struct ServerConfig {
  /// Bind a Unix-domain socket at this path when non-empty.
  std::string unix_path;
  /// Bind loopback TCP on this port when >= 0 (0 picks an ephemeral port).
  int tcp_port = -1;
  /// Worker threads handling requests.
  int num_threads = 4;
  /// Per-frame byte cap (see protocol.h).
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

class SocketServer {
 public:
  /// `service` must outlive the server.
  SocketServer(TimingService& service, ServerConfig config);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Bind the configured listeners and start the IO thread. Fails (kIo)
  /// when nothing could be bound.
  Expected<bool> start();

  /// Stop accepting, drain in-flight requests, close every socket.
  /// Idempotent.
  void stop();

  /// The bound TCP port (ephemeral ports resolved), -1 when TCP is off.
  int tcp_port() const { return tcp_port_; }
  const std::string& unix_path() const { return config_.unix_path; }

  long connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn {
    explicit Conn(int fd_in, size_t max_frame) : fd(fd_in), reader(max_frame) {}
    ~Conn();

    /// Write `frame` fully under the write lock; failures mark the
    /// connection dead (the IO thread reaps it on its next poll round).
    void write_frame(const std::string& frame);

    const int fd;
    FrameReader reader;
    std::mutex write_mu;
    std::atomic<bool> dead{false};
  };

  void io_loop();
  void accept_ready(int listen_fd);
  /// Read what's available; extract lines and dispatch them. Returns false
  /// when the connection should be dropped from the poll set.
  bool drain_readable(const std::shared_ptr<Conn>& conn);
  void dispatch_line(std::shared_ptr<Conn> conn, std::string line);
  /// stop()'s last step: half-close every connection, drain its peer's
  /// bytes for a bounded time, then close it.
  void close_connections();
  void wake_io();
  /// Set the pool.* and serve.queue_depth gauges from the pool: the
  /// service's runtime sampler, and stop()'s last word after the drain.
  void publish_pool_gauges();

  TimingService& service_;
  ServerConfig config_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = -1;
  int wake_pipe_[2] = {-1, -1};

  std::thread io_thread_;
  std::atomic<bool> running_{false};
  bool started_ = false;

  base::ThreadPool pool_;

  // Owned by the IO thread while running; cleared in stop().
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;

  std::atomic<long> connections_accepted_{0};
  obs::Counter& connections_metric_;
};

}  // namespace mintc::serve
