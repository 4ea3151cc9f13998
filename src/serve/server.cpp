#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace mintc::serve {

namespace {

obs::MetricsRegistry& registry() { return obs::MetricsRegistry::instance(); }

// How long stop() waits, in all, for half-closed peers to close.
constexpr std::chrono::milliseconds kCloseDrain{100};

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

SocketServer::Conn::~Conn() { ::close(fd); }

void SocketServer::Conn::write_frame(const std::string& frame) {
  const std::lock_guard<std::mutex> lk(write_mu);
  if (dead.load(std::memory_order_relaxed)) return;
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EINTR)) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // The socket is nonblocking and the peer is slow: block here with
      // poll until writable (bounded by the peer's lifetime — a dead peer
      // turns the next send into an error).
      struct pollfd pfd{fd, POLLOUT, 0};
      if (::poll(&pfd, 1, 30000) <= 0) {
        dead.store(true, std::memory_order_relaxed);
        return;
      }
      continue;
    }
    dead.store(true, std::memory_order_relaxed);
    return;
  }
}

SocketServer::SocketServer(TimingService& service, ServerConfig config)
    : service_(service),
      config_(std::move(config)),
      pool_(config_.num_threads),
      connections_metric_(registry().counter("serve.connections")) {}

SocketServer::~SocketServer() { stop(); }

Expected<bool> SocketServer::start() {
  if (started_) return make_error(ErrorKind::kInvalidArgument, "server already started");

  // A failed start leaves nothing behind: no open listener, and no socket
  // file from a Unix bind that succeeded before a later step failed.
  const auto fail = [this](const std::string& message) {
    close_fd(unix_fd_);
    close_fd(tcp_fd_);
    if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
    return make_error(ErrorKind::kIo, message);
  };

  if (!config_.unix_path.empty()) {
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (config_.unix_path.size() >= sizeof(addr.sun_path)) {
      return make_error(ErrorKind::kInvalidArgument,
                        "unix socket path too long: " + config_.unix_path);
    }
    std::strncpy(addr.sun_path, config_.unix_path.c_str(), sizeof(addr.sun_path) - 1);
    ::unlink(config_.unix_path.c_str());
    unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_fd_ < 0 ||
        ::bind(unix_fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(unix_fd_, 128) != 0 || !set_nonblocking(unix_fd_)) {
      const std::string why = std::strerror(errno);
      return fail("cannot listen on " + config_.unix_path + ": " + why);
    }
  }

  if (config_.tcp_port >= 0) {
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(config_.tcp_port));
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    const int one = 1;
    if (tcp_fd_ >= 0) {
      ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    }
    if (tcp_fd_ < 0 ||
        ::bind(tcp_fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(tcp_fd_, 128) != 0 || !set_nonblocking(tcp_fd_)) {
      const std::string why = std::strerror(errno);
      return fail("cannot listen on loopback TCP port " + std::to_string(config_.tcp_port) +
                  ": " + why);
    }
    struct sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(tcp_fd_, reinterpret_cast<struct sockaddr*>(&bound), &len) == 0) {
      tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
    }
  }

  if (unix_fd_ < 0 && tcp_fd_ < 0) {
    return make_error(ErrorKind::kInvalidArgument,
                      "no listener configured (set unix_path and/or tcp_port)");
  }
  if (::pipe(wake_pipe_) != 0) return fail("cannot create wake pipe");
  set_nonblocking(wake_pipe_[0]);
  set_nonblocking(wake_pipe_[1]);

  running_.store(true, std::memory_order_release);
  started_ = true;
  io_thread_ = std::thread([this] { io_loop(); });

  service_.set_runtime_sampler([this] { publish_pool_gauges(); });
  return true;
}

void SocketServer::publish_pool_gauges() {
  obs::MetricsRegistry& reg = registry();
  const int threads = pool_.num_threads();
  const int busy = pool_.busy_count();
  reg.gauge("pool.threads").set(static_cast<double>(threads));
  reg.gauge("pool.busy").set(static_cast<double>(busy));
  reg.gauge("pool.utilization").set(static_cast<double>(busy) / threads);
  reg.gauge("pool.executed").set(static_cast<double>(pool_.executed_count()));
  reg.gauge("serve.queue_depth").set(static_cast<double>(pool_.pending()));
}

void SocketServer::stop() {
  if (!started_) return;
  running_.store(false, std::memory_order_release);
  wake_io();
  if (io_thread_.joinable()) io_thread_.join();
  // The IO thread was the only submitter, so this drains exactly the
  // requests it read.
  pool_.wait();
  publish_pool_gauges();
  service_.set_runtime_sampler(nullptr);  // it captures `this`
  close_connections();
  close_fd(unix_fd_);
  close_fd(tcp_fd_);
  close_fd(wake_pipe_[0]);
  close_fd(wake_pipe_[1]);
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
  started_ = false;
}

void SocketServer::close_connections() {
  // Closing a socket that still holds unread request bytes resets the
  // connection, and the reset drops the answers still queued to send. So
  // half-close each one, which sends its queued answers and then EOF, and
  // read and drop what its peer sends until the peer closes too, or until
  // kCloseDrain has passed.
  std::vector<struct pollfd> pfds;
  for (const auto& [fd, conn] : conns_) {
    ::shutdown(fd, SHUT_WR);
    pfds.push_back({fd, POLLIN, 0});
  }
  const auto deadline = std::chrono::steady_clock::now() + kCloseDrain;
  size_t open = pfds.size();
  char buf[64 * 1024];
  while (open > 0) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) break;
    if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), static_cast<int>(left.count())) <
        0) {
      if (errno == EINTR) continue;
      break;
    }
    for (struct pollfd& pfd : pfds) {
      if (pfd.fd < 0 || pfd.revents == 0) continue;
      // One read per wakeup, so a peer that keeps sending cannot hold the
      // loop past the deadline.
      const ssize_t n = ::recv(pfd.fd, buf, sizeof(buf), 0);
      if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK)) {
        pfd.fd = -1;  // closed or failed: poll skips it from now on
        --open;
      }
    }
  }
  conns_.clear();  // closes every fd
}

void SocketServer::wake_io() {
  if (wake_pipe_[1] >= 0) {
    const char byte = 'w';
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void SocketServer::io_loop() {
  std::vector<struct pollfd> pfds;
  std::vector<int> fds;  // parallel to pfds: fd identity for the conn map
  while (running_.load(std::memory_order_acquire)) {
    pfds.clear();
    fds.clear();
    pfds.push_back({wake_pipe_[0], POLLIN, 0});
    fds.push_back(wake_pipe_[0]);
    if (unix_fd_ >= 0) {
      pfds.push_back({unix_fd_, POLLIN, 0});
      fds.push_back(unix_fd_);
    }
    if (tcp_fd_ >= 0) {
      pfds.push_back({tcp_fd_, POLLIN, 0});
      fds.push_back(tcp_fd_);
    }
    for (const auto& [fd, conn] : conns_) {
      pfds.push_back({fd, POLLIN, 0});
      fds.push_back(fd);
    }

    const int ready = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 500);
    if (!running_.load(std::memory_order_acquire)) break;
    if (ready <= 0) {
      // Timeout round: reap connections a worker marked dead.
      for (auto it = conns_.begin(); it != conns_.end();) {
        it = it->second->dead.load(std::memory_order_relaxed) ? conns_.erase(it)
                                                              : std::next(it);
      }
      continue;
    }

    for (size_t i = 0; i < pfds.size(); ++i) {
      const short revents = pfds[i].revents;
      if (revents == 0) continue;
      const int fd = fds[i];
      if (fd == wake_pipe_[0]) {
        char buf[64];
        while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      if (fd == unix_fd_ || fd == tcp_fd_) {
        accept_ready(fd);
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      const bool keep = (revents & (POLLERR | POLLNVAL)) == 0 && drain_readable(it->second);
      if (!keep || it->second->dead.load(std::memory_order_relaxed)) {
        conns_.erase(it);  // workers holding the shared_ptr finish safely
      }
    }
  }
}

void SocketServer::accept_ready(int listen_fd) {
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN (or transient error): back to poll
    if (!set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    conns_.emplace(fd, std::make_shared<Conn>(fd, config_.max_frame_bytes));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_metric_.inc();
  }
}

bool SocketServer::drain_readable(const std::shared_ptr<Conn>& conn) {
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->reader.feed(buf, static_cast<size_t>(n));
      if (conn->reader.overflowed()) {
        // Unrecoverable: there is no line boundary to resync at. One final
        // error, then hang up.
        conn->write_frame(encode_frame(error_response(
            Json(), "frame_too_large",
            "request exceeded the " + std::to_string(config_.max_frame_bytes) +
                "-byte frame cap without a newline")));
        ::shutdown(conn->fd, SHUT_RDWR);
        return false;
      }
      while (std::optional<std::string> line = conn->reader.next_line()) {
        dispatch_line(conn, std::move(*line));
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;  // peer closed (n == 0) or hard error
  }
}

void SocketServer::dispatch_line(std::shared_ptr<Conn> conn, std::string line) {
  pool_.submit([this, conn = std::move(conn), line = std::move(line)] {
    conn->write_frame(service_.handle_line(line));
  });
}

}  // namespace mintc::serve
