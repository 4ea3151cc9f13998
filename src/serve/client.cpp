#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace mintc::serve {

namespace {

// How long one read waits for the server before failing with kIo.
constexpr int kRecvTimeoutMs = 30000;

}  // namespace

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  stash_.clear();
}

Expected<bool> Client::connect_unix(const std::string& path) {
  close();
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return make_error(ErrorKind::kInvalidArgument, "unix socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0 ||
      ::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    close();
    return make_error(ErrorKind::kIo, "cannot connect to " + path + ": " + why);
  }
  return true;
}

Expected<bool> Client::connect_tcp(const std::string& host, int port) {
  close();
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return make_error(ErrorKind::kInvalidArgument,
                      "host must be a numeric IPv4 address (got \"" + host + "\")");
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ >= 0) {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  if (fd_ < 0 ||
      ::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    close();
    return make_error(ErrorKind::kIo, "cannot connect to " + host + ":" +
                                          std::to_string(port) + ": " + why);
  }
  return true;
}

Expected<bool> Client::connect(const std::string& address) {
  if (address.rfind("unix:", 0) == 0) return connect_unix(address.substr(5));
  const size_t colon = address.rfind(':');
  if (colon == std::string::npos) {
    return make_error(ErrorKind::kInvalidArgument,
                      "address must be unix:/path or host:port (got \"" + address + "\")");
  }
  const std::string host = address.substr(0, colon);
  const int port = std::atoi(address.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    return make_error(ErrorKind::kInvalidArgument, "bad port in \"" + address + "\"");
  }
  return connect_tcp(host.empty() ? "127.0.0.1" : host, port);
}

Expected<long> Client::send(Json request) {
  if (fd_ < 0) return make_error(ErrorKind::kIo, "not connected");
  const long id = next_id_++;
  request.set("id", Json(id));
  Expected<bool> sent = write_all(encode_frame(request));
  if (!sent) return sent.error();
  return id;
}

Expected<Json> Client::recv(long id) {
  while (true) {
    const auto it = stash_.find(id);
    if (it != stash_.end()) {
      Json response = std::move(it->second);
      stash_.erase(it);
      return response;
    }
    Expected<Json> next = read_response();
    if (!next) return next;
    const Json& got = next->get("id");
    if (got.is_number() && got.as_long() == id) return std::move(next.value());
    if (got.is_number()) {
      stash_[got.as_long()] = std::move(next.value());
    }
    // Responses with no / non-numeric id (protocol-level errors for frames
    // we did not stamp) are dropped: nothing can ever claim them.
  }
}

Expected<Json> Client::call(Json request) {
  Expected<long> id = send(std::move(request));
  if (!id) return id.error();
  return recv(*id);
}

Expected<bool> Client::write_all(const std::string& frame) {
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return make_error(ErrorKind::kIo, std::string("send failed: ") + std::strerror(errno));
  }
  return true;
}

Expected<Json> Client::read_response() {
  char buf[64 * 1024];
  while (true) {
    if (std::optional<std::string> line = reader_.next_line()) {
      Expected<Json> parsed = parse_json(*line);
      if (!parsed) {
        return make_error(ErrorKind::kIo,
                          "server sent an unparseable frame: " + parsed.error().message);
      }
      return parsed;
    }
    if (reader_.overflowed()) {
      return make_error(ErrorKind::kIo, "server frame exceeded the client's size cap");
    }
    struct pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kRecvTimeoutMs);
    if (ready == 0) return make_error(ErrorKind::kIo, "timed out waiting for a response");
    if (ready < 0) {
      if (errno == EINTR) continue;
      return make_error(ErrorKind::kIo, std::string("poll failed: ") + std::strerror(errno));
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      reader_.feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return make_error(ErrorKind::kIo, n == 0 ? "server closed the connection"
                                             : std::string("recv failed: ") +
                                                   std::strerror(errno));
  }
}

}  // namespace mintc::serve
