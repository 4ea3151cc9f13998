// Blocking protocol client: what timing_client, timing_tool --remote and
// the socket-level tests use to talk to a timing_serve daemon.
//
// One Client is one connection, used from one thread. call() assigns a
// fresh numeric id, sends the frame and reads until the response with that
// id arrives — the server may answer pipelined requests out of order, so
// responses for OTHER outstanding ids (from send()) are stashed and handed
// out by their matching recv(). Every read waits at most 30 s (kIo on
// expiry) so a hung server cannot hang the client.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>

#include "base/error.h"
#include "serve/json.h"
#include "serve/protocol.h"

namespace mintc::serve {

class Client {
 public:
  explicit Client(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : reader_(max_frame_bytes) {}
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Expected<bool> connect_unix(const std::string& path);
  Expected<bool> connect_tcp(const std::string& host, int port);

  /// Parse "unix:/path" or "host:port" and connect accordingly.
  Expected<bool> connect(const std::string& address);

  bool connected() const { return fd_ >= 0; }
  void close();

  /// One round trip: stamps `request` with a fresh id, sends, waits for the
  /// matching response envelope.
  Expected<Json> call(Json request);

  /// Pipelined use: send without waiting; returns the assigned id.
  Expected<long> send(Json request);
  /// Wait for the response with `id` (responses for other ids are stashed).
  Expected<Json> recv(long id);

 private:
  Expected<bool> write_all(const std::string& frame);
  Expected<Json> read_response();

  int fd_ = -1;
  FrameReader reader_;
  long next_id_ = 1;
  std::unordered_map<long, Json> stash_;  // out-of-order responses by id
};

}  // namespace mintc::serve
