// Socket-level tests: SocketServer + Client over real TCP and Unix-domain
// sockets, including the robustness cases (malformed frames, oversized
// frames, mid-request disconnects, concurrent same-key edits, a failed
// start), the drain in stop() and the pool gauges it publishes.
#include "serve/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/service.h"

namespace mintc::serve {
namespace {

Json req(std::initializer_list<std::pair<std::string, Json>> fields) {
  Json r = Json::object();
  for (const auto& [k, v] : fields) r.set(k, v);
  return r;
}

struct TcpServerFixture {
  TimingService service;
  SocketServer server;

  explicit TcpServerFixture(ServerConfig config = make_config(),
                            ServiceConfig service_config = {})
      : service(service_config), server(service, std::move(config)) {
    const Expected<bool> started = server.start();
    EXPECT_TRUE(started) << (started ? "" : started.error().to_string());
  }
  ~TcpServerFixture() { server.stop(); }

  static ServerConfig make_config() {
    ServerConfig config;
    config.tcp_port = 0;  // ephemeral
    config.num_threads = 4;
    return config;
  }

  std::string address() const {
    return "127.0.0.1:" + std::to_string(server.tcp_port());
  }
};

TEST(ServeServer, TcpRoundTrip) {
  TcpServerFixture fx;
  Client client;
  ASSERT_TRUE(client.connect(fx.address()));
  const Expected<Json> loaded = client.call(req(
      {{"verb", Json("load")}, {"circuit", Json("e1")}, {"builtin", Json("example1")}}));
  ASSERT_TRUE(loaded) << (loaded ? "" : loaded.error().to_string());
  EXPECT_TRUE(loaded->get("ok").as_bool(false)) << loaded->dump();
  const Expected<Json> stats = client.call(req({{"verb", Json("stats")}}));
  ASSERT_TRUE(stats);
  EXPECT_EQ(stats->get("result").get("sessions").get("count").as_long(0), 1);
}

TEST(ServeServer, UnixSocketRoundTrip) {
  const std::string path = testing::TempDir() + "serve_unix_test.sock";
  std::remove(path.c_str());
  ServerConfig config;
  config.unix_path = path;
  TcpServerFixture fx(config);
  Client client;
  ASSERT_TRUE(client.connect("unix:" + path));
  const Expected<Json> r = client.call(req({{"verb", Json("stats")}}));
  ASSERT_TRUE(r) << (r ? "" : r.error().to_string());
  EXPECT_TRUE(r->get("ok").as_bool(false));
  fx.server.stop();
  // stop() unlinks the socket path.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

TEST(ServeServer, FailedStartRemovesTheUnixSocketFile) {
  // Hold a loopback port, then ask for a Unix socket and that port: the Unix
  // bind succeeds, the TCP bind fails, and the socket file must not stay.
  const int holder = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(holder, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::bind(holder, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(holder, 1), 0);
  ASSERT_EQ(::getsockname(holder, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int port = ntohs(addr.sin_port);

  const std::string path = testing::TempDir() + "serve_failed_start.sock";
  std::remove(path.c_str());
  TimingService service;
  ServerConfig config;
  config.unix_path = path;
  config.tcp_port = port;
  SocketServer server(service, config);
  const Expected<bool> started = server.start();
  ::close(holder);
  ASSERT_FALSE(started);
  EXPECT_EQ(started.error().kind, ErrorKind::kIo);
  EXPECT_NE(started.error().message.find("loopback TCP port " + std::to_string(port)),
            std::string::npos)
      << started.error().to_string();
  EXPECT_NE(::access(path.c_str(), F_OK), 0) << path << " was left behind";
}

TEST(ServeServer, PipelinedResponsesMatchById) {
  TcpServerFixture fx;
  Client client;
  ASSERT_TRUE(client.connect(fx.address()));
  ASSERT_TRUE(client.call(req({{"verb", Json("load")}, {"circuit", Json("e1")},
                               {"builtin", Json("example1")}})));
  std::vector<long> ids;
  for (int i = 0; i < 8; ++i) {
    const Expected<long> id = client.send(
        req({{"verb", Json("analyze")}, {"circuit", Json("e1")}, {"detail", Json(i % 2 == 0)}}));
    ASSERT_TRUE(id);
    ids.push_back(*id);
  }
  // Collect in reverse submission order: the stash must pair every response
  // with its id no matter how the server interleaved them.
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    const Expected<Json> r = client.recv(*it);
    ASSERT_TRUE(r) << (r ? "" : r.error().to_string());
    EXPECT_EQ(r->get("id").as_long(-1), *it);
    EXPECT_TRUE(r->get("ok").as_bool(false));
  }
}

TEST(ServeServer, BadVerbGetsErrorButKeepsConnection) {
  TcpServerFixture fx;
  Client client;
  ASSERT_TRUE(client.connect(fx.address()));
  const Expected<Json> bad = client.call(req({{"verb", Json("nope")}}));
  ASSERT_TRUE(bad);
  EXPECT_FALSE(bad->get("ok").as_bool(true));
  const Expected<Json> good = client.call(req({{"verb", Json("stats")}}));
  ASSERT_TRUE(good);
  EXPECT_TRUE(good->get("ok").as_bool(false));
}

// Raw-socket helper: connect to 127.0.0.1:port without the Client framing.
int raw_connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ServeServer, RawMalformedJsonLineGetsErrorFrame) {
  TcpServerFixture fx;
  const int fd = raw_connect(fx.server.tcp_port());
  ASSERT_GE(fd, 0);
  const char wire[] = "this is not json\n";
  ASSERT_EQ(::send(fd, wire, sizeof wire - 1, 0),
            static_cast<ssize_t>(sizeof wire - 1));
  char buf[512];
  const ssize_t n = ::recv(fd, buf, sizeof buf - 1, 0);
  ASSERT_GT(n, 0);
  buf[n] = '\0';
  EXPECT_NE(std::strstr(buf, "\"ok\":false"), nullptr) << buf;
  ::close(fd);
}

TEST(ServeServer, OversizedFrameGetsFinalErrorAndClose) {
  ServerConfig config = TcpServerFixture::make_config();
  config.max_frame_bytes = 256;
  TcpServerFixture fx(config);
  const int fd = raw_connect(fx.server.tcp_port());
  ASSERT_GE(fd, 0);
  const std::string flood(1024, 'x');  // no newline, over the 256-byte cap
  ASSERT_GT(::send(fd, flood.data(), flood.size(), MSG_NOSIGNAL), 0);
  std::string got;
  char buf[512];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;  // server closed after the error frame
    got.append(buf, static_cast<size_t>(n));
  }
  EXPECT_NE(got.find("frame_too_large"), std::string::npos) << got;
  ::close(fd);
}

TEST(ServeServer, MidRequestDisconnectLeavesServerServing) {
  TcpServerFixture fx;
  // Half a request, then a hard close.
  const int fd = raw_connect(fx.server.tcp_port());
  ASSERT_GE(fd, 0);
  const char partial[] = "{\"verb\": \"load\", \"circ";
  ASSERT_GT(::send(fd, partial, sizeof partial - 1, 0), 0);
  ::close(fd);

  // A complete request followed by an immediate close (response racing the
  // disconnect) must not take the server down either.
  const int fd2 = raw_connect(fx.server.tcp_port());
  ASSERT_GE(fd2, 0);
  const char whole[] = "{\"verb\": \"stats\"}\n";
  ASSERT_GT(::send(fd2, whole, sizeof whole - 1, 0), 0);
  ::close(fd2);

  Client client;
  ASSERT_TRUE(client.connect(fx.address()));
  const Expected<Json> r = client.call(req({{"verb", Json("stats")}}));
  ASSERT_TRUE(r) << (r ? "" : r.error().to_string());
  EXPECT_TRUE(r->get("ok").as_bool(false));
}

TEST(ServeServer, ConcurrentSameKeyEditsSerializeWithoutTearing) {
  TcpServerFixture fx;
  {
    Client setup;
    ASSERT_TRUE(setup.connect(fx.address()));
    ASSERT_TRUE(setup.call(req({{"verb", Json("load")}, {"circuit", Json("e1")},
                                {"builtin", Json("example1")}})));
  }

  // Writers: each batch sets path 0 and path 1 to the SAME value; a torn
  // batch would leave them different. Readers: analyze(detail) concurrently
  // and check the invariant via the reported per-element data being
  // internally consistent (ok responses only — the strong check is on final
  // state below).
  constexpr int kWriters = 4;
  constexpr int kBatches = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Client client;
      if (!client.connect(fx.address())) {
        failures.fetch_add(1);
        return;
      }
      for (int b = 0; b < kBatches; ++b) {
        const double value = 40.0 + w * kBatches + b;
        Json edits = Json::array();
        edits.push(req({{"op", Json("set_path_delay")}, {"path", Json(0L)},
                        {"delay", Json(value)}}));
        edits.push(req({{"op", Json("set_path_delay")}, {"path", Json(1L)},
                        {"delay", Json(value)}}));
        const Expected<Json> r = client.call(req({{"verb", Json("edit_batch")},
                                                  {"circuit", Json("e1")},
                                                  {"edits", std::move(edits)}}));
        if (!r || !r->get("ok").as_bool(false)) failures.fetch_add(1);
      }
    });
  }
  std::atomic<bool> stop_readers{false};
  std::thread reader([&] {
    Client client;
    if (!client.connect(fx.address())) return;
    while (!stop_readers.load()) {
      const Expected<Json> r =
          client.call(req({{"verb", Json("analyze")}, {"circuit", Json("e1")}}));
      if (!r || !r->get("ok").as_bool(false)) {
        failures.fetch_add(1);
        return;
      }
    }
  });
  for (std::thread& t : threads) t.join();
  stop_readers.store(true);
  reader.join();
  EXPECT_EQ(failures.load(), 0);

  // Every batch was atomic and they serialized: no mutation was lost — the
  // generation counter advanced exactly once per applied edit (2 per batch,
  // plus this probe's label edit), and analyzes never tore a batch.
  Client check;
  ASSERT_TRUE(check.connect(fx.address()));
  Json edits = Json::array();
  edits.push(req({{"op", Json("set_path_label")}, {"path", Json(0L)}, {"label", Json("x")}}));
  const Expected<Json> gen_probe = check.call(req({{"verb", Json("edit_batch")},
                                                   {"circuit", Json("e1")},
                                                   {"edits", std::move(edits)}}));
  ASSERT_TRUE(gen_probe);
  EXPECT_EQ(gen_probe->get("result").get("generation").as_long(0),
            kWriters * kBatches * 2 + 1);
}

TEST(ServeServer, StopDrainsInFlightRequests) {
  TcpServerFixture fx;
  Client client;
  ASSERT_TRUE(client.connect(fx.address()));
  ASSERT_TRUE(client.call(req({{"verb", Json("load")}, {"circuit", Json("e1")},
                               {"builtin", Json("example1")}})));
  const obs::Counter& requests = obs::MetricsRegistry::instance().counter("serve.requests");
  const long before = requests.value();
  std::vector<long> ids;
  for (int i = 0; i < 16; ++i) {
    const Expected<long> id =
        client.send(req({{"verb", Json("analyze")}, {"circuit", Json("e1")}}));
    ASSERT_TRUE(id);
    ids.push_back(*id);
  }
  // Stop once the server has started on the burst, so some are in flight.
  for (int spin = 0; spin < 5000 && requests.value() == before; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  fx.server.stop();
  const long answered = requests.value() - before;
  EXPECT_GE(answered, 1);

  // Every request the service answered reached the client before the socket
  // closed. The server reads lines in order, so the answered ones are the
  // first `answered` ids; the rest were never read and get no frame.
  long received = 0;
  for (const long id : ids) {
    const Expected<Json> r = client.recv(id);
    if (!r) break;  // the connection closed
    EXPECT_EQ(r->get("id").as_long(-1), id);
    EXPECT_TRUE(r->get("ok").as_bool(false)) << r->dump();
    ++received;
  }
  EXPECT_EQ(received, answered);
}

TEST(ServeServer, PoolGaugesDescribeTheDrainedPool) {
  ServerConfig config = TcpServerFixture::make_config();
  config.num_threads = 3;
  TcpServerFixture fx(config);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  const long before = reg.counter("serve.requests").value();
  Client client;
  ASSERT_TRUE(client.connect(fx.address()));
  ASSERT_TRUE(client.call(req({{"verb", Json("load")}, {"circuit", Json("e1")},
                               {"builtin", Json("example1")}})));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.call(req({{"verb", Json("analyze")}, {"circuit", Json("e1")}})));
  }
  const Expected<Json> metrics = client.call(req({{"verb", Json("metrics")}}));
  ASSERT_TRUE(metrics);
  const std::string text = metrics->get("result").get("content").as_string();
  EXPECT_NE(text.find("\nmintc_pool_threads 3\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("mintc_pool_steals"), std::string::npos) << text;

  // stop() publishes the drained pool: nothing queued, and one executed
  // task per answered request (the metrics scrape above ran inside one).
  fx.server.stop();
  EXPECT_EQ(reg.gauge("serve.queue_depth").value(), 0.0);
  EXPECT_EQ(reg.gauge("pool.busy").value(), 0.0);
  EXPECT_EQ(reg.gauge("pool.executed").value(),
            static_cast<double>(reg.counter("serve.requests").value() - before));
}

}  // namespace
}  // namespace mintc::serve
