// timing_serve — the timing-analysis-as-a-service daemon.
//
// Hosts a serve::TimingService (warm AnalysisSession pool + result cache)
// behind a serve::SocketServer speaking the line-delimited JSON protocol
// (src/serve/protocol.h) on a Unix-domain socket and/or loopback TCP.
//
//   timing_serve --unix /tmp/mintc.sock            # unix socket
//   timing_serve --port 0                          # ephemeral TCP port
//   timing_serve --unix s.sock --port 7317 --threads 8 --cache-mb 64
//
// Prints one "listening on ..." line per bound address (flushed, so
// wrapper scripts can wait for it), then serves until SIGINT/SIGTERM.
// --stop-after <sec> exits on its own (CI smoke jobs); --metrics-out
// dumps the obs metrics registry on shutdown.
// Numeric flag values must be whole decimal integers in range (--port
// 0-65535, --threads 1-256); anything else exits 2 with the usage text.
//
// Telemetry flags:
//   --prom-out <file> [--prom-interval <sec>]   periodic Prometheus text
//       snapshots (runtime gauges refreshed before each write; default 10 s)
//   --trace-out <file>     on shutdown, write the kept records of sampled
//       requests (TimingService::kTraceRecords) as Chrome trace JSON, the
//       content the `trace` verb returns
//   --slow-ms <T>          structured slow-request log, with stage times,
//       above T milliseconds
//   --no-telemetry         kill request-path telemetry (overhead baseline)
//
// Observability flags (the cost-attribution / ops-dashboard layer):
//   --audit-out <file> [--audit-rotate-mb <M>]   per-request JSONL audit log
//       with trace id, verb, cache hit/miss, stage times and CostAccount
//       totals
//   --status-html <file> [--status-interval <sec>]   periodically (and on
//       shutdown) write the live ops dashboard as a single HTML file
//
// Talk to it with timing_client, timing_tool --remote, or plain nc:
//   echo '{"verb":"load","circuit":"e1","builtin":"example1"}' | nc -U s.sock
#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <limits>
#include <string>
#include <system_error>

#include "obs/export.h"
#include "serve/server.h"
#include "serve/service.h"

using namespace mintc;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

// Ranges of the numeric flags.
constexpr long kMaxPort = 65535;
constexpr long kMaxWorkers = 256;
// The MB sizes stop where the shift to bytes would overflow size_t.
constexpr long kMaxMegabytes = static_cast<long>(std::numeric_limits<size_t>::max() >> 20);
// Times (seconds, or milliseconds for --slow-ms) are scaled by 1000.
constexpr long kMaxTime = std::numeric_limits<long>::max() / 1000;

int usage() {
  std::printf(
      "usage: timing_serve [--unix <path>] [--port <p>] [--threads <N>]\n"
      "                    [--cache-mb <M>] [--session-mb <M>]\n"
      "                    [--max-frame-mb <M>]\n"
      "                    [--stop-after <sec>] [--metrics-out <file>]\n"
      "                    [--prom-out <file>] [--prom-interval <sec>]\n"
      "                    [--trace-out <file>] [--slow-ms <T>]\n"
      "                    [--no-telemetry]\n"
      "                    [--audit-out <file>] [--audit-rotate-mb <M>]\n"
      "                    [--status-html <file>] [--status-interval <sec>]\n"
      "  --port 0 picks an ephemeral port (printed). With no listener flags,\n"
      "  defaults to --port 0. --threads takes 1-256 workers.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerConfig server_config;
  serve::ServiceConfig service_config;
  std::string metrics_out;
  std::string prom_out;
  std::string trace_out;
  std::string status_html_out;
  long prom_interval_sec = 10;
  long status_interval_sec = 10;
  long stop_after_sec = 0;

  // Every numeric flag parses through here: the whole value must be a
  // decimal integer in [lo, hi]. A bad one marks the run for the usage exit
  // and yields `lo`, so nothing downstream sees it.
  bool bad_number = false;
  const auto number = [&](const char* text, long lo, long hi) {
    long value = 0;
    const char* end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec == std::errc() && ptr == end && value >= lo && value <= hi) return value;
    bad_number = true;
    return lo;
  };
  const auto megabytes = [&](const char* text) {
    return static_cast<size_t>(number(text, 0, kMaxMegabytes)) << 20;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--unix" && has_value) {
      server_config.unix_path = argv[++i];
    } else if (arg == "--port" && has_value) {
      server_config.tcp_port = static_cast<int>(number(argv[++i], 0, kMaxPort));
    } else if (arg == "--threads" && has_value) {
      server_config.num_threads = static_cast<int>(number(argv[++i], 1, kMaxWorkers));
    } else if (arg == "--cache-mb" && has_value) {
      service_config.cache_bytes = megabytes(argv[++i]);
    } else if (arg == "--session-mb" && has_value) {
      service_config.session_bytes = megabytes(argv[++i]);
    } else if (arg == "--max-frame-mb" && has_value) {
      service_config.max_frame_bytes = megabytes(argv[++i]);
      server_config.max_frame_bytes = service_config.max_frame_bytes;
    } else if (arg == "--stop-after" && has_value) {
      stop_after_sec = number(argv[++i], 0, kMaxTime);
    } else if (arg == "--metrics-out" && has_value) {
      metrics_out = argv[++i];
    } else if (arg == "--prom-out" && has_value) {
      prom_out = argv[++i];
    } else if (arg == "--prom-interval" && has_value) {
      prom_interval_sec = std::max(1L, number(argv[++i], 0, kMaxTime));
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (arg == "--slow-ms" && has_value) {
      service_config.slow_request_us = 1000 * number(argv[++i], 0, kMaxTime);
    } else if (arg == "--no-telemetry") {
      service_config.telemetry = false;
    } else if (arg == "--audit-out" && has_value) {
      service_config.audit_path = argv[++i];
    } else if (arg == "--audit-rotate-mb" && has_value) {
      service_config.audit_rotate_bytes = megabytes(argv[++i]);
    } else if (arg == "--status-html" && has_value) {
      status_html_out = argv[++i];
    } else if (arg == "--status-interval" && has_value) {
      status_interval_sec = std::max(1L, number(argv[++i], 0, kMaxTime));
    } else {
      return usage();
    }
    if (bad_number) return usage();
  }
  if (server_config.unix_path.empty() && server_config.tcp_port < 0) {
    server_config.tcp_port = 0;  // ephemeral loopback by default
  }

  serve::TimingService service(service_config);
  serve::SocketServer server(service, server_config);
  const Expected<bool> started = server.start();
  if (!started) {
    std::fprintf(stderr, "error: %s\n", started.error().to_string().c_str());
    return 1;
  }
  if (!server.unix_path().empty()) {
    std::printf("listening on unix:%s\n", server.unix_path().c_str());
  }
  if (server.tcp_port() >= 0) {
    std::printf("listening on 127.0.0.1:%d\n", server.tcp_port());
  }
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  const auto write_text_file = [](const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    out << content;
    return static_cast<bool>(out);
  };

  long elapsed_ms = 0;
  long next_prom_ms = prom_interval_sec * 1000;
  long next_history_ms = 1000;
  long next_status_ms = status_interval_sec * 1000;
  while (!g_stop) {
    struct timespec ts{0, 200 * 1000 * 1000};
    ::nanosleep(&ts, nullptr);
    elapsed_ms += 200;
    if (elapsed_ms >= next_history_ms) {
      // One HistoryRing sample per second: with the default 240-slot ring
      // the status sparklines cover the last four minutes.
      service.record_history_sample();
      next_history_ms += 1000;
    }
    if (!prom_out.empty() && elapsed_ms >= next_prom_ms) {
      service.sample_runtime_gauges();
      obs::write_prometheus_text(prom_out);
      next_prom_ms += prom_interval_sec * 1000;
    }
    if (!status_html_out.empty() && elapsed_ms >= next_status_ms) {
      write_text_file(status_html_out, service.status_html());
      next_status_ms += status_interval_sec * 1000;
    }
    if (stop_after_sec > 0 && elapsed_ms >= stop_after_sec * 1000) break;
  }

  server.stop();

  if (!prom_out.empty()) {
    service.sample_runtime_gauges();
    if (obs::write_prometheus_text(prom_out)) std::printf("wrote %s\n", prom_out.c_str());
  }
  if (!trace_out.empty() &&
      write_text_file(trace_out, service.record_trace(/*clear=*/true).content)) {
    std::printf("wrote %s\n", trace_out.c_str());
  }
  if (!status_html_out.empty() &&
      write_text_file(status_html_out, service.status_html())) {
    std::printf("wrote %s\n", status_html_out.c_str());
  }

  const serve::ResultCache::Stats cs = service.cache().stats();
  const serve::TimingService::PoolStats ps = service.pool_stats();
  const long lookups = cs.hits + cs.misses;
  std::printf(
      "shut down: %ld connection%s, %zu session%s warm (%ld eviction%s), "
      "cache %ld/%ld hits (%.1f%%)\n",
      server.connections_accepted(), server.connections_accepted() == 1 ? "" : "s",
      ps.sessions, ps.sessions == 1 ? "" : "s", ps.evictions, ps.evictions == 1 ? "" : "s",
      cs.hits, lookups, lookups > 0 ? 100.0 * static_cast<double>(cs.hits) /
                                          static_cast<double>(lookups)
                                    : 0.0);
  if (!metrics_out.empty() && obs::write_metrics_json(metrics_out)) {
    std::printf("wrote %s\n", metrics_out.c_str());
  }
  return 0;
}
