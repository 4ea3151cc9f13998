// svcbench — the repository's service benchmark.
//
// One closed-loop client thread drives serve::TimingService::handle_line
// in-process, request bytes in to response bytes out, on one of three
// seeded workloads (workloads.h, DESIGN.md). Every answer is checked
// against independent references outside the timed calls. The last line of
// standard output is one JSON object:
//
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
//
// with the end-to-end metrics (--trace 0) or the per-layer ledger's
// metrics (--trace 1).
//
//   svcbench --workload <eco_loop|dashboard_read|schedule_design> --seed N
//            --seconds S --trace <0|1> [--out-dir DIR]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "harness.h"
#include "ledger.h"
#include "workloads.h"

using namespace svcbench;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir;  // traced runs write their spans and ledger here
};

/// Host-speed probes run every kProbeEverySeconds of a pass. Each latency
/// and each setup is normalized by the median probe within
/// kProbeWindowSeconds of it, to the speed of a host whose probe takes
/// kProbeReferenceMs (this 4-vCPU Intel Xeon VM when quiet). A run whose
/// probe median lies more than kRegimeTolerance from the reference ran in
/// another host regime.
constexpr double kProbeEverySeconds = 0.1;
constexpr double kProbeWindowSeconds = 1.0;
constexpr double kProbeReferenceMs = 2.9;
constexpr double kRegimeTolerance = 0.2;

struct PassResult {
  std::vector<double> setup_seconds;  // one per setup repetition
  std::vector<double> setup_at;       // pass time at which each one ended
  std::vector<double> primary_ms;     // the loop's primary ops
  std::vector<double> primary_at;
  std::vector<double> loop_seconds;   // handle_line time of every loop request
  std::vector<double> loop_at;
  std::vector<double> probes_ms;      // host-speed probes
  std::vector<double> probe_at;
  long setup_requests = 0;            // sent by the setups after the first
};

/// The designs as shipped, without the harness's session state, for setups
/// on a service of their own.
std::vector<Design> fresh_copies(const std::vector<Design>& designs) {
  std::vector<Design> out;
  for (const Design& d : designs) {
    Design c;
    c.key = d.key;
    c.lct = d.lct;
    c.lcs = d.lcs;
    c.base_delay = d.base_delay;
    out.push_back(std::move(c));
  }
  return out;
}

/// One setup into `service`: TimingService construction, every load and
/// the first analyze of each design. Returns the seconds of those program
/// calls only.
double set_up(std::unique_ptr<mintc::serve::TimingService>& service, Verbs& verbs,
              Client& client, std::vector<Design>& designs) {
  mintc::serve::ServiceConfig config;
  config.analyze_threads = 0;  // scalar engine: one client, no solver threads
  double seconds = 0.0;
  {
    ProgramScope program;
    const double start = now_seconds();
    service = std::make_unique<mintc::serve::TimingService>(config);
    seconds = now_seconds() - start;
  }
  client.attach(service.get());
  for (Design& d : designs) seconds += verbs.load(d).seconds;
  for (Design& d : designs) seconds += verbs.analyze(d, false).seconds;
  return seconds;
}

/// The workload's closed loop for `seconds`, with its setup repetitions
/// spread evenly over the pass, so setup_s sees the same host as the loop.
/// The first setup builds the service the loop drives; each later one sets
/// up a service of its own on fresh copies of the designs, then drops it.
PassResult run_pass(Workload& workload, std::vector<Design>& designs, std::uint64_t seed,
                    double seconds, Client& client, Gate& gate, Ledger* ledger) {
  PassResult r;
  Client setup_client;  // keeps the later setups out of the loop's record
  if (ledger != nullptr) {
    client.set_spans(&ledger->spans);
    setup_client.set_spans(&ledger->spans);
  }
  Verbs verbs(client, gate, ledger);
  Verbs setup_verbs(setup_client, gate, ledger);
  setup_verbs.set_in_setup(true);
  std::vector<Design> setup_designs = fresh_copies(designs);
  std::unique_ptr<mintc::serve::TimingService> service, spare;

  const double start = now_seconds();
  r.probes_ms.push_back(probe_ms());
  r.probe_at.push_back(0.0);
  verbs.set_in_setup(true);
  r.setup_seconds.push_back(set_up(service, verbs, client, designs));
  r.setup_at.push_back(now_seconds() - start);
  verbs.set_in_setup(false);
  client.reset_counters();
  workload.reset(seed);
  const size_t reps = static_cast<size_t>(workload.setup_reps());
  double next_probe = 0.0;  // pass time of the next host-speed probe
  for (long it = 0; now_seconds() - start < seconds; ++it) {
    workload.step(verbs, designs, it, r.primary_ms);
    double at = now_seconds() - start;
    r.primary_at.resize(r.primary_ms.size(), at);
    r.loop_at.resize(static_cast<size_t>(client.requests()), at);
    if (r.setup_seconds.size() < reps &&
        at >= seconds * static_cast<double>(r.setup_seconds.size()) / static_cast<double>(reps)) {
      r.setup_seconds.push_back(set_up(spare, setup_verbs, setup_client, setup_designs));
      at = now_seconds() - start;
      r.setup_at.push_back(at);
      ProgramScope program;
      spare.reset();
    }
    if (at >= next_probe) {
      r.probes_ms.push_back(probe_ms());
      r.probe_at.push_back(at);
      next_probe = at + kProbeEverySeconds;
    }
  }
  r.loop_seconds = client.latencies();
  r.setup_requests = setup_client.sent();
  ProgramScope program;
  service.reset();
  return r;
}

/// `values` scaled by the host-speed factor at their pass time:
/// kProbeReferenceMs over the median probe within kProbeWindowSeconds.
std::vector<double> normalized(const PassResult& r, const std::vector<double>& values,
                               const std::vector<double>& at) {
  std::vector<double> out;
  size_t lo = 0, hi = 0;  // probes in [t - window, t + window]; `at` ascends
  for (size_t i = 0; i < values.size(); ++i) {
    while (lo < r.probe_at.size() && r.probe_at[lo] < at[i] - kProbeWindowSeconds) ++lo;
    while (hi < r.probe_at.size() && r.probe_at[hi] <= at[i] + kProbeWindowSeconds) ++hi;
    const std::vector<double> near(r.probes_ms.begin() + static_cast<long>(lo),
                                   r.probes_ms.begin() + static_cast<long>(hi));
    const double ms = quantile(near.empty() ? r.probes_ms : near, 0.5);
    out.push_back(values[i] * kProbeReferenceMs / ms);
  }
  return out;
}

double rate(const std::vector<double>& seconds, size_t n) {
  const double busy = std::accumulate(seconds.begin(), seconds.begin() + static_cast<long>(n), 0.0);
  return busy > 0.0 ? static_cast<double>(n) / busy : 0.0;
}

Json metric(double value, const char* unit) {
  Json m = Json::object();
  m.set("value", Json(value));
  m.set("unit", Json(unit));
  return m;
}

int usage() {
  std::fprintf(stderr,
               "usage: svcbench --workload <eco_loop|dashboard_read|schedule_design> "
               "--seed N --seconds S --trace <0|1> [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      opt.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      opt.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage();
    } else if (std::strcmp(flag, "--seconds") == 0) {
      opt.seconds = std::strtod(value, &end);
      if (*end != '\0') return usage();
    } else if (std::strcmp(flag, "--trace") == 0) {
      opt.trace = std::strcmp(value, "0") == 0 ? 0 : std::strcmp(value, "1") == 0 ? 1 : -1;
    } else if (std::strcmp(flag, "--out-dir") == 0) {
      opt.out_dir = value;
    } else {
      return usage();
    }
  }
  std::unique_ptr<Workload> workload = make_workload(opt.workload);
  if (argc % 2 == 0 || !workload || !(opt.seconds > 0.0) || opt.trace < 0) return usage();

  std::printf("svcbench workload=%s seed=%llu seconds=%g trace=%d\n", workload->name(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace);
  std::printf("host: %s\n", host_facts().c_str());

  Gate gate;
  const double pins_start = now_seconds();
  long attempted = check_paper_pins(gate);
  const double designs_start = now_seconds();
  std::vector<Design> designs = workload->make_designs();
  std::printf("harness: paper pins %.3f s, design generation %.3f s (untimed)\n",
              designs_start - pins_start, now_seconds() - designs_start);

  Json metrics = Json::object();
  Client client;
  PassResult pass;
  if (opt.trace == 0) {
    pass = run_pass(*workload, designs, opt.seed, opt.seconds, client, gate, nullptr);
    attempted += client.sent() + pass.setup_requests;
  } else {
    // An untraced pass first, then the traced pass over the same traffic;
    // their rates over the common request prefix give the tracing overhead.
    Client plain;
    const PassResult untraced =
        run_pass(*workload, designs, opt.seed, 0.3 * opt.seconds, plain, gate, nullptr);
    Ledger ledger;
    pass = run_pass(*workload, designs, opt.seed, 0.7 * opt.seconds, client, gate, &ledger);
    attempted += plain.sent() + untraced.setup_requests + client.sent() + pass.setup_requests;
    const size_t common = std::min(untraced.loop_seconds.size(), pass.loop_seconds.size());
    const Ledger::Overhead overhead{rate(untraced.loop_seconds, common),
                                    rate(pass.loop_seconds, common), static_cast<long>(common)};
    const std::string stem =
        opt.out_dir.empty()
            ? std::string()
            : opt.out_dir + "/" + workload->name() + "-seed" + std::to_string(opt.seed);
    metrics = ledger.finish(workload->name(), overhead, stem);
  }

  std::printf("\ndesigns:");
  for (const Design& d : designs) {
    std::printf(" %s(%d latches, %d paths, %d phases, %s)", d.key.c_str(),
                d.mirror->circuit().num_elements(), d.mirror->circuit().num_paths(),
                d.mirror->circuit().num_phases(),
                d.lcs.empty() ? "MLP schedule" : "explicit schedule");
  }
  std::printf("\ntraffic: %ld requests sent by the measured pass; hash of the first %ld: %s, "
              "of all: %s\n",
              client.sent(), Client::kHashPrefix,
              mintc::obs::hash_hex(client.prefix_hash()).c_str(),
              mintc::obs::hash_hex(client.traffic_hash()).c_str());

  // Timings are normalized to the reference host speed (see kProbeReferenceMs);
  // the raw figures are printed beside them.
  const std::vector<double> loop_norm = normalized(pass, pass.loop_seconds, pass.loop_at);
  const std::vector<double> primary_norm = normalized(pass, pass.primary_ms, pass.primary_at);
  const std::vector<double> setup_norm = normalized(pass, pass.setup_seconds, pass.setup_at);
  const size_t loop_requests = pass.loop_seconds.size();
  const size_t ops = pass.primary_ms.size();
  const double setup_s = quantile(setup_norm, 0.5);
  const double rps = rate(loop_norm, loop_requests);
  const double p50 = quantile(primary_norm, 0.5);
  const double p95 = quantile(primary_norm, 0.95);
  const double heap_mb = static_cast<double>(program_heap_peak_bytes()) / (1024.0 * 1024.0);
  const double probe_median = quantile(pass.probes_ms, 0.5);
  const double regime_offset = probe_median / kProbeReferenceMs - 1.0;
  std::printf("host speed: probe median %.4g ms, quartiles %.4g..%.4g, over %zu probes "
              "(reference %.4g ms)\n",
              probe_median, quantile(pass.probes_ms, 0.25), quantile(pass.probes_ms, 0.75),
              pass.probes_ms.size(), kProbeReferenceMs);
  // The probe tracks the host's swings within a regime, not every change
  // between regimes (DESIGN.md), so name the regime this run was taken in.
  const bool off_reference = std::abs(regime_offset) > kRegimeTolerance;
  std::printf("host regime: %s (probe median %+.1f%% from the reference)\n",
              off_reference ? "OFF-REFERENCE" : "reference", 100.0 * regime_offset);
  if (off_reference) {
    std::fprintf(stderr,
                 "svcbench: host regime OFF-REFERENCE: probe median %.4g ms is %+.1f%% from "
                 "%.4g ms; compare only with runs taken in the same regime\n",
                 probe_median, 100.0 * regime_offset, kProbeReferenceMs);
  }
  std::printf("%-20s %12s %12s\n", "metric (normalized)", "value", "raw");
  std::printf("%-20s %12.6g %12.6g s      median of %zu setups spread over the pass\n",
              "setup_s", setup_s, quantile(pass.setup_seconds, 0.5), pass.setup_seconds.size());
  std::printf("%-20s %12.6g %12.6g req/s  %zu loop requests, %.3f s inside handle_line\n",
              "requests_per_second", rps, rate(pass.loop_seconds, loop_requests), loop_requests,
              std::accumulate(pass.loop_seconds.begin(), pass.loop_seconds.end(), 0.0));
  std::printf("%-20s %12.6g %12.6g ms     %zu primary ops (%s)\n", "p50_ms", p50,
              quantile(pass.primary_ms, 0.5), ops, workload->primary_op());
  std::printf("%-20s %12.6g %12.6g ms     %zu primary ops, %zu above the 95th percentile\n",
              "p95_ms", p95, quantile(pass.primary_ms, 0.95), ops,
              ops - static_cast<size_t>(std::ceil(0.95 * static_cast<double>(ops))));
  std::printf("%-20s %12.6g %12s MB     peak program-owned operator-new bytes / 2^20\n",
              "peak_heap_mb", heap_mb, "-");
  if (ops < 200) {
    std::fprintf(stderr, "svcbench: only %zu primary ops; p95 has fewer than 10 beyond it\n", ops);
  }
  std::printf("correctness: %ld requests attempted, %ld failed\n", attempted, gate.failed);

  if (opt.trace == 0) {
    metrics.set("setup_s", metric(setup_s, "s"));
    metrics.set("requests_per_second", metric(rps, "req/s"));
    metrics.set("p50_ms", metric(p50, "ms"));
    metrics.set("p95_ms", metric(p95, "ms"));
    metrics.set("peak_heap_mb", metric(heap_mb, "MB"));
  }
  Json out = Json::object();
  out.set("correct", Json(gate.failed == 0));
  out.set("attempted", Json(attempted));
  out.set("failed", Json(gate.failed));
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
