// timing_tool — the library's functionality behind one command-line front
// end, in the spirit of the authors' later checkTc/minTc utilities.
//
//   timing_tool min <circuit.lct>                 minimum cycle time, critical cycle, schedule
//   timing_tool check <circuit.lct> <sched.lcs>   verify a schedule (checkTc)
//   timing_tool loops <circuit.lct>               feedback-loop inventory
//   timing_tool critical <circuit.lct>            critical segments at the optimum
//   timing_tool sens <circuit.lct>                dTc*/ddelay for every path
//   timing_tool bounds <circuit.lct>              closed-form lower bounds vs Tc*
//   timing_tool sim <circuit.lct> <sched.lcs>     event-driven token simulation
//   timing_tool corners <circuit.lct> <sched.lcs> slow/typical/fast sign-off (report --corners)
//   timing_tool svg|dot|vcd <circuit.lct> [out]   diagram / graph / waveform files
//   timing_tool baselines <circuit.lct>           compare against CPM/Jouppi/NRIP
//   timing_tool report <circuit> [sched.lcs] [--json F] [--html F] [--nworst K]
//                      [--corners]               signoff report (text/JSON/HTML)
//
// The <circuit> argument is a .lct file, or one of the built-in names
// example1 / example2 / gaas. Every subcommand also accepts the global
// flags --metrics-out <file> and --trace-out <file>, which dump the obs
// metrics registry / chrome trace on exit.
//
// --remote <unix:/path | host:port> routes min / check / corners / report
// through a running timing_serve daemon instead of computing locally: the
// circuit (and schedule) are shipped as .lct/.lcs text over the wire and
// the server's warm session pool + result cache answer. The other
// subcommands are local-only and say so.
//
// With no arguments, runs every subcommand against the built-in example 1.
#include <charconv>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/strings.h"
#include "base/table.h"
#include "baselines/binary_search.h"
#include "baselines/edge_triggered.h"
#include "circuits/example1.h"
#include "circuits/example2.h"
#include "circuits/gaas.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "opt/critical.h"
#include "opt/graph_solver.h"
#include "opt/mlp.h"
#include "opt/sensitivity.h"
#include "parser/lcs.h"
#include "parser/lct.h"
#include "opt/bounds.h"
#include "report/export.h"
#include "report/slackdb.h"
#include "serve/client.h"
#include "serve/json.h"
#include "sim/token_sim.h"
#include "sim/vcd.h"
#include "sta/analysis.h"
#include "sta/corners.h"
#include "viz/dot.h"
#include "viz/svg.h"
#include "viz/timing_diagram.h"

using namespace mintc;

namespace {

// Tc* as the constraint graph's maximum cycle ratio, the cycle that sets
// it, and one optimal schedule (the certified potentials, not MLP's vertex).
int cmd_min(const Circuit& c) {
  const auto r = opt::minimize_cycle_time_exact(c);
  if (!r) {
    std::printf("error: %s\n", r.error().to_string().c_str());
    return 1;
  }
  std::printf("Tc* = %s\n%s\ncritical cycle:", fmt_time(r->min_cycle, 6).c_str(),
              parser::write_schedule(r->schedule).c_str());
  for (const opt::CycleRow& row : r->critical_cycle) std::printf(" %s", row.name.c_str());
  std::printf("\n%s", viz::ascii_timing_diagram(c, r->schedule, r->departure).c_str());
  return 0;
}

// --remote <addr> (global flag): address of a timing_serve daemon; empty
// means compute locally.
std::string g_remote;

int cmd_check(const Circuit& c, const ClockSchedule& s) {
  sta::AnalysisOptions opt;
  opt.check_hold = true;
  const sta::TimingReport rep = sta::check_schedule(c, s, opt);
  std::printf("%s", rep.to_string(c).c_str());
  return rep.feasible ? 0 : 1;
}

int cmd_loops(const Circuit& c) {
  const opt::LoopReport rep = opt::analyze_loops(c);
  std::printf("%zu feedback loop%s%s:\n", rep.loops.size(),
              rep.loops.size() == 1 ? "" : "s", rep.complete ? "" : " (truncated)");
  int shown = 0;
  for (const opt::LoopInfo& loop : rep.loops) {
    std::printf("  %s\n", loop.to_string(c).c_str());
    if (++shown >= 20) {
      std::printf("  ... (%zu more)\n", rep.loops.size() - 20);
      break;
    }
  }
  if (!rep.loops.empty()) {
    std::printf("binding loop bound: Tc >= %s\n",
                fmt_time(rep.loops.front().implied_tc, 4).c_str());
  }
  return 0;
}

int cmd_critical(const Circuit& c) {
  const auto r = opt::minimize_cycle_time(c);
  if (!r) {
    std::printf("error: %s\n", r.error().to_string().c_str());
    return 1;
  }
  std::printf("Tc* = %s\n", fmt_time(r->min_cycle, 6).c_str());
  const opt::CriticalReport rep = opt::find_critical_segments(c, r->schedule, r->departure);
  std::printf("%s", rep.to_string(c).c_str());
  return 0;
}

int cmd_sens(const Circuit& c) {
  const auto s = opt::delay_sensitivities(c);
  if (!s) {
    std::printf("error: %s\n", s.error().to_string().c_str());
    return 1;
  }
  std::printf("Tc* = %s\n", fmt_time(s->min_cycle, 6).c_str());
  TextTable table({"path", "block", "delay", "dTc*/ddelay"});
  for (int p = 0; p < c.num_paths(); ++p) {
    const CombPath& path = c.path(p);
    table.add_row({c.element(path.from).name + "->" + c.element(path.to).name, path.label,
                   fmt_time(path.delay, 4),
                   fmt_time(s->dtc_ddelay[static_cast<size_t>(p)], 4)});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

int cmd_sim(const Circuit& c, const ClockSchedule& s) {
  const sim::SimResult r = sim::simulate_tokens(c, s);
  std::printf("simulated %d generation%s, %ld events: %s\n", r.generations,
              r.generations == 1 ? "" : "s", r.events,
              r.converged ? "steady state reached" : "NO steady state");
  if (!r.setup_ok) {
    std::printf("setup violation first seen in generation %d\n",
                r.first_violation_generation);
  }
  std::printf("steady-state departures: %s\n",
              viz::departure_summary(c, r.departure).c_str());
  return (r.converged && r.setup_ok) ? 0 : 1;
}

int cmd_svg(const Circuit& c, const std::string& out_path) {
  const auto r = opt::minimize_cycle_time(c);
  if (!r) {
    std::printf("error: %s\n", r.error().to_string().c_str());
    return 1;
  }
  const std::string svg = viz::svg_timing_diagram(c, r->schedule, r->departure);
  std::ofstream out(out_path);
  if (!out) {
    std::printf("cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << svg;
  std::printf("wrote %s (%zu bytes, Tc* = %s)\n", out_path.c_str(), svg.size(),
              fmt_time(r->min_cycle, 6).c_str());
  return 0;
}

int cmd_baselines(const Circuit& c) {
  const auto mlp = opt::minimize_cycle_time(c);
  if (!mlp) {
    std::printf("error: %s\n", mlp.error().to_string().c_str());
    return 1;
  }
  TextTable table({"method", "Tc", "vs optimal"});
  const auto row = [&](const std::string& m, double tc) {
    table.add_row({m, fmt_time(tc, 4),
                   "+" + fmt_time(100.0 * (tc / mlp->min_cycle - 1.0), 1) + "%"});
  };
  table.add_row({"MLP (optimal)", fmt_time(mlp->min_cycle, 4), "-"});
  const auto nrip = baselines::nrip_reconstruction(c);
  const auto jp = baselines::jouppi_borrowing(c);
  const auto et = baselines::edge_triggered_cpm(c);
  row(nrip.method, nrip.cycle);
  row(jp.method, jp.cycle);
  row(et.method, et.cycle);
  std::printf("%s", table.to_string().c_str());
  return 0;
}

int cmd_dot(const Circuit& c, const std::string& out_path) {
  const auto r = opt::minimize_cycle_time(c);
  viz::DotOptions dopt;
  if (r) {
    const opt::CriticalReport rep = opt::find_critical_segments(c, r->schedule, r->departure);
    dopt.highlight_paths = rep.tight_paths;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::printf("cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << viz::dot_circuit(c, dopt);
  std::printf("wrote %s (critical paths highlighted)\n", out_path.c_str());
  return 0;
}

int cmd_vcd(const Circuit& c, const std::string& out_path) {
  const auto r = opt::minimize_cycle_time(c);
  if (!r) {
    std::printf("error: %s\n", r.error().to_string().c_str());
    return 1;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::printf("cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << sim::write_vcd(c, r->schedule, r->departure);
  std::printf("wrote %s (open with any VCD viewer; Tc* = %s)\n", out_path.c_str(),
              fmt_time(r->min_cycle, 6).c_str());
  return 0;
}

int cmd_bounds(const Circuit& c) {
  std::printf("path-span bound: Tc >= %s\n", fmt_time(opt::path_span_bound(c), 6).c_str());
  std::printf("loop bound:      Tc >= %s\n", fmt_time(opt::loop_bound(c), 6).c_str());
  const auto r = opt::minimize_cycle_time(c);
  if (r) {
    std::printf("exact optimum:   Tc* = %s\n", fmt_time(r->min_cycle, 6).c_str());
  }
  return 0;
}

/// The flags after `<circuit>` of `report` (and of every --remote
/// subcommand), parsed once for the local and remote paths.
struct ReportArgs {
  std::string schedule_path, json_path, html_path;
  int nworst = 10;
  bool corners = false;
};

/// False on an unknown flag, or an --nworst that is not a decimal integer
/// in [1, 100000] (the service's range).
bool parse_report_args(int argc, char** argv, ReportArgs* out) {
  for (int i = 3; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      out->json_path = argv[++i];
    } else if (arg == "--html" && i + 1 < argc) {
      out->html_path = argv[++i];
    } else if (arg == "--nworst" && i + 1 < argc) {
      const std::string_view text = argv[++i];
      const char* end = text.data() + text.size();
      const auto [ptr, ec] = std::from_chars(text.data(), end, out->nworst);
      if (ec != std::errc() || ptr != end || out->nworst < 1 || out->nworst > 100000) {
        return false;
      }
    } else if (arg == "--corners") {
      out->corners = true;
    } else if (!arg.empty() && arg[0] != '-') {
      out->schedule_path = arg;
    } else {
      return false;
    }
  }
  return true;
}

/// Signoff report: runs the SlackDB builder and renders text (stdout) plus
/// optional JSON / self-contained HTML dashboard files.
int cmd_report(const Circuit& c, const ClockSchedule& s, const ReportArgs& args) {
  report::SlackDbOptions opt;
  opt.nworst = args.nworst;
  const auto write = [](const std::string& path, const std::string& text) {
    if (report::write_report_file(path, text)) std::printf("wrote %s\n", path.c_str());
  };
  if (args.corners) {
    const report::SignoffDB db = report::build_signoff(c, s, sta::standard_corners(), opt);
    std::printf("%s", report::signoff_table(db).c_str());
    if (!args.json_path.empty()) write(args.json_path, report::signoff_json(db));
    if (!args.html_path.empty()) write(args.html_path, report::signoff_html(c, db));
    return db.all_pass ? 0 : 1;
  }
  const report::SlackDB db = report::build_slackdb(c, s, opt);
  std::printf("%s", report::report_table(db).c_str());
  if (!args.json_path.empty()) write(args.json_path, report::report_json(db));
  if (!args.html_path.empty()) write(args.html_path, report::report_html(c, db));
  return db.feasible ? 0 : 1;
}

/// The paper's published GaAs schedule shape (Fig. 11): min-duty refinement
/// at Tc*, then phi1 stretched back to the cycle origin so phi3 sits
/// entirely inside it.
bool gaas_published_schedule(const Circuit& c, ClockSchedule* out) {
  const auto base = opt::minimize_cycle_time(c);
  if (!base) return false;
  const auto refined =
      opt::refine_schedule(c, base->min_cycle, opt::SecondaryObjective::kMinTotalWidth);
  if (!refined) return false;
  *out = refined->schedule;
  out->width[0] += out->start[0];
  out->start[0] = 0.0;
  return true;
}

/// Resolve a circuit argument: a .lct path, or a built-in name. Built-ins
/// also pick a natural default schedule (the optimum; for gaas, the
/// published Fig. 11 shape).
bool resolve_circuit(const std::string& arg, Circuit* out, ClockSchedule* default_sched,
                     bool* have_sched) {
  *have_sched = false;
  if (arg == "example1") {
    *out = circuits::example1(80.0);
  } else if (arg == "example2") {
    *out = circuits::example2();
  } else if (arg == "gaas") {
    *out = circuits::gaas_datapath();
    *have_sched = gaas_published_schedule(*out, default_sched);
  } else {
    auto circuit = parser::load_circuit(arg);
    if (!circuit) {
      std::printf("cannot load circuit: %s\n", circuit.error().to_string().c_str());
      return false;
    }
    *out = *circuit;
  }
  if (!*have_sched) {
    const auto r = opt::minimize_cycle_time(*out);
    if (r) {
      *default_sched = r->schedule;
      *have_sched = true;
    }
  }
  return true;
}

int usage() {
  std::printf(
      "usage: timing_tool <min|loops|critical|sens|bounds|baselines> <circuit.lct>\n"
      "       timing_tool <svg|dot|vcd> <circuit.lct> [out-file]\n"
      "       timing_tool <check|sim|corners> <circuit.lct> <schedule.lcs>\n"
      "       timing_tool report <circuit> [schedule.lcs] [--json <file>]\n"
      "                  [--html <file>] [--nworst <K>] [--corners]\n"
      "       <circuit> is a .lct file or a built-in: example1, example2, gaas\n"
      "       global flags: --metrics-out <file>, --trace-out <file>,\n"
      "                     --remote <unix:/path | host:port> (timing_serve daemon;\n"
      "                       min, check, corners and report run server-side)\n");
  return 2;
}

// ---------------------------------------------------------------- remote --

using serve::Json;

bool read_text_file(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return true;
}

/// Call the daemon, unwrap the envelope; nullopt (message printed) on any
/// transport or application error.
std::optional<Json> remote_call(serve::Client& client, Json request) {
  Expected<Json> response = client.call(std::move(request));
  if (!response) {
    std::printf("remote error: %s\n", response.error().to_string().c_str());
    return std::nullopt;
  }
  if (!response->get("ok").as_bool(false)) {
    const Json& err = response->get("error");
    std::printf("remote error [%s]: %s\n", err.str_or("kind", "?").c_str(),
                err.str_or("message").c_str());
    return std::nullopt;
  }
  return response->get("result");
}

/// min / check / corners / report against a timing_serve daemon. The
/// circuit (.lct text or builtin name) and optional .lcs schedule travel in
/// the load request; the analysis runs in the server's warm session pool.
int run_remote(const std::string& cmd, const std::string& circuit_arg, const ReportArgs& args) {
  serve::Client client;
  const Expected<bool> connected = client.connect(g_remote);
  if (!connected) {
    std::printf("cannot reach %s: %s\n", g_remote.c_str(),
                connected.error().to_string().c_str());
    return 1;
  }

  Json load = Json::object();
  load.set("verb", Json("load"));
  load.set("circuit", Json(circuit_arg));
  if (circuit_arg == "example1" || circuit_arg == "example2" || circuit_arg == "gaas" ||
      circuit_arg == "appendix") {
    load.set("builtin", Json(circuit_arg));
  } else {
    std::string text;
    if (!read_text_file(circuit_arg, &text)) {
      std::printf("cannot read %s\n", circuit_arg.c_str());
      return 1;
    }
    load.set("text", Json(std::move(text)));
  }
  // Optional positional schedule (required for check/corners semantics;
  // without it the server analyzes at its computed MLP optimum).
  if (!args.schedule_path.empty()) {
    std::string text;
    if (!read_text_file(args.schedule_path, &text)) {
      std::printf("cannot read %s\n", args.schedule_path.c_str());
      return 1;
    }
    load.set("schedule", Json(std::move(text)));
  }

  const std::optional<Json> loaded = remote_call(client, std::move(load));
  if (!loaded) return 1;
  std::printf("loaded \"%s\" on %s: %ld elements, %ld paths%s\n", circuit_arg.c_str(),
              g_remote.c_str(), loaded->long_or("elements", 0), loaded->long_or("paths", 0),
              loaded->has("min_cycle") ? " (schedule: server-side exact optimum)" : "");

  const auto make_req = [&](const char* verb) {
    Json req = Json::object();
    req.set("verb", Json(verb));
    req.set("circuit", Json(circuit_arg));
    return req;
  };

  if (cmd == "min") {
    const std::optional<Json> result = remote_call(client, make_req("min"));
    if (!result) return 1;
    std::printf("Tc* = %s\n%scritical cycle:",
                fmt_time(result->num_or("min_cycle", 0.0), 6).c_str(),
                result->str_or("lcs").c_str());
    const Json& cycle = result->get("critical_cycle");
    for (size_t i = 0; i < cycle.size(); ++i) {
      std::printf(" %s", cycle.at(i).str_or("row").c_str());
    }
    std::printf("\n");
    return 0;
  }

  if (cmd == "check") {
    Json req = make_req("analyze");
    req.set("detail", Json(true));
    const std::optional<Json> result = remote_call(client, req);
    if (!result) return 1;
    const bool feasible = result->bool_or("feasible", false);
    std::printf("schedule %s: setup %s, hold %s, worst setup slack %s\n",
                feasible ? "FEASIBLE" : "INFEASIBLE",
                result->bool_or("setup_ok", false) ? "ok" : "VIOLATED",
                result->bool_or("hold_ok", false) ? "ok" : "VIOLATED",
                fmt_time(result->num_or("worst_setup_slack", 0.0), 4).c_str());
    return feasible ? 0 : 1;
  }

  if (cmd == "corners" || cmd == "report") {
    Json req = make_req("report");
    req.set("format", Json("table"));
    req.set("nworst", Json(static_cast<long>(args.nworst)));
    const bool signoff = cmd == "corners" || args.corners;
    req.set("signoff", Json(signoff));
    const std::optional<Json> result = remote_call(client, req);
    if (!result) return 1;
    std::printf("%s", result->str_or("content").c_str());
    const auto fetch_to_file = [&](const char* format, const std::string& path) {
      Json file_req = make_req("report");
      file_req.set("format", Json(format));
      file_req.set("nworst", Json(static_cast<long>(args.nworst)));
      file_req.set("signoff", Json(signoff));
      const std::optional<Json> r = remote_call(client, file_req);
      if (r && report::write_report_file(path, r->str_or("content"))) {
        std::printf("wrote %s\n", path.c_str());
      }
    };
    if (!args.json_path.empty()) fetch_to_file("json", args.json_path);
    if (!args.html_path.empty()) fetch_to_file("html", args.html_path);
    return (signoff ? result->bool_or("all_pass", false)
                    : result->bool_or("feasible", false))
               ? 0
               : 1;
  }
  return usage();
}

int run(int argc, char** argv) {
  if (argc == 1) {
    // Demo mode: run everything on example 1.
    const Circuit c = circuits::example1(80.0);
    std::printf("(demo mode: example 1 with delta41 = 80; pass a .lct file to use yours)\n\n");
    std::printf("== min ==\n");
    cmd_min(c);
    std::printf("\n== loops ==\n");
    cmd_loops(c);
    std::printf("\n== critical ==\n");
    cmd_critical(c);
    std::printf("\n== sens ==\n");
    cmd_sens(c);
    std::printf("\n== bounds ==\n");
    cmd_bounds(c);
    std::printf("\n== baselines ==\n");
    cmd_baselines(c);
    std::printf("\n== sim (at the optimum) ==\n");
    const auto r = opt::minimize_cycle_time(c);
    return r ? cmd_sim(c, r->schedule) : 1;
  }
  if (argc < 3) return usage();
  const std::string cmd = argv[1];

  if (!g_remote.empty()) {
    if (cmd != "min" && cmd != "check" && cmd != "corners" && cmd != "report") {
      std::printf("subcommand '%s' runs locally only; drop --remote\n", cmd.c_str());
      return 2;
    }
    ReportArgs args;
    if (!parse_report_args(argc, argv, &args)) return usage();
    return run_remote(cmd, argv[2], args);
  }

  if (cmd == "report") {
    ReportArgs args;
    if (!parse_report_args(argc, argv, &args)) return usage();
    Circuit c("", 1);
    ClockSchedule sched;
    bool have_sched = false;
    if (!resolve_circuit(argv[2], &c, &sched, &have_sched)) return 1;
    if (!args.schedule_path.empty()) {
      const auto s = parser::load_schedule(args.schedule_path);
      if (!s) {
        std::printf("cannot load schedule: %s\n", s.error().to_string().c_str());
        return 1;
      }
      sched = *s;
      have_sched = true;
    }
    if (!have_sched) {
      std::printf("no feasible schedule for this circuit (pass a .lcs file)\n");
      return 1;
    }
    return cmd_report(c, sched, args);
  }

  const auto circuit = parser::load_circuit(argv[2]);
  if (!circuit) {
    std::printf("cannot load circuit: %s\n", circuit.error().to_string().c_str());
    return 1;
  }
  if (cmd == "min") return cmd_min(*circuit);
  if (cmd == "loops") return cmd_loops(*circuit);
  if (cmd == "critical") return cmd_critical(*circuit);
  if (cmd == "sens") return cmd_sens(*circuit);
  if (cmd == "baselines") return cmd_baselines(*circuit);
  if (cmd == "bounds") return cmd_bounds(*circuit);
  if (cmd == "svg") return cmd_svg(*circuit, argc >= 4 ? argv[3] : "timing.svg");
  if (cmd == "dot") return cmd_dot(*circuit, argc >= 4 ? argv[3] : "circuit.dot");
  if (cmd == "vcd") return cmd_vcd(*circuit, argc >= 4 ? argv[3] : "timing.vcd");
  if (cmd == "check" || cmd == "sim" || cmd == "corners") {
    if (argc < 4) return usage();
    const auto schedule = parser::load_schedule(argv[3]);
    if (!schedule) {
      std::printf("cannot load schedule: %s\n", schedule.error().to_string().c_str());
      return 1;
    }
    if (cmd == "check") return cmd_check(*circuit, *schedule);
    if (cmd == "corners") {
      ReportArgs args;
      args.corners = true;
      return cmd_report(*circuit, *schedule, args);
    }
    return cmd_sim(*circuit, *schedule);
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the global observability flags before subcommand dispatch so every
  // subcommand gets them for free.
  std::string metrics_out, trace_out;
  std::vector<char*> args;
  args.reserve(static_cast<size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (arg == "--remote" && i + 1 < argc) {
      g_remote = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!trace_out.empty()) obs::Tracer::instance().set_enabled(true);

  const int rc = run(static_cast<int>(args.size()), args.data());

  if (!metrics_out.empty() && obs::write_metrics_json(metrics_out)) {
    std::printf("wrote %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty() && obs::write_chrome_trace(trace_out)) {
    std::printf("wrote %s\n", trace_out.c_str());
  }
  return rc;
}
