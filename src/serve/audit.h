// RequestRecord, the one record TimingService completes per answered frame,
// and its durable view: a size-rotated JSONL audit log of served requests.
// One line per request with the trace id, verb, circuit key, cache
// hit/miss, outcome, wall latency, the stage times and the request's
// CostAccount totals, so "which request burned the CPU last night, and in
// which stage" is a grep, not a reproduction.
//
// Rotation: when the current file would exceed `rotate_bytes`, it is
// renamed to "<path>.1" (replacing any previous .1) and a fresh file is
// opened — bounded at ~2x rotate_bytes of disk, no external logrotate
// needed. Writes are line-buffered under a mutex and flushed per record;
// an audit line is worth a syscall, and the serve path is not latency-bound
// on the log (tested at the bench's overhead gate).
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>

namespace mintc::serve {

/// Where a request's wall time went, in microseconds, from one steady_clock
/// read per stage boundary. A stage the request never reached stays 0, so
/// the stages sum to at most the record's wall_us; the remainder is the
/// routing between parse and work (verb table, session-pool lookup, the
/// verb's parameter checks).
struct StageTimes {
  double parse_request = 0.0;  // frame bytes to the request Json and its
                               // id, verb, circuit and trace fields
  double lock_wait = 0.0;      // waiting for the circuit's session lock
  double lookup = 0.0;         // result-cache get; a hit's stored bytes are
                               // its answer, with no decode
  double work = 0.0;           // the plain verb's handler; a session write;
                               // a session read up to the end of its engine
                               // step (analyze, SlackDB or signoff build,
                               // Tc* solve, sweep loop)
  double render = 0.0;         // a session read's answer built from that
                               // step's result and its one dump(), whose
                               // bytes go to the cache and onto the wire
  double encode_frame = 0.0;   // the answer's envelope, echoes and frame
                               // bytes (a read's rendered bytes copied in)

  /// The stages in request order, under the names every view prints.
  std::array<std::pair<const char*, double>, 6> named() const {
    return {{{"parse_request", parse_request},
             {"lock_wait", lock_wait},
             {"lookup", lookup},
             {"work", work},
             {"render", render},
             {"encode_frame", encode_frame}}};
  }
};

/// What the service knows of one answered frame. The audit line, the status
/// page's slow-request table, the --slow-ms warning, the serve.latency_us /
/// serve.cpu_us / serve.relaxations histograms and the "cost" envelope
/// block are all rendered from it.
struct RequestRecord {
  double t_seconds = 0.0;        // seconds since service start
  std::string trace;             // 16-char hex id, "" when unsampled
  std::string verb;              // "" when the frame did not parse
  std::string circuit;           // "" when the verb carries no key
  bool ok = false;
  bool cached = false;
  double wall_us = 0.0;          // request bytes in to response bytes out
  StageTimes stages;
  std::int64_t cpu_us = 0;       // CostAccount totals (0 when attribution off)
  std::int64_t relaxations = 0;
  std::int64_t sweeps = 0;
  std::int64_t solves = 0;
  int tid = 0;                   // handler thread's obs::thread_trace_id,
                                 // kept for sampled records only
};

class AuditLog {
 public:
  /// Opens `path` for append. `rotate_bytes` caps the active file (clamped
  /// to >= 4096); 0 keeps the default of 8 MiB.
  AuditLog(std::string path, std::size_t rotate_bytes);
  ~AuditLog();

  AuditLog(const AuditLog&) = delete;
  AuditLog& operator=(const AuditLog&) = delete;

  /// Append one JSONL record (with trailing newline) and flush. Silently
  /// drops records when the file cannot be (re)opened — the service must
  /// keep serving through a full disk.
  void append(const RequestRecord& record);

  /// Records written since construction (drops excluded).
  std::int64_t written() const;
  /// Times the active file was rotated to "<path>.1".
  std::int64_t rotations() const;
  const std::string& path() const { return path_; }

 private:
  void open_locked();
  void rotate_locked();

  mutable std::mutex mu_;
  std::string path_;
  std::size_t rotate_bytes_;
  std::FILE* file_ = nullptr;
  std::size_t bytes_ = 0;  // size of the active file
  std::int64_t written_ = 0;
  std::int64_t rotations_ = 0;
};

/// Render one record as its JSONL line (no trailing newline).
std::string audit_json_line(const RequestRecord& record);

}  // namespace mintc::serve
