#include "serve/audit.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "base/log.h"
#include "obs/export.h"

namespace mintc::serve {

std::string audit_json_line(const RequestRecord& r) {
  char num[64];
  std::string out = "{\"t\": ";
  std::snprintf(num, sizeof num, "%.3f", r.t_seconds);
  out += num;
  out += ", \"trace\": \"" + obs::json_escape(r.trace) + "\"";
  out += ", \"verb\": \"" + obs::json_escape(r.verb) + "\"";
  out += ", \"circuit\": \"" + obs::json_escape(r.circuit) + "\"";
  out += std::string(", \"ok\": ") + (r.ok ? "true" : "false");
  out += std::string(", \"cached\": ") + (r.cached ? "true" : "false");
  std::snprintf(num, sizeof num, ", \"us\": %.1f", r.wall_us);
  out += num;
  // Stages round down to 0.1us, so the rendered stages still sum to at most
  // the rendered "us".
  const char* sep = ", \"stages\": {";
  for (const auto& [name, us] : r.stages.named()) {
    std::snprintf(num, sizeof num, "%s\"%s\": %.1f", sep, name, std::floor(us * 10.0) / 10.0);
    out += num;
    sep = ", ";
  }
  out += "}";
  std::snprintf(num, sizeof num, ", \"cpu_us\": %" PRId64, r.cpu_us);
  out += num;
  std::snprintf(num, sizeof num, ", \"relaxations\": %" PRId64, r.relaxations);
  out += num;
  std::snprintf(num, sizeof num, ", \"sweeps\": %" PRId64, r.sweeps);
  out += num;
  std::snprintf(num, sizeof num, ", \"solves\": %" PRId64, r.solves);
  out += num;
  out += "}";
  return out;
}

AuditLog::AuditLog(std::string path, std::size_t rotate_bytes)
    : path_(std::move(path)),
      rotate_bytes_(std::max<std::size_t>(rotate_bytes == 0 ? (8u << 20) : rotate_bytes,
                                          4096)) {
  const std::lock_guard<std::mutex> lk(mu_);
  open_locked();
}

AuditLog::~AuditLog() {
  const std::lock_guard<std::mutex> lk(mu_);
  if (file_ != nullptr) std::fclose(file_);
}

void AuditLog::open_locked() {
  file_ = std::fopen(path_.c_str(), "a");
  if (file_ == nullptr) {
    log_warn() << "serve: cannot open audit log '" << path_ << "'";
    bytes_ = 0;
    return;
  }
  // Resume the size accounting of an existing file across restarts.
  long pos = 0;
  if (std::fseek(file_, 0, SEEK_END) == 0 && (pos = std::ftell(file_)) > 0) {
    bytes_ = static_cast<std::size_t>(pos);
  } else {
    bytes_ = 0;
  }
}

void AuditLog::rotate_locked() {
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
  const std::string previous = path_ + ".1";
  std::remove(previous.c_str());
  if (std::rename(path_.c_str(), previous.c_str()) != 0) {
    log_warn() << "serve: audit rotation rename failed for '" << path_ << "'";
  }
  ++rotations_;
  open_locked();
}

void AuditLog::append(const RequestRecord& record) {
  const std::string line = audit_json_line(record) + "\n";
  const std::lock_guard<std::mutex> lk(mu_);
  if (file_ != nullptr && bytes_ + line.size() > rotate_bytes_ && bytes_ > 0) {
    rotate_locked();
  }
  if (file_ == nullptr) {
    open_locked();  // retry once per record; drop on persistent failure
    if (file_ == nullptr) return;
  }
  if (std::fwrite(line.data(), 1, line.size(), file_) == line.size()) {
    std::fflush(file_);
    bytes_ += line.size();
    ++written_;
  }
}

std::int64_t AuditLog::written() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return written_;
}

std::int64_t AuditLog::rotations() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return rotations_;
}

}  // namespace mintc::serve
