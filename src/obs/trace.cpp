#include "obs/trace.h"

#include <utility>

namespace mintc::obs {

int thread_trace_id() {
  static std::atomic<int> next{1};
  thread_local int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  // last_ts_us_ is deliberately kept: timestamps stay monotone across a
  // clear so concatenated exports never jump backwards.
}

size_t Tracer::num_events() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void Tracer::record(EventKind kind, const std::string& name, const std::string& category,
                    double value) {
  const double ts =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - epoch_)
          .count();
  TraceEvent event;
  event.kind = kind;
  event.name = name;
  event.category = category;
  event.value = value;
  event.tid = thread_trace_id();

  const std::lock_guard<std::mutex> lock(mu_);
  if (ts > last_ts_us_) last_ts_us_ = ts;  // clamp: monotone in buffer order
  event.ts_us = last_ts_us_;
  events_.push_back(std::move(event));
}

bool Tracer::begin_span(const std::string& name, const std::string& category) {
  if (!enabled()) return false;
  record(EventKind::kBegin, name, category, 0.0);
  return true;
}

void Tracer::end_span(const std::string& name, const std::string& category) {
  record(EventKind::kEnd, name, category, 0.0);
}

void Tracer::instant(const std::string& name, const std::string& category) {
  if (!enabled()) return;
  record(EventKind::kInstant, name, category, 0.0);
}

void Tracer::counter(const std::string& name, double value, const std::string& category) {
  if (!enabled()) return;
  record(EventKind::kCounter, name, category, value);
}

std::vector<TraceEvent> Tracer::snapshot(size_t since) const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (since >= events_.size()) return {};
  return {events_.begin() + static_cast<long>(since), events_.end()};
}

}  // namespace mintc::obs
