#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory_resource>
#include <new>
#include <random>
#include <sstream>
#include <string_view>

#include "serve/protocol.h"

// -- Heap accounting ----------------------------------------------------------
// Replacing the global allocation functions is the one way to see every heap
// byte the program takes without changing it. An allocation made while the
// thread is inside a ProgramScope belongs to the program, any other to the
// harness. Each block carries a small header with its size and owner, so a
// free decrements the owner's count whichever side releases it (the
// response string handle_line returns is freed by the harness, say).

namespace {

struct alignas(alignof(std::max_align_t)) BlockHeader {
  std::size_t size;
  bool program;
};

thread_local bool t_in_program = false;
std::atomic<std::size_t> g_program_live{0};
std::atomic<std::size_t> g_program_peak{0};

void* counted_alloc(std::size_t n) {
  void* raw = std::malloc(sizeof(BlockHeader) + n);
  if (raw == nullptr) return nullptr;
  BlockHeader* h = static_cast<BlockHeader*>(raw);
  h->size = n;
  h->program = t_in_program;
  if (h->program) {
    const std::size_t live = g_program_live.fetch_add(n, std::memory_order_relaxed) + n;
    std::size_t peak = g_program_peak.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_program_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
    }
  }
  return h + 1;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  BlockHeader* h = static_cast<BlockHeader*>(p) - 1;
  if (h->program) g_program_live.fetch_sub(h->size, std::memory_order_relaxed);
  std::free(h);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }

namespace svcbench {

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ProgramScope::ProgramScope() : outer_(t_in_program) { t_in_program = true; }
ProgramScope::~ProgramScope() { t_in_program = outer_; }

std::size_t program_heap_peak_bytes() {
  return g_program_peak.load(std::memory_order_relaxed);
}

int SpanLog::add(std::string name, double start, double end, int parent, long request) {
  spans_.push_back({std::move(name), start, end, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  out << "{\"traceEvents\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << (s.parent < 0 ? 1 : 2)
        << ", \"ts\": " << mintc::obs::json_number((s.start - origin) * 1e6)
        << ", \"dur\": " << mintc::obs::json_number(s.seconds() * 1e6)
        << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Reply Client::send(const Json& request) {
  line_ = request.dump();
  hash_all_.str(line_);
  if (sent_total_ < kHashPrefix) hash_prefix_.str(line_);

  Reply reply;
  reply.verb = request.get("verb").as_string();
  const double start = now_seconds();
  std::string frame;
  {
    ProgramScope program;
    frame = service_->handle_line(line_);
  }
  const double end = now_seconds();
  reply.seconds = end - start;
  reply.bytes = frame.size();
  if (spans_ != nullptr) {
    reply.span = spans_->add("serve." + reply.verb, start, end, -1, spans_->next_request());
  }
  ++sent_total_;
  latencies_.push_back(reply.seconds);

  std::string_view body(frame);
  if (!body.empty() && body.back() == '\n') body.remove_suffix(1);
  mintc::Expected<Json> parsed = mintc::serve::parse_json(body);
  if (parsed) reply.envelope = std::move(parsed.value());
  return reply;
}

namespace {
// The probe allocates from this arena only, so the state of the program's
// heap cannot change the probe's speed.
alignas(64) std::byte g_probe_arena[size_t{2} << 20];
}  // namespace

double probe_ms() {
  const double start = now_seconds();
  std::pmr::monotonic_buffer_resource arena(g_probe_arena, sizeof g_probe_arena,
                                            std::pmr::null_memory_resource());
  std::pmr::map<std::pmr::string, double> table(&arena);
  std::mt19937_64 rng(7);
  char key[48];
  for (int i = 0; i < 6000; ++i) {
    std::snprintf(key, sizeof key, "n%llu_%d", static_cast<unsigned long long>(rng() % 100000),
                  i);
    table[std::pmr::string(key, &arena)] += i * 0.5;
  }
  std::pmr::vector<std::pmr::string> keys(&arena);
  keys.reserve(table.size());
  for (const auto& entry : table) keys.push_back(entry.first);
  std::sort(keys.begin(), keys.end(), [](const std::pmr::string& a, const std::pmr::string& b) {
    return a.size() != b.size() ? a.size() < b.size() : a > b;
  });
  const double end = now_seconds();
  // Consume the result so the kernel cannot be optimized away.
  if (keys.size() != table.size() || keys.front().empty()) std::abort();
  return (end - start) * 1e3;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

std::string host_facts() {
  std::ostringstream out;
  out << "nproc=" << sysconf(_SC_NPROCESSORS_ONLN);
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) == 3) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " loadavg=%.2f/%.2f/%.2f", load[0], load[1], load[2]);
    out << buf;
  }
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) out << " cpu=\"" << line.substr(colon + 2) << "\"";
      break;
    }
  }
  return out.str();
}

}  // namespace svcbench
