// Golden wire frames: a fixed request script over the paper's builtins and
// one synthetic design, answered by handle_line. Pins two things:
//
//   * a cache hit's frame is the miss's frame byte for byte, except for the
//     envelope's "cached" flag;
//   * the bytes of every frame, hashed with FNV-1a after blanking the
//     wall-clock numbers (what bench_serve's scrub_volatile blanks, plus the
//     HTML report's "built in ... ms"), equal a constant recorded before the
//     cache served stored bytes and before the number codec moved to
//     to_chars/from_chars. A change to rendering that moves one byte of one
//     frame changes the hash.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "circuits/synthetic.h"
#include "obs/export.h"
#include "parser/lct.h"
#include "serve/json.h"
#include "serve/service.h"

namespace mintc::serve {
namespace {

// FNV-1a 64 of every scrubbed frame of the script, in order.
constexpr std::uint64_t kGoldenFramesHash = 0x63c227287930e789ull;

/// Blank the number after every "...seconds" key (escaped inside a report's
/// content string or not) and after the HTML report's "built in ".
std::string scrub_volatile(std::string frame) {
  const auto blank_number_after = [&frame](const std::string& marker, bool skip_quoting) {
    size_t pos = 0;
    while ((pos = frame.find(marker, pos)) != std::string::npos) {
      size_t p = pos + marker.size();
      while (skip_quoting && p < frame.size() &&
             (frame[p] == '\\' || frame[p] == '"' || frame[p] == ':' || frame[p] == ' ')) {
        ++p;
      }
      const size_t start = p;
      while (p < frame.size() &&
             (std::isdigit(static_cast<unsigned char>(frame[p])) || frame[p] == '.' ||
              frame[p] == 'e' || frame[p] == 'E' || frame[p] == '+' || frame[p] == '-')) {
        ++p;
      }
      if (p > start) frame.replace(start, p - start, "0");
      pos += marker.size();
    }
  };
  blank_number_after("seconds", true);
  blank_number_after("built in ", false);
  return frame;
}

struct Design {
  std::string key;
  std::string load;  // the load request's fields after "verb" and "circuit"
};

std::vector<Design> designs() {
  circuits::SyntheticParams params;
  params.num_phases = 3;
  params.num_stages = 12;
  params.latches_per_stage = 4;
  params.fanin = 3;
  params.extra_long_edges = 2;
  const std::string text = parser::write_circuit(circuits::synthetic_circuit(params, 7001));
  return {{"e1", R"("builtin": "example1")"},
          {"e2", R"("builtin": "example2")"},
          {"gaas", R"("builtin": "gaas")"},
          {"app", R"("builtin": "appendix")"},
          {"syn", "\"text\": \"" + obs::json_escape(text) + "\""}};
}

/// The reads sent for every design, each twice.
const char* const kReads[] = {
    R"("verb": "analyze")",
    R"("verb": "analyze", "detail": true)",
    R"("verb": "report", "format": "json")",
    R"("verb": "report", "format": "table")",
    R"("verb": "report", "format": "html")",
    R"("verb": "report", "format": "json", "signoff": true)",
    R"("verb": "sweep", "param": "scale", "from": 0.9, "to": 1.3, "steps": 5)",
    R"("verb": "sweep", "param": "clock_skew", "from": 0.0, "to": 2.5, "steps": 6)",
    R"("verb": "min")",
};

TEST(ServeFrameGolden, HitsSpliceTheMissBytesAndFramesMatchTheRecordedHash) {
  TimingService service;
  obs::Fnv1a hash;
  size_t frames = 0;
  const auto send = [&](const std::string& line) {
    const std::string frame = service.handle_line(line);
    hash.str(scrub_volatile(frame));
    ++frames;
    return frame;
  };

  int id = 0;
  for (const Design& d : designs()) {
    const std::string circuit = "\"circuit\": \"" + d.key + "\"";
    const std::string loaded = send("{\"id\": " + std::to_string(++id) +
                                    ", \"verb\": \"load\", " + circuit + ", " + d.load + "}");
    ASSERT_NE(loaded.find("\"ok\":true"), std::string::npos) << loaded;
    for (const char* read : kReads) {
      const std::string line =
          "{\"id\": " + std::to_string(++id) + ", " + read + ", " + circuit + "}";
      const std::string miss = send(line);
      const std::string hit = send(line);
      ASSERT_NE(miss.find("\"ok\":true,\"cached\":false,"), std::string::npos) << miss;
      std::string expected = miss;
      expected.replace(expected.find("\"cached\":false"), 14, "\"cached\":true");
      EXPECT_EQ(hit, expected) << d.key << " " << read;
    }
  }

  EXPECT_EQ(frames, 5u * (1 + 2 * std::size(kReads)));
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(hash.digest()));
  EXPECT_EQ(hash.digest(), kGoldenFramesHash) << "frames hash to " << hex;
}

}  // namespace
}  // namespace mintc::serve
