// Pins the .lct and .lcs readers: every error each one reports, with its
// exact message and line number; the corners of the grammar they accept;
// and a golden hash over every field of parse_circuit(write_circuit(c)) for
// the paper circuits and fuzz seeds 1-2000. The messages and the hash were
// recorded with the reader that tokenized each line into a vector and
// resolved attributes through a key-ordered std::map; any later reader must
// reproduce them exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "check/fuzzer.h"
#include "circuits/example1.h"
#include "circuits/example2.h"
#include "circuits/gaas.h"
#include "obs/export.h"
#include "parser/lcs.h"
#include "parser/lct.h"

namespace mintc::parser {
namespace {

struct ErrorCase {
  std::string text;
  std::string message;
};

// Lines 1-2 and 1-4 of most cases below.
const std::string kHead = "circuit t\nphases 2\n";
const std::string kAB = kHead + "latch A phase=1 setup=1 dq=2\nlatch B phase=2 setup=1 dq=2\n";

TEST(LctPins, EveryErrorWithItsMessageAndLine) {
  const ErrorCase cases[] = {
      // Tokenizing.
      {kAB + "path A B delay=1 label=\"oops\n", "line 5: unterminated quote"},
      {kAB + "path A B delay=1 label=\"a # b\n", "line 5: unterminated quote"},
      {kHead + "latch A\" phase=1\n", "line 3: unterminated quote"},
      {kAB + "path A B delay=1 label=\"a\\\"\n", "line 5: unterminated quote"},
      {kAB + "path A B delay=1 label=\"a\"b\"\n", "line 5: unterminated quote"},
      // circuit / phases.
      {"circuit\n", "line 1: usage: circuit <name>"},
      {"\n\ncircuit a b\n", "line 3: usage: circuit <name>"},
      {"phases 1\nlatch A phase=1 setup=1 dq=2\ncircuit late\n",
       "line 3: 'circuit' must precede all elements"},
      {"phases\n", "line 1: usage: phases <k>, k >= 1"},
      {"circuit t\nphases 0\n", "line 2: usage: phases <k>, k >= 1"},
      {"circuit t\nphases -2\n", "line 2: usage: phases <k>, k >= 1"},
      {"circuit t\nphases x\n", "line 2: usage: phases <k>, k >= 1"},
      {"circuit t\nphases 1 2\n", "line 2: usage: phases <k>, k >= 1"},
      {"circuit t\nphases +2\n", "line 2: usage: phases <k>, k >= 1"},
      {"circuit t\nphases 2.0\n", "line 2: usage: phases <k>, k >= 1"},
      {"circuit t\nphases \"2\"\n", "line 2: usage: phases <k>, k >= 1"},
      {kHead + "latch A phase=1 setup=1 dq=2\nphases 3\n",
       "line 4: 'phases' must precede all elements"},
      {"circuit t\nlatch A phase=1 setup=1 dq=2\n", "line 2: 'phases' must come before elements"},
      {"flipflop F phase=1 setup=1 cq=2\n", "line 1: 'phases' must come before elements"},
      {"circuit t\nphases 0\nlatch A\n", "line 2: usage: phases <k>, k >= 1"},
      // Elements.
      {kHead + "latch\n", "line 3: missing element name"},
      {kHead + "flipflop   # no name\n", "line 3: missing element name"},
      {kHead + "latch A phase\n", "line 3: malformed key=value attribute"},
      {kHead + "latch A =1\n", "line 3: malformed key=value attribute"},
      {kHead + "latch A label=\"a\"b\n", "line 3: malformed key=value attribute"},
      {kHead + "latch A setup=\"a\\qb\"\n", "line 3: malformed key=value attribute"},
      // A malformed attribute anywhere beats every other attribute error.
      {kHead + "latch A zap=1 phase\n", "line 3: malformed key=value attribute"},
      {kHead + "latch A setup=x noeq\n", "line 3: malformed key=value attribute"},
      // ... even one whose key a later attribute overrides.
      {kHead + "latch A phase=1 setup=\"1\\n\" setup=1 dq=2\n",
       "line 3: malformed key=value attribute"},
      {kHead + "latch A phase=x setup=1 dq=2\n", "line 3: bad phase"},
      {kHead + "latch A phase=1.5 setup=1 dq=2\n", "line 3: bad phase"},
      {kHead + "latch A phase= setup=1 dq=2\n", "line 3: bad phase"},
      {kHead + "latch A phase=1 setup=1 dq=x\n", "line 3: bad dq"},
      {kHead + "latch A phase=1 setup=1 dq=nan\n", "line 3: bad dq"},
      {kHead + "latch A phase=1 setup=1 dq=1e309\n", "line 3: bad dq"},
      {kHead + "flipflop F phase=1 setup=1 cq=x\n", "line 3: bad cq"},
      {kHead + "latch A phase=1 setup=inf dq=2\n", "line 3: bad setup"},
      {kHead + "latch A phase=1 setup=1 dq=2 hold=1x\n", "line 3: bad hold"},
      {kHead + "latch A phase=1 setup=1 dq=2 dqmin=\n", "line 3: bad dqmin"},
      {kHead + "latch A phase=1 setup=1 dq=2 skew=-0.5\n",
       "line 3: bad skew (must be finite and nonnegative)"},
      {kHead + "latch A phase=1 setup=1 dq=2 skew=inf\n",
       "line 3: bad skew (must be finite and nonnegative)"},
      {kHead + "latch A phase=1 setup=1 dq=2 zap=3\n", "line 3: unknown attribute 'zap'"},
      {kHead + "latch A phase=1 setup=1 cq=2\n", "line 3: unknown attribute 'cq'"},
      {kHead + "flipflop F phase=1 setup=1 dq=2\n", "line 3: unknown attribute 'dq'"},
      {kHead + "latch A phase=1 \"a b\"=1\n", "line 3: unknown attribute '\"a b\"'"},
      {kHead + "latch A phase=1 \"x=y\"=1\n", "line 3: unknown attribute '\"x'"},
      {kAB + "latch A phase=2 setup=1 dq=2\n", "line 5: duplicate element 'A'"},
      {kAB + "latch A phase=9 setup=1 dq=2\n", "line 5: duplicate element 'A'"},
      {kHead + "latch A phase=3 setup=1 dq=2\n", "line 3: element 'A' phase out of range"},
      {kHead + "latch A phase=0 setup=1 dq=2\n", "line 3: element 'A' phase out of range"},
      {kHead + "flipflop F phase=-1 setup=1 cq=2\n", "line 3: element 'F' phase out of range"},
      // Two bad attributes on one line: the first in byte order of the key
      // is reported, whatever their order on the line.
      {kHead + "latch A setup=x phase=y dq=2\n", "line 3: bad phase"},
      {kHead + "latch A zap=1 hold=x\n", "line 3: bad hold"},
      {kHead + "latch A hold=1 aaa=1 dq=x\n", "line 3: unknown attribute 'aaa'"},
      {kHead + "latch A setup=x abc=1\n", "line 3: unknown attribute 'abc'"},
      {kHead + "latch A zzz=1 yyy=2\n", "line 3: unknown attribute 'yyy'"},
      {kHead + "latch A dq=1 Setup=1 dq=x\n", "line 3: unknown attribute 'Setup'"},
      {kHead + "flipflop F phase=1 setup=1 dq=1 cq=x\n", "line 3: bad cq"},
      {kHead + "flipflop F dqmin=x cq=y\n", "line 3: bad cq"},
      {kHead + "latch A skew=-1 setup=x\n", "line 3: bad setup"},
      {kHead + "latch A dqmin=x dq=y\n", "line 3: bad dq"},
      {kHead + "latch A \xc3\xa9=1 zap=1\n", "line 3: unknown attribute 'zap'"},
      {kHead + "latch A phase=1 setup=1 setup=x dq=2\n", "line 3: bad setup"},
      {kHead + "latch A phase=x phase=1 phase=y setup=1 dq=2\n", "line 3: bad phase"},
      // Paths.
      {kHead + "path A B delay=1\n", "line 3: 'path' before any element"},
      {"circuit t\nphases 1\n\npath\n", "line 4: 'path' before any element"},
      {kAB + "path A\n", "line 5: usage: path <from> <to> delay=<d> ..."},
      {kAB + "path A B delay\n", "line 5: malformed key=value attribute"},
      {kAB + "path A B =3\n", "line 5: malformed key=value attribute"},
      {kAB + "path X Y noeq\n", "line 5: malformed key=value attribute"},
      {kAB + "path X B delay=1\n", "line 5: unknown element 'X'"},
      {kAB + "path A Y delay=1\n", "line 5: unknown element 'Y'"},
      {kAB + "path X Y delay=1\n", "line 5: unknown element 'X'"},
      {kAB + "path X Y zap=1\n", "line 5: unknown element 'X'"},
      {kAB + "path A B delay=x\n", "line 5: bad delay"},
      {kAB + "path A B delay=nan\n", "line 5: bad delay"},
      {kAB + "path A B delay=1 min=x\n", "line 5: bad min"},
      {kAB + "path A B delay=1 zap=1\n", "line 5: unknown attribute 'zap'"},
      {kAB + "path A B zap=1\n", "line 5: unknown attribute 'zap'"},
      {kAB + "path A B min=x delay=y\n", "line 5: bad delay"},
      {kAB + "path A B zzz=1 min=x\n", "line 5: bad min"},
      {kAB + "path A B delay=1 label=x aaa=2\n", "line 5: unknown attribute 'aaa'"},
      {kAB + "path A B lab=1 delay=x\n", "line 5: bad delay"},
      {kAB + "path A B label=x\n", "line 5: path requires delay=<nonnegative>"},
      {kAB + "path A B delay=-1\n", "line 5: path requires delay=<nonnegative>"},
      {kAB + "path A B delay=5 min=9\n", "line 5: path min=9 exceeds delay=5"},
      {kAB + "path A B delay=1.25 min=2.5\n", "line 5: path min=2.5 exceeds delay=1.25"},
      {kAB + "path A B min=1e-7 delay=0\n", "line 5: path min=0 exceeds delay=0"},
      {kAB + "path A B delay=1\npath B A delay=2 min=3\n", "line 6: path min=3 exceeds delay=2"},
      // Keywords.
      {kHead + "widget W\n", "line 3: unknown keyword 'widget'"},
      {kHead + "Latch A phase=1 setup=1 dq=2\n", "line 3: unknown keyword 'Latch'"},
      {kHead + "\"latch\" A\n", "line 3: unknown keyword '\"latch\"'"},
      {"=\n", "line 1: unknown keyword '='"},
      // Line counting: CRLF, blank and comment-only lines.
      {"circuit t\r\nphases 1\r\n\r\n# c\r\nbogus\r\n", "line 5: unknown keyword 'bogus'"},
      {"circuit t\n\n\n\n  # x\n\t\nphases 1\nlatch A phase=2\n",
       "line 8: element 'A' phase out of range"},
      // The file as a whole.
      {"", "file declares no 'phases' line"},
      {"circuit t\n", "file declares no 'phases' line"},
      {"# only a comment", "file declares no 'phases' line"},
  };
  for (const ErrorCase& c : cases) {
    const Expected<Circuit> r = parse_circuit(c.text);
    ASSERT_FALSE(r) << c.text;
    EXPECT_EQ(r.error().kind, ErrorKind::kInvalidArgument) << c.text;
    EXPECT_EQ(r.error().message, c.message) << c.text;
  }
}

TEST(LcsPins, EveryErrorWithItsMessageAndLine) {
  const ErrorCase cases[] = {
      {"cycle\n", "line 1: usage: cycle <Tc>"},
      {"cycle x\n", "line 1: usage: cycle <Tc>"},
      {"cycle 1 2\n", "line 1: usage: cycle <Tc>"},
      {"\ncycle nan\n", "line 2: usage: cycle <Tc>"},
      {"cycle 1e309\n", "line 1: usage: cycle <Tc>"},
      {"cycle \"10\"\n", "line 1: usage: cycle <Tc>"},
      {"cycle 10\nphase 1 start=0\n", "line 2: usage: phase <i> start=<s> width=<T>"},
      {"cycle 10\nphase x start=0 width=1\n", "line 2: usage: phase <i> start=<s> width=<T>"},
      {"cycle 10\nphase 1 start=0 width=1 extra=2\n",
       "line 2: usage: phase <i> start=<s> width=<T>"},
      {"cycle 10\nphase 1 start=0 width=\"a b\"\n",
       "line 2: usage: phase <i> start=<s> width=<T>"},
      {"cycle 10\nphase 2 start=0 width=1\n", "line 2: phases must be declared 1..k in order"},
      {"cycle 10\nphase 0 start=0 width=1\n", "line 2: phases must be declared 1..k in order"},
      {"cycle 10\nphase 1 start=0 width=1\nphase 1 start=0 width=1\n",
       "line 3: phases must be declared 1..k in order"},
      {"cycle 10\nphase 2 start width\n", "line 2: phases must be declared 1..k in order"},
      {"cycle 10\nphase 1 start width=1\n", "line 2: expected key=value"},
      {"cycle 10\nphase 1 start=0 width\n", "line 2: expected key=value"},
      {"cycle 10\nphase 1 =0 width=1\n", "line 2: unknown/bad attribute ''"},
      {"cycle 10\nphase 1 start=x width=1\n", "line 2: unknown/bad attribute 'start'"},
      // Attributes are checked in line order, not key order.
      {"cycle 10\nphase 1 width=x start=y\n", "line 2: unknown/bad attribute 'width'"},
      {"cycle 10\nphase 1 begin=0 width=x\n", "line 2: unknown/bad attribute 'begin'"},
      {"cycle 10\nphase 1 start=0 width=x noeq\n", "line 2: usage: phase <i> start=<s> width=<T>"},
      {"cycle 10\nphase 1 width=x noeq\n", "line 2: unknown/bad attribute 'width'"},
      {"cycle 10\nphase 1 start=inf width=1\n", "line 2: unknown/bad attribute 'start'"},
      // Quotes are ordinary characters in .lcs.
      {"cycle 10\nphase 1 start=\"0\" width=1\n", "line 2: unknown/bad attribute 'start'"},
      {"cycle 10\nphase 1 start=0 width=\"1#\"\n", "line 2: unknown/bad attribute 'width'"},
      {"cycle 10\nphase 1 start=0 start=1\n", "line 2: phase needs start= and width="},
      {"cycle 10\nphase 1 width=1 width=2\n", "line 2: phase needs start= and width="},
      {"cycle 10\nbogus\n", "line 2: unknown keyword 'bogus'"},
      {"cycle 10\r\n\r\n# c\r\nCycle 10\r\n", "line 4: unknown keyword 'Cycle'"},
      {"phase 1 start=0 width=1\n", "missing 'cycle' line"},
      {"# x\n", "missing 'cycle' line"},
      {"", "missing 'cycle' line"},
      {"cycle 10\n", "no phases declared"},
  };
  for (const ErrorCase& c : cases) {
    const Expected<ClockSchedule> r = parse_schedule(c.text);
    ASSERT_FALSE(r) << c.text;
    EXPECT_EQ(r.error().kind, ErrorKind::kInvalidArgument) << c.text;
    EXPECT_EQ(r.error().message, c.message) << c.text;
  }
}

Circuit must_parse(const std::string& text) {
  Expected<Circuit> c = parse_circuit(text);
  EXPECT_TRUE(c) << text << "\n" << (c ? "" : c.error().to_string());
  return c ? std::move(c.value()) : Circuit("failed", 1);
}

TEST(LctPins, RepeatedKeyLastOneWins) {
  const Circuit c = must_parse(kHead +
                               "latch A phase=2 phase=1 setup=x setup=1 dq=2 dq=3\n"
                               "path A A delay=1 delay=3 min=2 min=0.5 label=a label=\"b c\"\n");
  ASSERT_EQ(c.num_paths(), 1);
  EXPECT_EQ(c.element(0).phase, 1);
  EXPECT_EQ(c.element(0).setup, 1.0);
  EXPECT_EQ(c.element(0).dq, 3.0);
  EXPECT_EQ(c.path(0).delay, 3.0);
  EXPECT_EQ(c.path(0).min_delay, 0.5);
  EXPECT_EQ(c.path(0).label, "b c");
}

TEST(LctPins, QuotedValues) {
  const Circuit c = must_parse(kHead +
                               "latch A phase=\"2\" setup=\"2\" dq=\" 3 \"\n"
                               "path A A delay=\"5\" label=\"\"\n"
                               "path A A delay=1 label=\"a\"b\"c\"\n"
                               "path A A delay=1 label=ab\"c d\"\n"
                               "path A A delay=1 label=\"x\\\\y\\\"z\"\n");
  EXPECT_EQ(c.element(0).phase, 2);
  EXPECT_EQ(c.element(0).setup, 2.0);
  EXPECT_EQ(c.element(0).dq, 3.0);
  ASSERT_EQ(c.num_paths(), 4);
  EXPECT_EQ(c.path(0).delay, 5.0);
  EXPECT_EQ(c.path(0).label, "");
  EXPECT_EQ(c.path(1).label, "a\"b\"c");  // inner quotes pass through
  EXPECT_EQ(c.path(2).label, "ab\"c d\"");  // only a leading quote unquotes
  EXPECT_EQ(c.path(3).label, "x\\y\"z");
}

TEST(LctPins, NamesKeepTheirQuotes) {
  const Circuit c = must_parse(
      "circuit \"my chip\"\nphases 1\nlatch \"x y\" phase=1 setup=1 dq=2\n"
      "path \"x y\" \"x y\" delay=4\n");
  EXPECT_EQ(c.name(), "\"my chip\"");
  EXPECT_EQ(c.element(0).name, "\"x y\"");
  EXPECT_EQ(c.num_paths(), 1);
}

TEST(LctPins, LineEndingsAndWhitespace) {
  const std::string crlf =
      "circuit t\r\nphases 1\r\nlatch A phase=1 setup=1 dq=2\r\n"
      "path A A delay=3 label=\"x y\"\r\n";
  const std::string tabs =
      "circuit\tt\nphases\t1\n\tlatch\tA\tphase=1\tsetup=1\tdq=2\t\n"
      "path\vA A\fdelay=3 label=\"x y\"";  // and no trailing newline
  for (const std::string& text : {crlf, tabs}) {
    const Circuit c = must_parse(text);
    EXPECT_EQ(c.name(), "t");
    ASSERT_EQ(c.num_paths(), 1);
    EXPECT_EQ(c.path(0).delay, 3.0);
    EXPECT_EQ(c.path(0).label, "x y");
  }
  // A CR inside quotes is part of the value.
  const Circuit c = must_parse(kHead + "latch A\nlatch B\npath A B delay=1 label=\"a\rb\"\r\n");
  EXPECT_EQ(c.path(0).label, "a\rb");
  EXPECT_EQ(c.element(1).phase, 1);  // phase defaults to 1
}

TEST(LctPins, CommentsRespectQuotes) {
  const Circuit c = must_parse(kHead +
                               "latch A phase=1 setup=1 dq=2#glued comment\n"
                               "path A A delay=5#x\n"
                               "path A A delay=6 label=\"a # b\" # c \"d\n"
                               "path A A delay=7 label=\"q\\\"#r\"\n");
  EXPECT_EQ(c.element(0).dq, 2.0);
  ASSERT_EQ(c.num_paths(), 3);
  EXPECT_EQ(c.path(0).delay, 5.0);
  EXPECT_EQ(c.path(1).label, "a # b");
  EXPECT_EQ(c.path(2).label, "q\"#r");
}

TEST(LctPins, NumbersTakeStrtodSpellings) {
  const Circuit c = must_parse(kHead +
                               "latch A phase=02 setup=+1.5 dq=0x1p3\n"
                               "path A A delay=1e-400 min=-1e-400\n"
                               "path A A delay=.5 min=-2\n");
  EXPECT_EQ(c.element(0).phase, 2);
  EXPECT_EQ(c.element(0).setup, 1.5);
  EXPECT_EQ(c.element(0).dq, 8.0);
  EXPECT_EQ(c.path(0).delay, 0.0);
  EXPECT_TRUE(std::signbit(c.path(0).min_delay));
  EXPECT_EQ(c.path(1).delay, 0.5);
  EXPECT_EQ(c.path(1).min_delay, -2.0);  // left to Circuit::validate
}

TEST(LctPins, PhasesAndElementOrder) {
  // A later `phases` before any element wins; elements may follow paths, and
  // a flip-flop takes dqmin.
  const Circuit c = must_parse(
      "phases 1\nphases 3\ncircuit late\nlatch A phase=3\npath A A delay=1\n"
      "flipflop F phase=2 setup=1 cq=2 dqmin=1 hold=0.5 skew=0.25\npath F A delay=2\n");
  EXPECT_EQ(c.name(), "late");
  EXPECT_EQ(c.num_phases(), 3);
  ASSERT_EQ(c.num_elements(), 2);
  EXPECT_EQ(c.element(1).kind, ElementKind::kFlipFlop);
  EXPECT_EQ(c.element(1).dq_min, 1.0);
  EXPECT_EQ(c.element(1).skew, 0.25);
  ASSERT_EQ(c.fanin(0).size(), 2u);
  EXPECT_EQ(c.fanin(0)[1], 1);
}

TEST(LcsPins, AcceptedCorners) {
  const std::string texts[] = {
      "cycle 20\r\nphase 1 start=0 width=8\r\nphase 2 start=10 width=8\r\n",
      "cycle\t5 # \"x\ncycle 20\n\tphase\t1 width=8 start=0#c\nphase 2 start=10 width=8",
      "# lead\nphase 1 start=+0 width=8e0\ncycle 2e1\nphase 2 start=0xa width=8.\n",
  };
  for (const std::string& text : texts) {
    const Expected<ClockSchedule> s = parse_schedule(text);
    ASSERT_TRUE(s) << text << "\n" << (s ? "" : s.error().to_string());
    EXPECT_EQ(s->cycle, 20.0) << text;
    ASSERT_EQ(s->num_phases(), 2) << text;
    EXPECT_EQ(s->s(1), 0.0) << text;
    EXPECT_EQ(s->T(1), 8.0) << text;
    EXPECT_EQ(s->s(2), 10.0) << text;
    EXPECT_EQ(s->T(2), 8.0) << text;
  }
}

// Every field the reader fills, fan-in/fan-out order included.
void hash_circuit(const Circuit& c, obs::Fnv1a& h) {
  h.str(c.name()).i32(c.num_phases()).i32(c.num_elements()).i32(c.num_paths());
  for (const Element& e : c.elements()) {
    h.str(e.name).i32(e.is_latch() ? 0 : 1).i32(e.phase);
    h.num(e.setup).num(e.dq).num(e.hold).num(e.dq_min).num(e.skew);
  }
  for (const CombPath& p : c.paths()) {
    h.i32(p.from).i32(p.to).num(p.delay).num(p.min_delay).str(p.label);
  }
  for (int i = 0; i < c.num_elements(); ++i) {
    for (const int p : c.fanin(i)) h.i32(p);
    h.i32(-1);
    for (const int p : c.fanout(i)) h.i32(p);
    h.i32(-2);
  }
}

// FNV-1a 64 of hash_circuit over the round trips below, in order.
constexpr std::uint64_t kGoldenRoundTripHash = 0xb1574044aaef1b9full;

TEST(LctPins, RoundTripGoldenHash) {
  obs::Fnv1a h;
  int circuits = 0;
  const auto add = [&](const Circuit& original) {
    const Expected<Circuit> parsed = parse_circuit(write_circuit(original));
    ASSERT_TRUE(parsed) << original.name();
    hash_circuit(*parsed, h);
    ++circuits;
  };
  add(circuits::example1());
  add(circuits::example2());
  add(circuits::gaas_datapath());
  for (uint64_t seed = 1; seed <= 2000; ++seed) add(check::fuzz_circuit(seed));
  EXPECT_EQ(circuits, 2003);
  EXPECT_EQ(h.digest(), kGoldenRoundTripHash) << std::hex << h.digest();
}

}  // namespace
}  // namespace mintc::parser
