// Tests for the Chrome Trace Event JSON round trip at the byte level: the exact
// text Tracer::ToJson writes for edge-case numbers and escapes, and
// ParseChromeTrace's strict-JSON reading, error messages and handling of
// truncated input.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/tracing/tracer.h"
#include "src/framework/environment.h"
#include "src/model/trace_report.h"
#include "src/monotask/mono_executor.h"
#include "src/workloads/clusters.h"
#include "src/workloads/sort.h"

namespace {

using monomodel::ParseChromeTrace;
using monomodel::ParsedTrace;

// A small tracer covering every event phase, numbers at the edges of the
// fixed-3 and general-9 formats, and names that need escaping.
const monotrace::Tracer& EdgeValueTracer() {
  static const monotrace::Tracer* tracer = [] {
    auto* t = new monotrace::Tracer();
    const monotrace::TrackRef row = t->Track("proc \"A\"", "row\\1\t\x01");
    t->BeginSpan(row, "outer\nspan", "job", 0.0, "mono:map/\x1f");
    t->EndSpan(row, 1e-9);
    t->CompleteOnLane("proc \"A\"", "cpu", "lane", "cpu", 123456.0000005, 1e7);
    t->Counter("proc \"A\"", "queue", 0.0, 1e-7);
    t->Counter("proc \"A\"", "queue", 1e-9, 0.1);
    t->Counter("proc \"A\"", "queue", 1.0625e-6, -3.5);  // 1.0625 us: a rounding tie.
    t->Counter("proc \"A\"", "queue", 123456.0000005, 123456789012.0);
    t->Counter("proc \"A\"", "queue", 1e7, 1e300);
    t->Instant("audit", "fluid:disk0", "weighted-share", 1e7, "observed \"2\"\r");
    return t;
  }();
  return *tracer;
}

// The bytes were harvested from the printf-based writer; the exporter must
// keep producing them exactly.
TEST(TracerTest, ToJsonPinsNumberFormattingAndEscapes) {
  EXPECT_EQ(EdgeValueTracer().ToJson(),
            R"json({"displayTimeUnit":"ms","traceEvents":[{"ph":"M","name":"process_name","pid":0,"tid":0,"args":{"name":"proc \"A\""}},
{"ph":"M","name":"thread_name","pid":0,"tid":1,"args":{"name":"row\\1\t\u0001"}},
{"ph":"M","name":"thread_name","pid":0,"tid":2,"args":{"name":"cpu#0"}},
{"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"audit"}},
{"ph":"M","name":"thread_name","pid":1,"tid":1,"args":{"name":"fluid:disk0"}},
{"ph":"B","pid":0,"tid":1,"ts":0.000,"name":"outer\nspan","cat":"job","args":{"stage":"mono:map/\u001f"}},
{"ph":"C","pid":0,"tid":0,"ts":0.000,"name":"queue","args":{"value":1e-07}},
{"ph":"E","pid":0,"tid":1,"ts":0.001},
{"ph":"C","pid":0,"tid":0,"ts":0.001,"name":"queue","args":{"value":0.1}},
{"ph":"C","pid":0,"tid":0,"ts":1.062,"name":"queue","args":{"value":-3.5}},
{"ph":"X","pid":0,"tid":2,"ts":123456000000.500,"dur":9876543999999.500,"name":"lane","cat":"cpu"},
{"ph":"C","pid":0,"tid":0,"ts":123456000000.500,"name":"queue","args":{"value":1.23456789e+11}},
{"ph":"C","pid":0,"tid":0,"ts":10000000000000.000,"name":"queue","args":{"value":1e+300}},
{"ph":"i","pid":1,"tid":1,"ts":10000000000000.000,"name":"weighted-share","s":"t","args":{"detail":"observed \"2\"\r"}}]}
)json");
}

TEST(ParseChromeTraceTest, EdgeValuesReadBack) {
  const ParsedTrace trace = ParseChromeTrace(EdgeValueTracer().ToJson());
  ASSERT_TRUE(trace.ok()) << trace.errors.front();
  ASSERT_EQ(trace.spans.size(), 2u);
  EXPECT_EQ(trace.spans[0].process, "proc \"A\"");
  EXPECT_EQ(trace.spans[0].track, "row\\1\t\x01");
  EXPECT_EQ(trace.spans[0].name, "outer\nspan");
  EXPECT_EQ(trace.spans[0].stage, "mono:map/\x1f");
  EXPECT_DOUBLE_EQ(trace.spans[0].end, 1e-9);
  EXPECT_EQ(trace.spans[1].track, "cpu#0");
  EXPECT_DOUBLE_EQ(trace.spans[1].end, 1e7);
  ASSERT_EQ(trace.counters.size(), 5u);
  EXPECT_EQ(trace.counters[0].value, 1e-7);
  EXPECT_EQ(trace.counters[1].value, 0.1);
  EXPECT_EQ(trace.counters[2].value, -3.5);
  EXPECT_EQ(trace.counters[3].value, 123456789000.0);  // Nine significant digits.
  EXPECT_EQ(trace.counters[4].value, 1e300);
  ASSERT_EQ(trace.instants.size(), 1u);
  EXPECT_EQ(trace.instants[0].detail, "observed \"2\"\r");
}

std::string Events(const std::string& body) { return "{\"traceEvents\":[" + body + "]}"; }

// The single error a document produces, or how many there were.
std::string OnlyError(const std::string& json) {
  const ParsedTrace trace = ParseChromeTrace(json);
  return trace.errors.size() == 1 ? trace.errors.front()
                                  : std::to_string(trace.errors.size()) + " errors";
}

TEST(ParseChromeTraceTest, TrailingCharactersAreAnError) {
  EXPECT_EQ(OnlyError(Events("") + " x"),
            "JSON parse error at byte 19: trailing characters after the top-level value");
}

TEST(ParseChromeTraceTest, TopLevelValueMustBeAnObject) {
  EXPECT_EQ(OnlyError("[]"), "top-level value is not an object");
  EXPECT_EQ(OnlyError(" \"traceEvents\" "), "top-level value is not an object");
}

TEST(ParseChromeTraceTest, TraceEventsMustBeAPresentArray) {
  EXPECT_EQ(OnlyError("{}"), "missing traceEvents array");
  EXPECT_EQ(OnlyError("{\"traceEvents\":{}}"), "missing traceEvents array");
  // The first of two duplicate keys is the one read.
  EXPECT_EQ(OnlyError("{\"traceEvents\":null,\"traceEvents\":[]}"),
            "missing traceEvents array");
}

TEST(ParseChromeTraceTest, EventsMustBeObjects) {
  const ParsedTrace trace = ParseChromeTrace(Events("1,{\"ph\":\"i\"},[]"));
  EXPECT_EQ(trace.errors, (std::vector<std::string>{"traceEvents element is not an object",
                                                    "traceEvents element is not an object"}));
  EXPECT_EQ(trace.instants.size(), 1u);
}

TEST(ParseChromeTraceTest, UnknownPhaseIsAnError) {
  EXPECT_EQ(OnlyError(Events("{\"ph\":\"Q\",\"ts\":1}")), "unknown event phase 'Q'");
  EXPECT_EQ(OnlyError(Events("{\"ts\":1}")), "unknown event phase ''");
}

TEST(ParseChromeTraceTest, UnmatchedSpansAreErrors) {
  EXPECT_EQ(OnlyError(Events("{\"ph\":\"E\",\"pid\":1,\"tid\":2,\"ts\":1}")),
            "'E' with no open 'B' on pid 1 tid 2");
  EXPECT_EQ(OnlyError(Events("{\"ph\":\"B\",\"pid\":1,\"tid\":2,\"ts\":1,\"name\":\"n\"}")),
            "1 unclosed 'B' span(s) on pid 1 tid 2 (innermost: \"n\")");
}

TEST(ParseChromeTraceTest, JsonErrorAnywhereIsTheOnlyError) {
  // The unmatched 'E' is not reported: malformed JSON after it makes the
  // whole document unreadable.
  EXPECT_EQ(OnlyError("{\"traceEvents\":[{\"ph\":\"E\",\"pid\":1,\"tid\":2,\"ts\":1}],\"x\":[1,}"),
            "JSON parse error at byte 58: expected a value");
  EXPECT_EQ(OnlyError(""), "JSON parse error at byte 0: unexpected end of input");
  EXPECT_EQ(OnlyError("{\"a\" 1}"), "JSON parse error at byte 5: expected ':' after object key");
  EXPECT_EQ(OnlyError("{\"a\":1 \"b\":2}"),
            "JSON parse error at byte 7: expected ',' or '}' in object");
  EXPECT_EQ(OnlyError("{\"a\":[1 2]}"),
            "JSON parse error at byte 8: expected ',' or ']' in array");
  EXPECT_EQ(OnlyError("{1:2}"), "JSON parse error at byte 1: expected '\"'");
  EXPECT_EQ(OnlyError("{\"a\":tru}"), "JSON parse error at byte 5: invalid literal");
  EXPECT_EQ(OnlyError("{\"a\":\"\\q\"}"), "JSON parse error at byte 8: invalid escape");
  EXPECT_EQ(OnlyError("{\"a\":\"abc"), "JSON parse error at byte 9: unterminated string");
  EXPECT_EQ(OnlyError("{\"a\":\"\\u12"), "JSON parse error at byte 8: truncated \\u escape");
  EXPECT_EQ(OnlyError("{\"a\":}"), "JSON parse error at byte 5: expected a value");
  EXPECT_EQ(OnlyError("{\"a\":1e999}"), "JSON parse error at byte 10: invalid number");
  EXPECT_EQ(OnlyError("{\"a\":-}"), "JSON parse error at byte 6: invalid number");
}

TEST(ParseChromeTraceTest, RejectsNumbersOutsideTheJsonGrammar) {
  for (const char* number :
       {"1-2", "+1", ".5", "01", "1.", "-", "-01", "1e", "1e+", "1.e2", "0x1"}) {
    const ParsedTrace trace =
        ParseChromeTrace(Events(std::string("{\"ph\":\"C\",\"ts\":") + number + "}"));
    ASSERT_EQ(trace.errors.size(), 1u) << number;
    EXPECT_EQ(trace.errors.front().rfind("JSON parse error", 0), 0u) << number;
  }
}

TEST(ParseChromeTraceTest, AcceptsEveryJsonNumberForm) {
  const ParsedTrace trace = ParseChromeTrace(
      Events("{\"ph\":\"C\",\"ts\":0},{\"ph\":\"C\",\"ts\":-0},{\"ph\":\"C\",\"ts\":2.5e0},"
             "{\"ph\":\"C\",\"ts\":10E-1},{\"ph\":\"C\",\"ts\":1e+1},{\"ph\":\"C\",\"ts\":-1.5}"));
  ASSERT_TRUE(trace.ok()) << trace.errors.front();
  ASSERT_EQ(trace.counters.size(), 6u);
  const double micros[] = {0.0, 0.0, 2.5, 1.0, 10.0, -1.5};
  for (size_t i = 0; i < trace.counters.size(); ++i) {
    EXPECT_EQ(trace.counters[i].ts, micros[i] / 1e6) << i;
  }
  EXPECT_FALSE(trace.timestamps_monotonic);
}

TEST(ParseChromeTraceTest, RejectsRawControlCharactersInStrings) {
  EXPECT_EQ(OnlyError(Events("{\"ph\":\"i\",\"name\":\"a\tb\"}")),
            "JSON parse error at byte 35: unescaped control character in string");
}

TEST(ParseChromeTraceTest, UnicodeEscapeNeedsFourHexDigits) {
  EXPECT_EQ(OnlyError("{\"a\":\"\\u 4e2\"}"), "JSON parse error at byte 8: invalid \\u escape");
  EXPECT_EQ(OnlyError("{\"a\":\"\\u12\"}"), "JSON parse error at byte 8: invalid \\u escape");
}

TEST(ParseChromeTraceTest, DecodesUnicodeEscapesToUtf8) {
  const ParsedTrace trace =
      ParseChromeTrace(Events(R"({"ph":"i","name":"\u0041\u00e9\u4E2d\ud83d\ude00/\/"})"));
  ASSERT_TRUE(trace.ok()) << trace.errors.front();
  ASSERT_EQ(trace.instants.size(), 1u);
  EXPECT_EQ(trace.instants[0].name, "A\xc3\xa9\xe4\xb8\xad\xf0\x9f\x98\x80//");
}

TEST(ParseChromeTraceTest, RejectsUnpairedSurrogates) {
  for (const char* name : {R"(\ud83d)", R"(\ud83dx)", R"(\ud83d\u0041)", R"(\ude00)"}) {
    const ParsedTrace trace =
        ParseChromeTrace(Events(std::string("{\"ph\":\"i\",\"name\":\"") + name + "\"}"));
    ASSERT_EQ(trace.errors.size(), 1u) << name;
    EXPECT_NE(trace.errors.front().find("surrogate"), std::string::npos)
        << trace.errors.front();
  }
}

TEST(ParseChromeTraceTest, FirstDuplicateKeyWinsAndWrongTypesTakeDefaults) {
  const ParsedTrace trace = ParseChromeTrace(Events(
      R"({"ph":"M","name":"process_name","pid":3,"args":{"name":"p","name":"q"}},)"
      R"({"ph":"X","pid":3,"pid":4,"ts":1,"ts":2,"dur":"2","name":7,"cat":"cpu",)"
      R"("args":{"stage":"s1","stage":"s2"}},)"
      R"({"ph":"C","pid":3,"ts":5,"name":"n","args":{"value":true}},)"
      R"({"ph":"M","name":"process_name","pid":3,"args":[]},)"
      R"({"ph":"i","pid":3,"ts":6,"name":"m"})"));
  ASSERT_TRUE(trace.ok()) << trace.errors.front();
  ASSERT_EQ(trace.spans.size(), 1u);
  EXPECT_EQ(trace.spans[0].process, "p");
  EXPECT_EQ(trace.spans[0].name, "");
  EXPECT_EQ(trace.spans[0].stage, "s1");
  EXPECT_EQ(trace.spans[0].start, 1e-6);
  EXPECT_EQ(trace.spans[0].end, 1e-6);  // A string "dur" reads as 0.
  ASSERT_EQ(trace.counters.size(), 1u);
  EXPECT_EQ(trace.counters[0].value, 0.0);
  // An "args" that is not an object still renames the process, to "".
  ASSERT_EQ(trace.instants.size(), 1u);
  EXPECT_EQ(trace.instants[0].process, "");
}

TEST(ParseChromeTraceTest, IdsOutsideTheIntRangeReadAsAbsent) {
  const ParsedTrace trace = ParseChromeTrace(
      Events(R"({"ph":"M","name":"process_name","args":{"name":"no pid"}},)"
             R"({"ph":"i","pid":1e10,"tid":-3e9,"ts":1},{"ph":"i","pid":2.9,"ts":2})"));
  ASSERT_TRUE(trace.ok()) << trace.errors.front();
  ASSERT_EQ(trace.instants.size(), 2u);
  EXPECT_EQ(trace.instants[0].process, "no pid");
  EXPECT_EQ(trace.instants[1].process, "");  // 2.9 truncates to pid 2.
}

TEST(ParseChromeTraceTest, SkipsKeysItDoesNotRead) {
  const ParsedTrace trace = ParseChromeTrace(
      "{ \"otherData\" : {\"v\": [1, -2.5e3, true, false, null, {}, []]},\n"
      "  \"traceEvents\" : [\n"
      "    { \"id\": \"0x1\", \"bp\": \"e\", \"s\": \"g\", \"ph\": \"i\", \"ts\": 1,\n"
      "      \"args\": { \"extra\": [[{\"k\": \"\\\"\"}]], \"detail\": \"d\" } }\n"
      "  ],\n"
      "  \"metadata\": {\"traceEvents\": 7} }\r\n");
  ASSERT_TRUE(trace.ok()) << trace.errors.front();
  ASSERT_EQ(trace.instants.size(), 1u);
  EXPECT_EQ(trace.instants[0].detail, "d");
  EXPECT_EQ(trace.instants[0].ts, 1e-6);
}

TEST(ParseChromeTraceTest, RefusesNestingDeeperThanAnyTrace) {
  const std::string deep = std::string(300, '[') + std::string(300, ']');
  EXPECT_EQ(OnlyError("{\"x\":" + deep + ",\"traceEvents\":[]}"),
            "JSON parse error at byte 260: nesting too deep");
  const std::string shallow = std::string(200, '[') + std::string(200, ']');
  EXPECT_TRUE(ParseChromeTrace("{\"x\":" + shallow + ",\"traceEvents\":[]}").ok());
}

// Every prefix of a real trace that stops short of its closing brace is
// malformed JSON, and reading it must fail cleanly (the asan preset runs this
// under AddressSanitizer).
TEST(ParseChromeTraceTest, TruncatedTracesAreErrors) {
  monotrace::ScopedTracer scoped;
  {
    monosim::SimEnvironment env(monoload::SmallHddClusterConfig());
    env.cluster().EnableTrace();
    monosim::MonotasksExecutorSim mono(&env.sim(), &env.cluster(), &env.pool(), {});
    env.AttachExecutor(&mono);
    monoload::SortParams params;
    params.total_bytes = monoutil::MiB(64);
    params.num_map_tasks = 4;
    params.num_reduce_tasks = 4;
    env.driver().RunJob(monoload::MakeSortJob(&env.dfs(), params));
  }
  const std::string json = scoped.tracer().ToJson();
  ASSERT_TRUE(ParseChromeTrace(json).ok());

  const size_t closing = json.rfind('}');
  ASSERT_NE(closing, std::string::npos);
  size_t prefixes = 0;
  for (size_t length = 0; length <= closing; length += length < 512 ? 1 : 97) {
    EXPECT_FALSE(ParseChromeTrace(json.substr(0, length)).ok())
        << "prefix of " << length << " bytes parsed";
    ++prefixes;
  }
  EXPECT_GT(prefixes, 600u);
}

}  // namespace
