// Observability-layer tests (ctest label: obs). Pins the src/obs
// contracts:
//  - jsonEscape produces valid JSON string bodies for any byte sequence;
//  - TraceRecorder rings drop the *oldest* events when full and count the
//    drops; snapshots taken while a capacity-4 ring wraps return only
//    whole spans, in order, with a drop count from the same cut; span
//    record order and timestamps nest correctly;
//  - writeJson() emits parseable Chrome trace-event JSON (validated with
//    a real recursive-descent parser, not substring checks) with named
//    threads;
//  - the canonical stage-span multiset of a pipeline run is byte-identical
//    at threads=1 and threads=8 (tracing never perturbs what runs);
//  - Histogram bucket/quantile math and MetricsRegistry's Prometheus
//    exposition (registration-order stability, type-mismatch rejection,
//    hostile HELP/label-value escaping per the 0.0.4 text format);
//  - the disabled-span fast path performs zero heap allocations (global
//    operator-new counter) — the "near-zero overhead when off" guarantee;
//  - EngineStats::toJson stays valid JSON under a hostile global locale;
//  - JsonWriter: nesting and comma state, escaping of keys and values,
//    exact integers, bit-exact round-trip doubles, null for non-finite
//    values, locale independence; mini_json's strict number grammar.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <locale>
#include <new>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "engine/pipeline.hpp"
#include "engine/run_context.hpp"
#include "engine/stats.hpp"
#include "mini_json.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "ring_hammer.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator new in this binary bumps it.
// Used to pin the no-allocation guarantee of the disabled-span path.
namespace {
std::atomic<std::uint64_t> g_allocCount{0};
}  // namespace

// GCC pairs these replacement operators with the default ones and flags
// the malloc/free backing as mismatched; the pairing is consistent here
// (both sides are replaced), so silence that one diagnostic.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace hsd::obs {
namespace {

// Strict mini JSON parser shared with test_net.cpp (tests/mini_json.hpp).
using hsd::tests::parsesAsJson;

int countOccurrences(const std::string& text, const std::string& needle) {
  int n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size()))
    ++n;
  return n;
}

// ---------------------------------------------------------------------------
// jsonEscape

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(jsonEscape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_EQ(jsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");  // UTF-8 passthrough
}

TEST(JsonEscape, AnyBytesBecomeAValidJsonString) {
  std::string nasty;
  for (int c = 0; c < 0x20; ++c) nasty.push_back(char(c));
  nasty += "\"\\end";
  const std::string doc = "{\"k\": \"" + jsonEscape(nasty) + "\"}";
  EXPECT_TRUE(parsesAsJson(doc)) << doc;
}

// ---------------------------------------------------------------------------
// TraceRecorder rings

std::chrono::steady_clock::time_point now() {
  return std::chrono::steady_clock::now();
}

TEST(TraceRecorder, FullRingDropsOldestAndCountsDrops) {
  TraceRecorder rec(4);
  const auto t = now();
  for (int i = 0; i < 10; ++i)
    rec.recordSpan("s" + std::to_string(i), "test", t, t);
  EXPECT_EQ(rec.spanCount(), 4u);
  EXPECT_EQ(rec.droppedEvents(), 6u);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Newest data wins; surviving events stay in record order.
  for (int i = 0; i < 4; ++i)
    EXPECT_STREQ(events[std::size_t(i)].event.name,
                 ("s" + std::to_string(6 + i)).c_str());
}

TEST(TraceRecorder, SnapshotsWhileTheRingWrapsReturnWholeOrderedSpans) {
  TraceRecorder rec(4);
  const auto t = now();
  hsd::tests::hammerRingUnderSnapshots(
      [&](std::uint64_t i) {
        char name[32];
        const int n = std::snprintf(name, sizeof name, "span-%llu",
                                    static_cast<unsigned long long>(i));
        rec.recordSpan(std::string_view(name, std::size_t(n)), "wrap", t, t,
                       {"i", i});
      },
      [&] {
        std::uint64_t dropped = 0;
        const auto events = rec.snapshot(&dropped);
        std::uint64_t next = 0;
        for (const auto& se : events) {
          const std::uint64_t i = se.event.a0.value;
          EXPECT_EQ(se.event.name, "span-" + std::to_string(i));
          EXPECT_GE(i, next) << "per-thread order must strictly increase";
          next = i + 1;
        }
        return events.size() + dropped;
      });
}

TEST(TraceRecorder, NestedSpansRecordInnermostFirstAndNestTimestamps) {
  TraceRecorder rec;
  {
    Span outer(&rec, "outer", "test");
    {
      Span inner(&rec, "inner", "test");
      inner.arg("depth", 1);
    }
  }
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Destruction order: inner closes (and records) before outer.
  EXPECT_STREQ(events[0].event.name, "inner");
  EXPECT_STREQ(events[1].event.name, "outer");
  const auto& in = events[0].event;
  const auto& out = events[1].event;
  EXPECT_LE(out.tsNs, in.tsNs);
  EXPECT_GE(out.tsNs + out.durNs, in.tsNs + in.durNs);
  ASSERT_NE(in.a0.key, nullptr);
  EXPECT_STREQ(in.a0.key, "depth");
  EXPECT_EQ(in.a0.value, 1u);
}

TEST(TraceRecorder, LongNamesTruncateWithoutOverflow) {
  TraceRecorder rec;
  const std::string huge(500, 'x');
  rec.recordSpan(huge, "test", now(), now());
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::strlen(events[0].event.name),
            TraceRecorder::kNameCapacity - 1);
}

TEST(TraceRecorder, WriteJsonIsParseableWithNamedThreads) {
  TraceRecorder rec;
  rec.nameThread("obs-test-main");
  {
    Span s(&rec, "work", "test");
    s.arg("items", 3);
    s.strArg("status", "ok");
  }
  const std::string json = rec.toJson();
  EXPECT_TRUE(parsesAsJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("obs-test-main"), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracing a real pipeline: the canonical stage-span multiset must be
// byte-identical at any thread count (chunk spans are scheduling-dependent
// and excluded by category).

std::string canonicalStageSpans(const TraceRecorder& rec) {
  std::vector<std::string> lines;
  for (const auto& se : rec.snapshot()) {
    if (std::strcmp(se.event.cat, "stage") != 0) continue;
    std::string line = std::string(se.event.name);
    for (const TraceArg& a : {se.event.a0, se.event.a1})
      if (a.key != nullptr)
        line += std::string("|") + a.key + "=" + std::to_string(a.value);
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string joined;
  for (const std::string& l : lines) joined += l + "\n";
  return joined;
}

std::string tracedPipelineRun(std::size_t threads) {
  auto rec = std::make_shared<TraceRecorder>();
  engine::RunContext ctx(threads, /*batchSize=*/16);
  ctx.attachTracer(rec);
  std::vector<int> items(100);
  for (int i = 0; i < 100; ++i) items[std::size_t(i)] = i;
  auto square = engine::mapStage<int>("obs/square",
                                      [](const int& v) { return v * v; });
  auto keepEven = engine::filterMapStage<int>(
      "obs/keep_even", [](const int& v) -> std::optional<int> {
        if (v % 2 == 0) return v;
        return std::nullopt;
      });
  keepEven.tile = 3;  // a tiled stage: plain span name, tile as an arg
  const auto out = engine::runPipeline(ctx, std::move(items), square,
                                       keepEven);
  EXPECT_EQ(out.size(), 50u);
  return canonicalStageSpans(*rec);
}

TEST(TraceRecorder, StageSpansAreByteIdenticalAcrossThreadCounts) {
  const std::string serial = tracedPipelineRun(1);
  const std::string parallel = tracedPipelineRun(8);
  EXPECT_FALSE(serial.empty());
  // 100 items in batches of 16 -> 7 batches x 2 stages = 14 spans.
  EXPECT_EQ(std::count(serial.begin(), serial.end(), '\n'), 14);
  EXPECT_NE(serial.find("obs/keep_even|items=16|tile=3\n"), std::string::npos)
      << serial;
  EXPECT_NE(serial.find("obs/square|items=16\n"), std::string::npos)
      << serial;
  EXPECT_EQ(serial, parallel);
}

TEST(TraceRecorder, ParallelForChunksAreTraced) {
  auto rec = std::make_shared<TraceRecorder>();
  engine::RunContext ctx(4);
  ctx.attachTracer(rec);
  ctx.parallelFor(256, [](std::size_t) {});
  std::size_t chunkSpans = 0;
  std::uint64_t covered = 0;
  for (const auto& se : rec->snapshot())
    if (std::strcmp(se.event.cat, "par") == 0) {
      ++chunkSpans;
      ASSERT_NE(se.event.a1.key, nullptr);
      covered += se.event.a1.value;  // "count"
    }
  EXPECT_GT(chunkSpans, 0u);
  EXPECT_EQ(covered, 256u);  // chunks tile the index space exactly
}

// ---------------------------------------------------------------------------
// The disabled path: no allocation, and tracing never changes results.

TEST(Span, DisabledPathPerformsNoHeapAllocation) {
  const std::uint64_t before = g_allocCount.load();
  for (int i = 0; i < 1000; ++i) {
    Span s(nullptr, "hot/loop", "test");
    s.arg("i", std::uint64_t(i));
    s.strArg("k", "v");
  }
  EXPECT_EQ(g_allocCount.load() - before, 0u);
}

TEST(Span, EnabledSteadyStatePerformsNoHeapAllocation) {
  TraceRecorder rec;
  // Warm-up: the thread's first event registers its ring (one-time cost).
  rec.recordSpan("warmup", "test", now(), now());
  const std::uint64_t before = g_allocCount.load();
  for (int i = 0; i < 100; ++i) {
    Span s(&rec, "hot/loop", "test");
    s.arg("i", std::uint64_t(i));
  }
  EXPECT_EQ(g_allocCount.load() - before, 0u);
}

// ---------------------------------------------------------------------------
// Histogram math

TEST(Histogram, BucketsFollowPrometheusLeSemantics) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(1.0);  // boundary lands in the le=1 bucket
  h.observe(1.5);
  h.observe(3.0);
  h.observe(8.0);  // +Inf
  const auto counts = h.bucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 14.0);
}

TEST(Histogram, QuantileInterpolatesWithinBuckets) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(3.0);
  h.observe(8.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 4.0);
  // +Inf observations clamp to the largest finite bound.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
}

TEST(Histogram, EmptyReportsZeroAndBadBoundsThrow) {
  Histogram h(Histogram::defaultLatencySeconds());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram::exponentialBuckets(0.0, 2.0, 4),
               std::invalid_argument);
}

TEST(Histogram, ExponentialBucketsDouble) {
  const auto b = Histogram::exponentialBuckets(1e-3, 2.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1e-3);
  EXPECT_DOUBLE_EQ(b[3], 8e-3);
}

// ---------------------------------------------------------------------------
// MetricsRegistry / Prometheus exposition

TEST(MetricsRegistry, RendersInRegistrationOrderAndIsStable) {
  MetricsRegistry reg;
  reg.counter("zulu_total", "registered first").inc(7);
  reg.gauge("alpha_depth", "registered second").set(-3);
  const std::string first = reg.renderPrometheus();
  const std::string second = reg.renderPrometheus();
  EXPECT_EQ(first, second);  // scrape-to-scrape byte stability
  EXPECT_LT(first.find("zulu_total"), first.find("alpha_depth"));
  EXPECT_NE(first.find("# TYPE zulu_total counter"), std::string::npos);
  EXPECT_NE(first.find("zulu_total 7\n"), std::string::npos);
  EXPECT_NE(first.find("alpha_depth -3\n"), std::string::npos);
}

TEST(MetricsRegistry, LabeledSamplesShareOneFamilyHeader) {
  MetricsRegistry reg;
  reg.counter("req_total", "by status", {{"status", "ok"}}).inc(2);
  reg.counter("req_total", "by status", {{"status", "error"}}).inc(1);
  const std::string text = reg.renderPrometheus();
  EXPECT_EQ(countOccurrences(text, "# TYPE req_total counter"), 1);
  EXPECT_NE(text.find("req_total{status=\"ok\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("req_total{status=\"error\"} 1\n"), std::string::npos);
}

TEST(MetricsRegistry, HistogramExpositionIsCumulativeWithInf) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat_seconds", "latency", {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);
  const std::string text = reg.renderPrometheus();
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"0.1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_sum 5.550000\n"), std::string::npos);
}

TEST(MetricsRegistry, ReRegistrationReturnsSameMetricMismatchThrows) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x_total", "help");
  Counter& b = reg.counter("x_total", "help");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW(reg.gauge("x_total", "other type"), std::invalid_argument);
}

TEST(MetricsRegistry, SanitizesInvalidNames) {
  EXPECT_EQ(MetricsRegistry::sanitizeName("9bad-name.x"), "_9bad_name_x");
  EXPECT_EQ(MetricsRegistry::sanitizeName("good:name_1"), "good:name_1");
  // Label names are stricter than metric names: no colons allowed.
  EXPECT_EQ(MetricsRegistry::sanitizeLabelName("good:name_1"), "good_name_1");
  EXPECT_EQ(MetricsRegistry::sanitizeLabelName("9bad-label"), "_9bad_label");
}

// Prometheus 0.0.4 text-format escaping: HELP escapes backslash and
// newline (quotes stay raw); label values escape backslash, quote and
// newline. A hostile help string must not be able to smuggle an extra
// exposition line or truncate the comment.
TEST(MetricsRegistry, HostileHelpStringsEscapePerSpec) {
  MetricsRegistry reg;
  reg.counter("evil_total",
              "line1\nline2 \"quoted\" back\\slash\n# HELP fake_metric x")
      .inc(1);
  const std::string text = reg.renderPrometheus();
  EXPECT_NE(
      text.find("# HELP evil_total line1\\nline2 \"quoted\" "
                "back\\\\slash\\n# HELP fake_metric x\n"),
      std::string::npos)
      << text;
  // The embedded "# HELP fake_metric" stays inside the one escaped
  // comment line: exactly one real HELP line in the exposition.
  EXPECT_EQ(countOccurrences(text, "\n# HELP"), 0);
  EXPECT_EQ(text.rfind("# HELP", 0), 0u);
  EXPECT_NE(text.find("evil_total 1\n"), std::string::npos);
}

TEST(MetricsRegistry, HostileLabelValuesEscapePerSpec) {
  MetricsRegistry reg;
  reg.counter("req_total", "by path", {{"path", "a\"b\\c\nd"}}).inc(3);
  const std::string text = reg.renderPrometheus();
  EXPECT_NE(text.find("req_total{path=\"a\\\"b\\\\c\\nd\"} 3\n"),
            std::string::npos)
      << text;
  // No raw newline escaped the label value.
  for (std::size_t pos = text.find('{'); pos < text.find('}'); ++pos)
    EXPECT_NE(text[pos], '\n');
}

TEST(MetricsRegistry, HostileLabelNamesAreSanitized) {
  MetricsRegistry reg;
  reg.counter("c_total", "h", {{"bad:label-name", "v"}}).inc(1);
  const std::string text = reg.renderPrometheus();
  EXPECT_NE(text.find("c_total{bad_label_name=\"v\"} 1\n"),
            std::string::npos)
      << text;
}

// ---------------------------------------------------------------------------
// EngineStats JSON under a hostile locale

struct GermanNumpunct : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

TEST(TraceRecorder, WriteJsonIsLocaleIndependent) {
  TraceRecorder rec;
  rec.recordSpan("locale-span", "test", now(), now(), {"items", 123456});
  std::ostringstream os;
  os.imbue(std::locale(std::locale::classic(), new GermanNumpunct));
  rec.writeJson(os);
  EXPECT_TRUE(parsesAsJson(os.str())) << os.str();
  EXPECT_NE(os.str().find("123456"), std::string::npos);  // ungrouped
}

TEST(EngineStats, ToJsonIsLocaleIndependent) {
  const std::locale saved = std::locale::global(
      std::locale(std::locale::classic(), new GermanNumpunct));
  engine::EngineStats stats;
  stats.record("obs/stage", 1234, 0.5);
  const std::string json = stats.toJson();
  std::locale::global(saved);
  EXPECT_TRUE(parsesAsJson(json)) << json;
  EXPECT_EQ(json.find(','), json.find(", "));  // no numeric commas
  EXPECT_NE(json.find("1234"), std::string::npos);  // no grouping dots
}

// ---------------------------------------------------------------------------
// JsonWriter

TEST(MiniJson, RejectsNumbersOutsideTheRfc8259Grammar) {
  for (const char* ok : {"0", "-0", "1", "-12", "0.5", "1e5", "1E+5", "2.5e-3"})
    EXPECT_TRUE(parsesAsJson(ok)) << ok;
  for (const char* bad : {"01", "-01", "1.", ".5", "1e", "1e+", "1.2.3", "-",
                          "+1", "0x10", "1..2", "1e5.0"})
    EXPECT_FALSE(parsesAsJson(bad)) << bad;
}

TEST(JsonWriter, NestsObjectsAndArraysIncludingEmptyOnes) {
  JsonWriter w;
  w.beginObject().key("a").beginArray().endArray();
  w.key("o").beginObject().endObject().key("arr").beginArray().value(1);
  w.beginObject().field("x", true).endObject();
  w.beginArray().value("s").value(false).endArray().endArray();
  w.key("lines").beginArray(true).value(1).value(2).endArray();
  w.key("none").beginArray(true).endArray();
  w.key("r").raw("{\"pre\": 1}").endObject().raw("\n");
  EXPECT_EQ(w.str(),
            "{\"a\": [], \"o\": {}, \"arr\": [1, {\"x\": true}, "
            "[\"s\", false]], \"lines\": [\n1,\n2\n], \"none\": [\n], "
            "\"r\": {\"pre\": 1}}\n");
  EXPECT_TRUE(parsesAsJson(w.str())) << w.str();
}

TEST(JsonWriter, EscapesEveryJsonEscapeInputAsKeyAndValue) {
  std::vector<std::string> inputs = {
      "plain", "a\"b", "a\\b", "a\nb\tc", "\x01", "caf\xc3\xa9",
      std::string("a\0b", 3), "\"\\\b\f\n\r\t", "\x7f",
      "h\xc3\xa9llo \xe2\x86\x92", std::string("x\0\x01\x1f\x7f\"\\\n", 8)};
  std::string nasty;
  for (int c = 0; c < 0x20; ++c) {
    nasty.push_back(char(c));
    inputs.emplace_back(1, char(c));
  }
  inputs.push_back(nasty + "\"\\end");
  for (const std::string& in : inputs) {
    JsonWriter w;
    w.beginObject().field(in, in).endObject();
    const std::string e = jsonEscape(in);
    EXPECT_EQ(w.str(), "{\"" + e + "\": \"" + e + "\"}");
    EXPECT_TRUE(parsesAsJson(w.str())) << w.str();
  }
}

TEST(JsonWriter, IntegersPrintExactly) {
  JsonWriter w;
  w.beginArray().value(std::numeric_limits<std::int64_t>::min());
  w.value(std::numeric_limits<std::uint64_t>::max()).value(0).value(-1);
  w.value(std::uint8_t(255)).endArray();
  EXPECT_EQ(w.str(),
            "[-9223372036854775808, 18446744073709551615, 0, -1, 255]");
  EXPECT_TRUE(parsesAsJson(w.str())) << w.str();
}

TEST(JsonWriter, DoublesRoundTripBitExactly) {
  std::vector<double> xs = {0.0,
                            -0.0,
                            0.1,
                            1.0 / 3.0,
                            1e-300,
                            std::numeric_limits<double>::denorm_min(),
                            DBL_MIN / 3.0,
                            DBL_MIN,
                            DBL_MAX,
                            -DBL_MAX};
  std::mt19937_64 rng(20260117);
  while (xs.size() < 20000) {
    const std::uint64_t bits = rng();
    double d;
    std::memcpy(&d, &bits, sizeof d);
    if (std::isfinite(d)) xs.push_back(d);
  }
  for (const double d : xs) {
    JsonWriter w;
    w.value(d);
    ASSERT_TRUE(parsesAsJson(w.str())) << w.str();
    const double back = std::strtod(w.str().c_str(), nullptr);
    EXPECT_EQ(std::memcmp(&back, &d, sizeof d), 0) << w.str();
  }
  JsonWriter negZero;
  EXPECT_EQ(negZero.value(-0.0).str(), "-0");
}

TEST(JsonWriter, NonFiniteDoublesPrintAsNull) {
  JsonWriter w;
  w.beginObject().field("nan", std::nan(""));
  w.field("inf", std::numeric_limits<double>::infinity());
  w.field("ninf", -std::numeric_limits<double>::infinity()).endObject();
  EXPECT_EQ(w.str(), "{\"nan\": null, \"inf\": null, \"ninf\": null}");
  EXPECT_TRUE(parsesAsJson(w.str())) << w.str();
}

TEST(JsonWriter, OutputIgnoresAHostileGlobalLocale) {
  const std::locale saved = std::locale::global(
      std::locale(std::locale::classic(), new GermanNumpunct));
  JsonWriter w;
  w.beginObject().field("n", 1234567).field("d", 1234.5);
  w.field("min", std::numeric_limits<std::int64_t>::min()).endObject();
  std::locale::global(saved);
  EXPECT_EQ(w.str(),
            "{\"n\": 1234567, \"d\": 1234.5, \"min\": -9223372036854775808}");
  EXPECT_TRUE(parsesAsJson(w.str())) << w.str();
}

}  // namespace
}  // namespace hsd::obs
