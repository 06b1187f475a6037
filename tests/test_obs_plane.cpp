// Observability-plane tests (ctest label: obs) for the request-correlation
// stack added on top of src/obs: trace ids, structured logging, and SLO
// tracking. Pins:
//  - TraceId format/parse round-trips and the W3C traceparent grammar
//    (version handling, the all-zero "invalid" id, hex strictness);
//  - thread-local propagation: ScopedTraceId nests/restores, recording
//    sites pick the ambient id up, and RunContext::parallelFor carries it
//    into pool workers;
//  - LogRecorder ring mechanics (drop-oldest + counted drops, level gate,
//    message truncation, whole in-order records from snapshots taken
//    while a capacity-4 ring wraps), trace stamping, and JSON-lines
//    serialization (every line parses; trace field present iff the id
//    is valid);
//  - the no-allocation guarantees: steady-state log records, traced
//    spans, and ScopedTraceId installs perform zero heap allocations
//    (global operator-new counter);
//  - SloTracker window arithmetic with injected time (availability and
//    latency burn rates, bucket-snapped objectives, degraded flag,
//    zero-origin early-life fallback, inclusive window-boundary sample
//    selection, flood-pruned rings degrading to the zero origin);
//  - jsonEscape hostility: embedded NUL and every other control byte
//    escape to \u00xx, DEL included, while UTF-8 bytes pass through —
//    and a log message carrying an embedded NUL survives to /logz JSON
//    instead of truncating at it;
//  - Histogram quantile edge cases (single observation, everything in one
//    bucket) and an 8-thread exemplar hammer (TSan-clean last-writer-wins).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/run_context.hpp"
#include "mini_json.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "obs/trace_id.hpp"
#include "ring_hammer.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator new in this binary bumps it.
namespace {
std::atomic<std::uint64_t> g_allocCount{0};
}  // namespace

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

using hsd::tests::parsesAsJson;

// ---------------------------------------------------------------------------
// TraceId format/parse

TEST(TraceId, FormatParseRoundTrip) {
  const TraceId id{0x0af7651916cd43ddull, 0x8448eb211c80319cull};
  EXPECT_EQ(formatTraceId(id), "0af7651916cd43dd8448eb211c80319c");
  TraceId back;
  ASSERT_TRUE(parseTraceId("0af7651916cd43dd8448eb211c80319c", back));
  EXPECT_EQ(back, id);
  // Case-insensitive parse, lower-case render.
  ASSERT_TRUE(parseTraceId("0AF7651916CD43DD8448EB211C80319C", back));
  EXPECT_EQ(back, id);
  // Buffer form matches the string form and NUL-terminates.
  char buf[kTraceIdChars + 1];
  formatTraceId(id, buf);
  EXPECT_STREQ(buf, "0af7651916cd43dd8448eb211c80319c");
}

TEST(TraceId, ParseRejectsBadLengthNonHexAndZero) {
  TraceId out{1, 1};
  EXPECT_FALSE(parseTraceId("", out));
  EXPECT_FALSE(parseTraceId("abc", out));
  EXPECT_FALSE(parseTraceId(std::string(33, 'a'), out));
  EXPECT_FALSE(parseTraceId("0af7651916cd43dd8448eb211c80319g", out));
  EXPECT_FALSE(parseTraceId(std::string(32, '0'), out));  // W3C invalid id
  EXPECT_EQ(out, (TraceId{1, 1}));  // untouched on every failure
}

TEST(TraceId, TraceparentGrammar) {
  TraceId out;
  ASSERT_TRUE(parseTraceparent(
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", out));
  EXPECT_EQ(formatTraceId(out), "0af7651916cd43dd8448eb211c80319c");
  // Future versions must keep the first four fields: 01 parses too.
  ASSERT_TRUE(parseTraceparent(
      "01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra", out));
  // Version ff is forbidden by the spec.
  EXPECT_FALSE(parseTraceparent(
      "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", out));
  // Malformed shapes.
  EXPECT_FALSE(parseTraceparent("", out));
  EXPECT_FALSE(parseTraceparent("00-abc-def-01", out));
  EXPECT_FALSE(parseTraceparent(
      "00-00000000000000000000000000000000-b7ad6b7169203331-01", out));
}

TEST(TraceId, FormatTraceparentRoundTrips) {
  const TraceId id = makeTraceId();
  const std::string header = formatTraceparent(id);
  TraceId back;
  ASSERT_TRUE(parseTraceparent(header, back)) << header;
  EXPECT_EQ(back, id);
}

TEST(TraceId, MakeTraceIdIsValidAndUnique) {
  const TraceId a = makeTraceId();
  const TraceId b = makeTraceId();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------------
// Thread-local propagation

TEST(ScopedTraceId, NestsAndRestores) {
  EXPECT_FALSE(currentTraceId().valid());
  const TraceId outer = makeTraceId();
  const TraceId inner = makeTraceId();
  {
    ScopedTraceId a(outer);
    EXPECT_EQ(currentTraceId(), outer);
    {
      ScopedTraceId b(inner);
      EXPECT_EQ(currentTraceId(), inner);
      {
        ScopedTraceId mask({});  // invalid id masks the outer one
        EXPECT_FALSE(currentTraceId().valid());
      }
      EXPECT_EQ(currentTraceId(), inner);
    }
    EXPECT_EQ(currentTraceId(), outer);
  }
  EXPECT_FALSE(currentTraceId().valid());
}

TEST(ScopedTraceId, ParallelForWorkersInheritTheCallersId) {
  engine::RunContext ctx(4);
  const TraceId id = makeTraceId();
  std::atomic<std::uint64_t> matches{0};
  {
    ScopedTraceId scope(id);
    ctx.parallelFor(64, [&](std::size_t) {
      if (currentTraceId() == id) matches.fetch_add(1);
    });
  }
  EXPECT_EQ(matches.load(), 64u);
  // The workers restored their slots: a second run with no ambient id
  // sees none.
  std::atomic<std::uint64_t> stale{0};
  ctx.parallelFor(64, [&](std::size_t) {
    if (currentTraceId().valid()) stale.fetch_add(1);
  });
  EXPECT_EQ(stale.load(), 0u);
}

TEST(TraceRecorder, SpansPickUpTheAmbientTraceId) {
  TraceRecorder rec;
  const TraceId id = makeTraceId();
  const auto t = std::chrono::steady_clock::now();
  {
    ScopedTraceId scope(id);
    rec.recordSpan("traced", "test", t, t);
  }
  rec.recordSpan("untraced", "test", t, t);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].event.trace, id);
  EXPECT_FALSE(events[1].event.trace.valid());
  // JSON: the trace field appears exactly once (only the traced span).
  const std::string json = rec.toJson();
  EXPECT_TRUE(parsesAsJson(json)) << json;
  EXPECT_NE(json.find("\"trace\": \"" + formatTraceId(id) + "\""),
            std::string::npos);
  std::size_t traceFields = 0;
  for (std::size_t pos = json.find("\"trace\""); pos != std::string::npos;
       pos = json.find("\"trace\"", pos + 1))
    ++traceFields;
  EXPECT_EQ(traceFields, 1u);
}

// ---------------------------------------------------------------------------
// LogRecorder

TEST(LogRecorder, RecordsFieldsAndGatesOnLevel) {
  LogRecorder rec;
  EXPECT_EQ(rec.minLevel(), LogLevel::kInfo);
  rec.log(LogLevel::kDebug, "test", "dropped below the gate");
  rec.log(LogLevel::kWarn, "test", "kept", {"n", 7}, {"m", 9},
          {"state", "hot"});
  ASSERT_EQ(rec.recordCount(), 1u);
  const auto records = rec.snapshot();
  ASSERT_EQ(records.size(), 1u);
  const LogRecorder::Record& r = records[0].record;
  EXPECT_EQ(r.level, LogLevel::kWarn);
  EXPECT_STREQ(r.component, "test");
  EXPECT_STREQ(r.message, "kept");
  ASSERT_NE(r.a0.key, nullptr);
  EXPECT_STREQ(r.a0.key, "n");
  EXPECT_EQ(r.a0.value, 7u);
  EXPECT_EQ(r.a1.value, 9u);
  ASSERT_NE(r.s0.key, nullptr);
  EXPECT_STREQ(r.s0.value, "hot");
  // Lowering the gate admits the debug record.
  rec.setMinLevel(LogLevel::kTrace);
  rec.log(LogLevel::kDebug, "test", "now kept");
  EXPECT_EQ(rec.recordCount(), 2u);
}

TEST(LogRecorder, FullRingDropsOldestAndCountsDrops) {
  LogRecorder rec(4);
  for (int i = 0; i < 10; ++i)
    rec.log(LogLevel::kInfo, "test", "m" + std::to_string(i));
  EXPECT_EQ(rec.recordCount(), 4u);
  EXPECT_EQ(rec.droppedRecords(), 6u);
  const auto records = rec.snapshot();
  ASSERT_EQ(records.size(), 4u);
  for (int i = 0; i < 4; ++i)
    EXPECT_STREQ(records[std::size_t(i)].record.message,
                 ("m" + std::to_string(6 + i)).c_str());
}

TEST(LogRecorder, SnapshotsWhileTheRingWrapsReturnWholeOrderedRecords) {
  LogRecorder rec(4);
  hsd::tests::hammerRingUnderSnapshots(
      [&](std::uint64_t i) {
        char msg[32];
        const int n = std::snprintf(msg, sizeof msg, "msg-%llu",
                                    static_cast<unsigned long long>(i));
        rec.log(LogLevel::kInfo, "wrap", std::string_view(msg, std::size_t(n)),
                {"i", i});
      },
      [&] {
        std::uint64_t dropped = 0;
        const auto records = rec.snapshot(&dropped);
        std::uint64_t next = 0;
        for (const auto& sr : records) {
          const std::uint64_t i = sr.record.a0.value;
          EXPECT_EQ(sr.record.message, "msg-" + std::to_string(i));
          EXPECT_EQ(sr.record.msgLen, ("msg-" + std::to_string(i)).size());
          EXPECT_GE(i, next) << "per-thread order must strictly increase";
          next = i + 1;
        }
        return records.size() + dropped;
      });
}

TEST(LogRecorder, LongMessagesTruncateWithoutOverflow) {
  LogRecorder rec;
  rec.log(LogLevel::kInfo, "test", std::string(500, 'x'));
  const auto records = rec.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(std::strlen(records[0].record.message),
            LogRecorder::kMessageCapacity - 1);
}

TEST(LogRecorder, StampsTheAmbientTraceIdAndExplicitWins) {
  LogRecorder rec;
  const TraceId ambient = makeTraceId();
  const TraceId explicitId = makeTraceId();
  {
    ScopedTraceId scope(ambient);
    rec.log(LogLevel::kInfo, "test", "ambient");
    rec.log(LogLevel::kInfo, "test", "explicit", {}, {}, {}, explicitId);
  }
  rec.log(LogLevel::kInfo, "test", "none");
  const auto records = rec.snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].record.trace, ambient);
  EXPECT_EQ(records[1].record.trace, explicitId);
  EXPECT_FALSE(records[2].record.trace.valid());
}

TEST(LogRecorder, JsonLinesParseAndCarryTheTraceField) {
  LogRecorder rec;
  const TraceId id = makeTraceId();
  rec.log(LogLevel::kInfo, "test", "plain \"quoted\"\nline");
  rec.log(LogLevel::kError, "test", "traced", {"n", 3}, {}, {}, id);
  std::ostringstream os;
  rec.writeJsonLines(os);
  const std::string text = os.str();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  std::istringstream lines(text);
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    EXPECT_TRUE(parsesAsJson(line)) << line;
  }
  EXPECT_EQ(n, 2u);
  EXPECT_NE(text.find("\"trace\": \"" + formatTraceId(id) + "\""),
            std::string::npos);
  // The untraced record has no trace field: exactly one across both lines.
  std::size_t traceFields = 0;
  for (std::size_t pos = text.find("\"trace\""); pos != std::string::npos;
       pos = text.find("\"trace\"", pos + 1))
    ++traceFields;
  EXPECT_EQ(traceFields, 1u);
  EXPECT_NE(text.find("\"level\": \"error\""), std::string::npos);
}

TEST(LogRecorder, ConcurrentWritersLandInPerThreadRings) {
  LogRecorder rec;
  constexpr int kThreads = 8;
  constexpr int kEach = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&rec] {
      for (int i = 0; i < kEach; ++i)
        rec.log(LogLevel::kInfo, "test", "hammer", {"i", std::uint64_t(i)});
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(rec.recordCount(), std::size_t(kThreads * kEach));
  EXPECT_EQ(rec.droppedRecords(), 0u);
}

TEST(LogLevel, ParseAcceptsAliasesCaseInsensitively) {
  LogLevel out;
  ASSERT_TRUE(parseLogLevel("WARN", out));
  EXPECT_EQ(out, LogLevel::kWarn);
  ASSERT_TRUE(parseLogLevel("warning", out));
  EXPECT_EQ(out, LogLevel::kWarn);
  ASSERT_TRUE(parseLogLevel("Trace", out));
  EXPECT_EQ(out, LogLevel::kTrace);
  EXPECT_FALSE(parseLogLevel("loud", out));
  EXPECT_STREQ(toString(LogLevel::kError), "error");
}

// ---------------------------------------------------------------------------
// No-allocation proofs

TEST(LogRecorder, SteadyStateLoggingPerformsNoHeapAllocation) {
  LogRecorder rec;
  rec.log(LogLevel::kInfo, "test", "warmup");  // registers this thread's ring
  const TraceId id = makeTraceId();
  const ScopedTraceId scope(id);
  const std::uint64_t before = g_allocCount.load();
  for (int i = 0; i < 1000; ++i)
    rec.log(LogLevel::kInfo, "test", "steady", {"i", std::uint64_t(i)}, {},
            {"k", "v"});
  EXPECT_EQ(g_allocCount.load() - before, 0u);
}

TEST(LogRecorder, GatedRecordsPerformNoHeapAllocation) {
  LogRecorder rec;  // min level info: debug records cost one relaxed load
  const std::uint64_t before = g_allocCount.load();
  for (int i = 0; i < 1000; ++i)
    logTo(&rec, LogLevel::kDebug, "test", "below the gate");
  logTo(nullptr, LogLevel::kError, "test", "recorder off");
  EXPECT_EQ(g_allocCount.load() - before, 0u);
}

TEST(ScopedTraceId, PropagationMachineryPerformsNoHeapAllocation) {
  const TraceId id = makeTraceId();  // warm the generator's first-call path
  const std::uint64_t before = g_allocCount.load();
  for (int i = 0; i < 1000; ++i) {
    const ScopedTraceId scope(id);
    const TraceId cur = currentTraceId();
    ASSERT_TRUE(cur.valid());
    char buf[kTraceIdChars + 1];
    formatTraceId(cur, buf);
  }
  EXPECT_EQ(g_allocCount.load() - before, 0u);
}

TEST(TraceRecorder, TracedSpansPerformNoHeapAllocationSteadyState) {
  TraceRecorder rec;
  const auto t = std::chrono::steady_clock::now();
  rec.recordSpan("warmup", "test", t, t);
  const TraceId id = makeTraceId();
  const ScopedTraceId scope(id);
  const std::uint64_t before = g_allocCount.load();
  for (int i = 0; i < 1000; ++i)
    rec.recordSpan("steady", "test", t, t, {"i", std::uint64_t(i)});
  EXPECT_EQ(g_allocCount.load() - before, 0u);
}

// ---------------------------------------------------------------------------
// SloTracker (injected time: deterministic window arithmetic)

using Clock = SloTracker::Clock;
using std::chrono::seconds;

TEST(SloTracker, AvailabilityWindowsAndBurnRates) {
  SloConfig cfg;
  cfg.availabilityTarget = 0.9;  // 10% error budget: easy arithmetic
  cfg.windowsSeconds = {60.0, 300.0};
  SloTracker slo(cfg);
  std::atomic<std::uint64_t> good{0};
  std::atomic<std::uint64_t> total{0};
  slo.setAvailabilitySource([&] { return good.load(); },
                            [&] { return total.load(); });
  const Clock::time_point t0 = Clock::now();
  slo.sample(t0);  // baseline: 0/0
  // 100 requests, 80 good, in the first minute: availability 0.8,
  // burn (1-0.8)/(1-0.9) = 2.
  good = 80;
  total = 100;
  slo.sample(t0 + seconds(60));
  const SloTracker::Status st = slo.status(t0 + seconds(60));
  ASSERT_EQ(st.windows.size(), 2u);
  const SloTracker::Window& w60 = st.windows[0];
  EXPECT_DOUBLE_EQ(w60.seconds, 60.0);
  EXPECT_EQ(w60.total, 100u);
  EXPECT_EQ(w60.good, 80u);
  EXPECT_DOUBLE_EQ(w60.availability, 0.8);
  EXPECT_NEAR(w60.availabilityBurn, 2.0, 1e-9);
  EXPECT_TRUE(w60.burning);
  EXPECT_TRUE(st.degraded);
  // Three clean minutes later the short window has recovered while the
  // long one still covers the bad minute.
  good = 80 + 300;
  total = 100 + 300;
  slo.sample(t0 + seconds(240));
  const SloTracker::Status later = slo.status(t0 + seconds(240));
  EXPECT_DOUBLE_EQ(later.windows[0].availability, 1.0);
  EXPECT_FALSE(later.windows[0].burning);
  EXPECT_DOUBLE_EQ(later.windows[1].availability, 0.95);
}

TEST(SloTracker, EarlyLifeFallsBackToTheZeroOrigin) {
  SloTracker slo;
  std::atomic<std::uint64_t> good{5};
  std::atomic<std::uint64_t> total{10};
  slo.setAvailabilitySource([&] { return good.load(); },
                            [&] { return total.load(); });
  // No samples at all: the window degrades to "since process start".
  const SloTracker::Status st = slo.status(Clock::now());
  ASSERT_FALSE(st.windows.empty());
  EXPECT_EQ(st.windows[0].total, 10u);
  EXPECT_EQ(st.windows[0].good, 5u);
  EXPECT_DOUBLE_EQ(st.windows[0].availability, 0.5);
}

TEST(SloTracker, LatencyObjectiveSnapsDownToABucketBound) {
  Histogram hist({0.1, 0.5, 1.0, 2.0});
  SloConfig cfg;
  cfg.latencyObjectiveSeconds = 0.7;  // between bounds: snaps to 0.5
  cfg.latencyTarget = 0.5;
  SloTracker slo(cfg);
  slo.setLatencySource(&hist);
  EXPECT_DOUBLE_EQ(slo.effectiveLatencyObjective(), 0.5);
  const Clock::time_point t0 = Clock::now();
  slo.sample(t0);
  hist.observe(0.05);  // fast
  hist.observe(0.3);   // fast (<= 0.5)
  hist.observe(0.9);   // slow
  hist.observe(3.0);   // slow
  const SloTracker::Status st = slo.status(t0 + seconds(30));
  const SloTracker::Window& w = st.windows[0];
  EXPECT_EQ(w.latencyTotal, 4u);
  EXPECT_EQ(w.latencyFast, 2u);
  EXPECT_DOUBLE_EQ(w.latencyAttainment, 0.5);
  EXPECT_DOUBLE_EQ(w.latencyBurn, 1.0);   // exactly on target
  EXPECT_FALSE(w.burning);                // burn must *exceed* the threshold
}

TEST(SloTracker, UnmeasurableObjectiveReportsFullAttainment) {
  Histogram hist({1.0, 2.0});
  SloConfig cfg;
  cfg.latencyObjectiveSeconds = 0.5;  // below every bound: unmeasurable
  SloTracker slo(cfg);
  slo.setLatencySource(&hist);
  EXPECT_DOUBLE_EQ(slo.effectiveLatencyObjective(), 0.0);
  hist.observe(10.0);
  const SloTracker::Status st = slo.status();
  EXPECT_EQ(st.windows[0].latencyTotal, 0u);
  EXPECT_DOUBLE_EQ(st.windows[0].latencyAttainment, 1.0);
}

TEST(SloTracker, ToJsonParsesAndNamesEveryWindow) {
  SloTracker slo;
  std::atomic<std::uint64_t> good{99};
  std::atomic<std::uint64_t> total{100};
  slo.setAvailabilitySource([&] { return good.load(); },
                            [&] { return total.load(); });
  const std::string json = slo.toJson(slo.status());
  EXPECT_TRUE(parsesAsJson(json)) << json;
  EXPECT_NE(json.find("\"availabilityTarget\""), std::string::npos);
  EXPECT_NE(json.find("\"windows\""), std::string::npos);
  EXPECT_NE(json.find("\"burning\""), std::string::npos);
  EXPECT_NE(json.find("\"degraded\""), std::string::npos);
}

TEST(SloTracker, SampleRingStaysBoundedUnderScrapeFloods) {
  SloConfig cfg;
  cfg.windowsSeconds = {1.0};
  cfg.maxSamples = 8;
  SloTracker slo(cfg);
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 1000; ++i)
    slo.sample(t0 + std::chrono::milliseconds(i));
  // No direct ring accessor: the bound is observable as bounded memory and
  // a still-correct recent window.
  const SloTracker::Status st = slo.status(t0 + std::chrono::milliseconds(999));
  EXPECT_EQ(st.windows.size(), 1u);
}

TEST(SloTracker, WindowBoundarySampleIsSelectedInclusively) {
  // A sample aged *exactly* windowSeconds is the window origin ("newest
  // sample at least w old" is >=, not >): the window must cover precisely
  // the traffic after it, not fall back to the zero origin.
  SloConfig cfg;
  cfg.availabilityTarget = 0.9;
  cfg.windowsSeconds = {60.0};
  SloTracker slo(cfg);
  std::atomic<std::uint64_t> good{50};
  std::atomic<std::uint64_t> total{100};
  slo.setAvailabilitySource([&] { return good.load(); },
                            [&] { return total.load(); });
  const Clock::time_point t0 = Clock::now();
  slo.sample(t0);  // 50/100 before the window
  good = 150;      // 100 more requests, all good, inside the window
  total = 200;
  const SloTracker::Status st = slo.status(t0 + seconds(60));
  ASSERT_EQ(st.windows.size(), 1u);
  // Boundary sample selected: the window sees only the clean 100. A
  // zero-origin fallback would report 150/200 = 0.75 and degrade.
  EXPECT_EQ(st.windows[0].total, 100u);
  EXPECT_EQ(st.windows[0].good, 100u);
  EXPECT_DOUBLE_EQ(st.windows[0].availability, 1.0);
  EXPECT_DOUBLE_EQ(st.windows[0].coveredSeconds, 60.0);
  EXPECT_FALSE(st.degraded);
}

TEST(SloTracker, FloodPrunedRingDegradesToTheZeroOrigin) {
  // When maxSamples evicts every sample old enough to serve as a window
  // origin (a scrape flood against a tiny ring), the window degrades to
  // the zero origin — full-life counts — instead of picking a too-young
  // origin and silently under-reporting.
  SloConfig cfg;
  cfg.windowsSeconds = {60.0};
  cfg.maxSamples = 4;
  SloTracker slo(cfg);
  std::atomic<std::uint64_t> good{80};
  std::atomic<std::uint64_t> total{100};
  slo.setAvailabilitySource([&] { return good.load(); },
                            [&] { return total.load(); });
  const Clock::time_point t0 = Clock::now();
  slo.sample(t0);  // would be the 60s origin, if it survived
  good = 180;
  total = 200;
  // Flood: 100 samples in the last second evict the t0 sample.
  for (int i = 0; i < 100; ++i)
    slo.sample(t0 + seconds(59) + std::chrono::milliseconds(i));
  const SloTracker::Status st = slo.status(t0 + seconds(60));
  ASSERT_EQ(st.windows.size(), 1u);
  EXPECT_EQ(st.windows[0].total, 200u);  // zero origin: everything
  EXPECT_EQ(st.windows[0].good, 180u);
  EXPECT_DOUBLE_EQ(st.windows[0].availability, 0.9);
}

// ---------------------------------------------------------------------------
// jsonEscape and /logz emission under hostile bytes

TEST(JsonEscape, EscapesEveryControlByteIncludingEmbeddedNul) {
  // Embedded NUL must escape, not terminate: the string_view length is
  // the contract, not the first zero byte.
  EXPECT_EQ(jsonEscape(std::string_view("a\0b", 3)), "a\\u0000b");
  // Named short escapes keep their JSON spellings.
  EXPECT_EQ(jsonEscape("\"\\\b\f\n\r\t"), "\\\"\\\\\\b\\f\\n\\r\\t");
  // Every remaining C0 byte and DEL become \u00xx.
  for (unsigned c = 1; c < 0x20; ++c) {
    if (c == '\b' || c == '\f' || c == '\n' || c == '\r' || c == '\t')
      continue;
    const char raw[2] = {char(c), '\0'};
    char expect[8];
    std::snprintf(expect, sizeof expect, "\\u%04x", c);
    EXPECT_EQ(jsonEscape(std::string_view(raw, 1)), expect) << "byte " << c;
  }
  EXPECT_EQ(jsonEscape("\x7f"), "\\u007f");
  // Bytes >= 0x80 pass through untouched — escaping them would corrupt
  // multi-byte UTF-8 sequences.
  EXPECT_EQ(jsonEscape("h\xc3\xa9llo \xe2\x86\x92"), "h\xc3\xa9llo \xe2\x86\x92");
  // A quoted escaped hostile string is valid JSON.
  const std::string hostile =
      "\"" + jsonEscape(std::string_view("x\0\x01\x1f\x7f\"\\\n", 8)) + "\"";
  EXPECT_TRUE(parsesAsJson(hostile)) << hostile;
}

TEST(LogRecorder, MessageWithEmbeddedNulSurvivesToJson) {
  LogRecorder rec;
  rec.log(LogLevel::kInfo, "test", std::string_view("ab\0cd", 5));
  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  // The copied length is the record's contract; strlen would lie here.
  EXPECT_EQ(snap[0].record.msgLen, 5u);
  std::ostringstream os;
  rec.writeJsonLines(os);
  const std::string line = os.str();
  EXPECT_NE(line.find("ab\\u0000cd"), std::string::npos) << line;
  EXPECT_TRUE(parsesAsJson(line.substr(0, line.find('\n')))) << line;
}

TEST(LogRecorder, HostileControlBytesNeverBreakTheJsonLines) {
  LogRecorder rec;
  rec.log(LogLevel::kWarn, "test", "tab\there \x01 and \x7f del");
  rec.log(LogLevel::kError, "test", std::string_view("nul\0nul", 7));
  // Oversized message with trailing hostile bytes: truncation keeps the
  // prefix and the line still parses.
  std::string big(200, 'x');
  big[10] = '\0';
  big[11] = '\x1f';
  rec.log(LogLevel::kInfo, "test", big);
  std::ostringstream os;
  rec.writeJsonLines(os);
  std::istringstream lines(os.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    EXPECT_TRUE(parsesAsJson(line)) << line;
  }
  EXPECT_EQ(n, 3u);
  EXPECT_NE(os.str().find("\\u0001"), std::string::npos);
  EXPECT_NE(os.str().find("\\u007f"), std::string::npos);
  EXPECT_NE(os.str().find("nul\\u0000nul"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Histogram quantile edges and exemplars

TEST(Histogram, SingleObservationDrivesEveryQuantile) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(1.5);
  EXPECT_EQ(h.count(), 1u);
  // Every quantile lands in the (1, 2] bucket.
  EXPECT_GT(h.quantile(0.01), 1.0);
  EXPECT_LE(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);
}

TEST(Histogram, AllObservationsInOneBucketInterpolateInside) {
  Histogram h({1.0, 2.0, 4.0});
  for (int i = 0; i < 100; ++i) h.observe(1.5);
  const double q50 = h.quantile(0.5);
  EXPECT_GT(q50, 1.0);
  EXPECT_LE(q50, 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);  // bucket upper bound
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);  // bucket lower bound
}

TEST(Histogram, ExemplarsRecordTheLastTracedObservationPerBucket) {
  Histogram h({1.0, 2.0});
  const TraceId a = makeTraceId();
  const TraceId b = makeTraceId();
  h.observe(0.5);            // untraced: no exemplar
  h.observe(1.5, a);
  h.observe(1.7, b);         // same bucket: last writer wins
  h.observe(5.0, TraceId{});  // invalid trace: counts, no exemplar
  const auto ex = h.exemplars();
  ASSERT_EQ(ex.size(), 3u);  // bounds + Inf
  EXPECT_FALSE(ex[0].valid());
  ASSERT_TRUE(ex[1].valid());
  EXPECT_EQ(ex[1].trace, b);
  EXPECT_DOUBLE_EQ(ex[1].value, 1.7);
  EXPECT_GT(ex[1].unixMs, 0);
  EXPECT_FALSE(ex[2].valid());
  EXPECT_EQ(h.count(), 4u);  // exemplars never change the counts
}

TEST(Histogram, ExemplarHammerEightThreadsStaysCoherent) {
  Histogram h({0.5, 1.0, 2.0});
  constexpr int kThreads = 8;
  constexpr int kEach = 500;
  std::vector<TraceId> ids(kThreads);
  for (int t = 0; t < kThreads; ++t) ids[std::size_t(t)] = makeTraceId();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, &ids, t] {
      const double v = 0.25 * double(t % 4) + 0.1;  // spread across buckets
      for (int i = 0; i < kEach; ++i) h.observe(v, ids[std::size_t(t)]);
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(h.count(), std::uint64_t(kThreads * kEach));
  const auto ex = h.exemplars();
  ASSERT_EQ(ex.size(), 4u);
  // Every touched bucket ends with some thread's id and a value that maps
  // to that bucket (torn writes would break this).
  const std::vector<double>& bounds = h.bounds();
  for (std::size_t bkt = 0; bkt < ex.size(); ++bkt) {
    if (!ex[bkt].valid()) continue;
    EXPECT_NE(std::find(ids.begin(), ids.end(), ex[bkt].trace), ids.end());
    if (bkt < bounds.size()) {
      EXPECT_LE(ex[bkt].value, bounds[bkt]);
    }
    if (bkt > 0) {
      EXPECT_GT(ex[bkt].value, bounds[bkt - 1]);
    }
  }
}

}  // namespace
}  // namespace hsd::obs
