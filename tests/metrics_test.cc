// Unit tests for the observability layer (src/common/metrics.h): counter,
// gauge and histogram semantics, registry export formats, trace recording,
// stats aggregation — plus an end-to-end test asserting that the trace of
// a real Extract call agrees with the FilterStats/VerifyStats it returns.

#include "src/common/metrics.h"

#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/aeetes.h"
#include "src/index/filters.h"

#ifndef AEETES_DATA_DIR
#define AEETES_DATA_DIR "data"
#endif

namespace aeetes {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAddAndNegativeValues) {
  Gauge g;
  g.Set(7);
  EXPECT_EQ(g.value(), 7);
  g.Add(-10);
  EXPECT_EQ(g.value(), -3);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds exact zeros; bucket i holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(Histogram::BucketIndex((uint64_t{1} << 30) - 1), 30u);
}

TEST(HistogramTest, OverflowValuesLandInLastBucket) {
  const size_t last = Histogram::kNumBuckets - 1;
  EXPECT_EQ(Histogram::BucketIndex(uint64_t{1} << 30), last);
  EXPECT_EQ(Histogram::BucketIndex(uint64_t{1} << 60), last);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<uint64_t>::max()),
            last);

  Histogram h;
  h.Record(std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(h.bucket(last), 1u);
  EXPECT_EQ(h.count(), 1u);
}

TEST(HistogramTest, BucketUpperBounds) {
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1),
            std::numeric_limits<uint64_t>::max());
}

TEST(HistogramTest, RecordUpdatesCountSumAndBuckets) {
  Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(2);
  h.Record(3);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 6u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(3), 0u);
}

TEST(MetricsRegistryTest, ToJsonGolden) {
  MetricsRegistry registry;
  registry.RegisterCounter("b.count", "").Add(3);
  registry.RegisterCounter("a.count", "").Add(1);
  registry.RegisterGauge("g.size", "").Set(-5);
  Histogram& h = registry.RegisterHistogram("h.lat", "");
  h.Record(0);
  h.Record(2);

  std::string buckets = "1,0,1";
  for (size_t i = 3; i < Histogram::kNumBuckets; ++i) buckets += ",0";
  // Keys come out sorted, so the snapshot is deterministic.
  const std::string expected =
      "{\"counters\":{\"a.count\":1,\"b.count\":3},"
      "\"gauges\":{\"g.size\":-5},"
      "\"histograms\":{\"h.lat\":{\"count\":2,\"sum\":2,\"buckets\":[" +
      buckets + "]}}}";
  EXPECT_EQ(registry.ToJson(), expected);
}

TEST(MetricsRegistryTest, FindByNameAndKind) {
  MetricsRegistry registry;
  registry.RegisterCounter("c", "help");
  EXPECT_NE(registry.FindCounter("c"), nullptr);
  EXPECT_EQ(registry.FindGauge("c"), nullptr);
  EXPECT_EQ(registry.FindCounter("missing"), nullptr);
}

TEST(MetricsRegistryTest, ResetAllKeepsRegistrations) {
  MetricsRegistry registry;
  Counter& c = registry.RegisterCounter("c", "");
  c.Add(5);
  registry.ResetAll();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_NE(registry.FindCounter("c"), nullptr);
}

TEST(MetricsRegistryTest, ToTextMentionsEveryMetricAndHelp) {
  MetricsRegistry registry;
  registry.RegisterCounter("filter.windows", "windows enumerated").Add(2);
  registry.RegisterHistogram("extract.latency_us", "per-call wall time")
      .Record(100);
  const std::string text = registry.ToText();
  EXPECT_NE(text.find("filter.windows"), std::string::npos);
  EXPECT_NE(text.find("windows enumerated"), std::string::npos);
  EXPECT_NE(text.find("extract.latency_us"), std::string::npos);
}

TEST(MetricsRegistryDeathTest, DuplicateRegistrationAborts) {
  MetricsRegistry registry;
  registry.RegisterCounter("dup.name", "");
  EXPECT_DEATH(registry.RegisterGauge("dup.name", ""),
               "duplicate metric registration");
  EXPECT_DEATH(registry.RegisterCounter("dup.name", ""),
               "duplicate metric registration");
}

TEST(MetricsRegistryTest, ConcurrentUpdatesAreRaceFree) {
  // Hammered under the tsan preset: registration up front, then lock-free
  // updates from many threads.
  MetricsRegistry registry;
  Counter& c = registry.RegisterCounter("hammer.count", "");
  Histogram& h = registry.RegisterHistogram("hammer.lat", "");
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        c.Increment();
        h.Record(static_cast<uint64_t>(t * kIters + i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kIters);
}

TEST(ScopedTimerTest, WritesMillisAndRecordsMicros) {
  Histogram h;
  double ms = -1.0;
  {
    ScopedTimer timer(&h, &ms);
  }
  EXPECT_GE(ms, 0.0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(ScopedTimerTest, NullTargetsAreNoOps) {
  double ms = -1.0;
  { ScopedTimer timer(nullptr, &ms); }
  EXPECT_GE(ms, 0.0);
  { ScopedTimer timer(nullptr, nullptr); }  // must not crash
}

TEST(TraceRecorderTest, NestedSpansFormATree) {
  TraceRecorder rec;
  {
    TraceScope root(&rec, "extract");
    {
      TraceScope filter(&rec, "filter");
      filter.AddStat("windows", 12);
    }
    { TraceScope verify(&rec, "verify"); }
  }
  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[0].name, "extract");
  EXPECT_EQ(rec.spans()[0].parent, TraceRecorder::kNoSpan);
  EXPECT_EQ(rec.spans()[1].parent, 0u);
  EXPECT_EQ(rec.spans()[2].parent, 0u);

  const TraceRecorder::Span* filter = rec.Find("filter");
  ASSERT_NE(filter, nullptr);
  ASSERT_EQ(filter->stats.size(), 1u);
  EXPECT_EQ(filter->stats[0].first, "windows");
  EXPECT_EQ(filter->stats[0].second, 12u);
  EXPECT_EQ(rec.Find("missing"), nullptr);
}

TEST(TraceRecorderTest, NullRecorderScopesAreNoOps) {
  TraceScope scope(nullptr, "anything");
  scope.AddStat("stat", 1);  // must not crash
}

TEST(TraceRecorderTest, JsonAndTextExports) {
  TraceRecorder rec;
  {
    TraceScope root(&rec, "extract");
    TraceScope child(&rec, "filter");
    child.AddStat("candidates", 3);
  }
  const std::string json = rec.ToJson();
  EXPECT_NE(json.find("\"name\":\"extract\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"filter\""), std::string::npos);
  EXPECT_NE(json.find("\"candidates\":3"), std::string::npos);
  EXPECT_NE(json.find("\"children\":["), std::string::npos);

  const std::string text = rec.ToText();
  EXPECT_NE(text.find("extract"), std::string::npos);
  EXPECT_NE(text.find("  filter"), std::string::npos);  // indented child
  EXPECT_NE(text.find("candidates=3"), std::string::npos);

  rec.Clear();
  EXPECT_TRUE(rec.spans().empty());
}

TEST(JsonIoTest, EscapesSpecialCharacters) {
  std::string out;
  jsonio::AppendString(&out, "a\"b\\c\nd");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\"");
}

TEST(StatsMergeTest, FilterStatsAccumulateAndStayConsistent) {
  FilterStats a;
  a.windows = 10;
  a.substrings = 20;
  a.prefix_rebuilds = 4;
  a.prefix_updates = 16;
  a.entries_accessed = 30;
  a.candidates = 5;
  a.registrations = 12;
  FilterStats b;
  b.windows = 1;
  b.substrings = 2;
  b.prefix_rebuilds = 1;
  b.prefix_updates = 1;
  b.entries_accessed = 3;
  b.candidates = 4;
  b.registrations = 2;
  a += b;
  EXPECT_EQ(a.windows, 11u);
  EXPECT_EQ(a.substrings, 22u);
  EXPECT_EQ(a.prefix_rebuilds, 5u);
  EXPECT_EQ(a.prefix_updates, 17u);
  EXPECT_EQ(a.entries_accessed, 33u);
  EXPECT_EQ(a.candidates, 9u);
  EXPECT_EQ(a.registrations, 14u);
  a.CheckConsistent();  // merged totals must preserve the invariants
}

TEST(StatsMergeTest, VerifyStatsAccumulate) {
  VerifyStats a{.verified = 7, .matched = 2, .bound_pruned = 4};
  VerifyStats b{.verified = 3, .matched = 1, .bound_pruned = 1};
  a += b;
  EXPECT_EQ(a.verified, 10u);
  EXPECT_EQ(a.matched, 3u);
  EXPECT_EQ(a.bound_pruned, 5u);
  a.CheckConsistent();
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

uint64_t SpanStat(const TraceRecorder::Span& span, std::string_view name) {
  for (const auto& [stat, value] : span.stats) {
    if (stat == name) return value;
  }
  ADD_FAILURE() << "span " << span.name << " lacks stat " << name;
  return 0;
}

TEST(PipelineTraceTest, TraceAgreesWithReturnedStatsAndRegistry) {
  const std::string dir = std::string(AEETES_DATA_DIR) + "/institutions";
  const auto entities = ReadLines(dir + "/entities.txt");
  const auto rules = ReadLines(dir + "/rules.txt");
  const auto documents = ReadLines(dir + "/documents.txt");
  if (entities.empty() || documents.empty()) {
    GTEST_SKIP() << "data/institutions not found at " << dir;
  }

  auto built = Aeetes::BuildFromText(entities, rules);
  ASSERT_TRUE(built.ok()) << built.status();
  auto& aeetes = *built;

  // The offline stage published its gauges at build time.
  EXPECT_NE(aeetes->metrics().FindGauge("build.origins"), nullptr);
  EXPECT_NE(aeetes->metrics().FindGauge("index.bytes"), nullptr);

  FilterStats total_filter;
  VerifyStats total_verify;
  for (const std::string& text : documents) {
    const Document doc = aeetes->EncodeDocument(text);
    TraceRecorder rec;
    auto result = aeetes->Extract(doc, 0.8, &rec);
    ASSERT_TRUE(result.ok()) << result.status();
    total_filter += result->filter_stats;
    total_verify += result->verify_stats;

    // Span tree: extract -> {filter, verify}.
    const auto* extract = rec.Find("extract");
    const auto* filter = rec.Find("filter");
    const auto* verify = rec.Find("verify");
    ASSERT_NE(extract, nullptr);
    ASSERT_NE(filter, nullptr);
    ASSERT_NE(verify, nullptr);

    // The filter span's stats are the returned FilterStats, field by field.
    const FilterStats& fs = result->filter_stats;
    EXPECT_EQ(SpanStat(*filter, "windows"), fs.windows);
    EXPECT_EQ(SpanStat(*filter, "substrings"), fs.substrings);
    EXPECT_EQ(SpanStat(*filter, "entries_accessed"), fs.entries_accessed);
    EXPECT_EQ(SpanStat(*filter, "candidates"), fs.candidates);
    EXPECT_EQ(SpanStat(*filter, "registrations"), fs.registrations);
    // Lazy's phase-1 span reports the size of its substring index I.
    const auto* enumeration = rec.Find("window_enumeration");
    ASSERT_NE(enumeration, nullptr);
    EXPECT_EQ(SpanStat(*enumeration, "registrations"), fs.registrations);
    EXPECT_EQ(SpanStat(*verify, "verified"), result->verify_stats.verified);
    EXPECT_EQ(SpanStat(*verify, "matched"), result->verify_stats.matched);
    EXPECT_EQ(SpanStat(*verify, "bound_pruned"),
              result->verify_stats.bound_pruned);

    // Stage spans are contained in — and roughly account for — the root.
    EXPECT_GE(extract->elapsed_ms + 1e-3,
              filter->elapsed_ms + verify->elapsed_ms);
    EXPECT_GE(filter->elapsed_ms + verify->elapsed_ms + 1.0,
              extract->elapsed_ms);
  }

  // The registry accumulated exactly what the per-call structs reported.
  const Counter* calls = aeetes->metrics().FindCounter("extract.calls");
  const Counter* windows = aeetes->metrics().FindCounter("filter.windows");
  const Counter* pairs = aeetes->metrics().FindCounter("verify.pairs");
  const Counter* matches = aeetes->metrics().FindCounter("verify.matches");
  const Counter* pruned =
      aeetes->metrics().FindCounter("verify.bound_pruned");
  const Counter* registrations =
      aeetes->metrics().FindCounter("filter.registrations");
  ASSERT_NE(registrations, nullptr);
  EXPECT_GT(total_filter.registrations, 0u);
  EXPECT_EQ(registrations->value(), total_filter.registrations);
  ASSERT_NE(calls, nullptr);
  ASSERT_NE(pruned, nullptr);
  ASSERT_NE(windows, nullptr);
  ASSERT_NE(pairs, nullptr);
  ASSERT_NE(matches, nullptr);
  EXPECT_EQ(calls->value(), documents.size());
  EXPECT_EQ(windows->value(), total_filter.windows);
  EXPECT_EQ(pairs->value(), total_verify.verified);
  EXPECT_EQ(matches->value(), total_verify.matched);
  EXPECT_EQ(pruned->value(), total_verify.bound_pruned);
  total_filter.CheckConsistent();
  total_verify.CheckConsistent();

  const Histogram* latency =
      aeetes->metrics().FindHistogram("extract.latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), documents.size());

  // The JSON snapshot parses into the three expected top-level sections.
  const std::string json = aeetes->metrics().ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
}

}  // namespace
}  // namespace aeetes
