// MetricRegistry semantics: labeled families, concurrent counter updates,
// histogram bucket boundaries, the two exporters (Prometheus text and
// JSON, including the built-in JSON linter), the CountSpan counters and
// the lazily resolved CounterSlots.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"

namespace vaq {
namespace obs {
namespace {

TEST(MetricRegistryTest, GetOrCreateReturnsStablePointers) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("hits", {{"model", "yolo"}});
  Counter* b = registry.GetCounter("hits", {{"model", "yolo"}});
  Counter* c = registry.GetCounter("hits", {{"model", "i3d"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(MetricRegistryTest, LabelOrderIsCanonicalized) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("x", {{"b", "2"}, {"a", "1"}});
  Counter* b = registry.GetCounter("x", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(a, b);
}

TEST(MetricRegistryTest, TwoThreadsBumpingOneFamilyLoseNothing) {
  MetricRegistry registry;
  constexpr int64_t kPerThread = 200000;
  auto bump = [&registry] {
    // Resolve inside the thread: registration itself must also be safe
    // under concurrency, not just the increments.
    Counter* counter =
        registry.GetCounter("vaq_detector_invocations", {{"model", "yolo"}});
    for (int64_t i = 0; i < kPerThread; ++i) counter->Increment();
  };
  std::thread t1(bump);
  std::thread t2(bump);
  t1.join();
  t2.join();
  EXPECT_EQ(registry.GetCounter("vaq_detector_invocations",
                                {{"model", "yolo"}})
                ->value(),
            2 * kPerThread);
}

TEST(MetricRegistryTest, GaugeSetAndAdd) {
  MetricRegistry registry;
  Gauge* g = registry.GetGauge("queue_depth");
  g->Set(4.0);
  EXPECT_DOUBLE_EQ(g->value(), 4.0);
  g->Add(-1.5);
  EXPECT_DOUBLE_EQ(g->value(), 2.5);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 4.0});
  for (const double v : {0.5, 1.0, 1.5, 2.0, 4.0, 5.0}) h.Observe(v);
  EXPECT_EQ(h.bucket_count(0), 2);  // 0.5, 1.0 (boundary is inclusive).
  EXPECT_EQ(h.bucket_count(1), 2);  // 1.5, 2.0.
  EXPECT_EQ(h.bucket_count(2), 1);  // 4.0.
  EXPECT_EQ(h.bucket_count(3), 1);  // 5.0 lands in +inf.
  EXPECT_EQ(h.count(), 6);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 5.0);
}

TEST(HistogramTest, RegistryRejectsNothingButSnapshotsCumulative) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("lat_ms", {1.0, 10.0});
  h->Observe(0.5);
  h->Observe(5.0);
  h->Observe(100.0);
  const Snapshot snapshot = registry.TakeSnapshot();
  ASSERT_EQ(snapshot.entries.size(), 1u);
  const std::string text = ExportPrometheus(snapshot);
  // Prometheus buckets are cumulative: le="1" 1, le="10" 2, le="+Inf" 3.
  EXPECT_NE(text.find("lat_ms_bucket{le=\"1\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_ms_bucket{le=\"10\"} 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_ms_bucket{le=\"+Inf\"} 3"), std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_ms_count 3"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE lat_ms histogram"), std::string::npos) << text;
}

TEST(ExportTest, PrometheusEmitsOneTypeLinePerFamily) {
  MetricRegistry registry;
  registry.GetCounter("calls", {{"outcome", "ok"}})->Increment(3);
  registry.GetCounter("calls", {{"outcome", "timeout"}})->Increment();
  registry.GetGauge("depth")->Set(2.0);
  const std::string text = ExportPrometheus(registry.TakeSnapshot());
  // One TYPE header covering both members of the `calls` family.
  size_t first = text.find("# TYPE calls counter");
  ASSERT_NE(first, std::string::npos) << text;
  EXPECT_EQ(text.find("# TYPE calls counter", first + 1), std::string::npos)
      << text;
  EXPECT_NE(text.find("calls{outcome=\"ok\"} 3"), std::string::npos) << text;
  EXPECT_NE(text.find("calls{outcome=\"timeout\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE depth gauge"), std::string::npos) << text;
}

TEST(ExportTest, JsonExportPassesTheLinter) {
  MetricRegistry registry;
  registry.GetCounter("c", {{"k", "v with \"quotes\" and \\slashes\\"}})
      ->Increment();
  registry.GetGauge("g")->Set(1.5);
  registry.GetHistogram("h", {1.0})->Observe(2.0);
  const std::string json = ExportJson(registry.TakeSnapshot());
  EXPECT_EQ(JsonLintError(json), "") << json;
}

TEST(ExportTest, LinterRejectsMalformedDocuments) {
  EXPECT_EQ(JsonLintError("{\"a\":1}"), "");
  EXPECT_EQ(JsonLintError("[1,2,3]"), "");
  EXPECT_NE(JsonLintError("{"), "");
  EXPECT_NE(JsonLintError("{\"a\":}"), "");
  EXPECT_NE(JsonLintError("{\"a\":1,}"), "");
  EXPECT_NE(JsonLintError("[1 2]"), "");
  EXPECT_NE(JsonLintError("{\"a\":1} trailing"), "");
  EXPECT_NE(JsonLintError("\"unterminated"), "");
}

TEST(ExportTest, ResetZeroesValuesButKeepsFamilies) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("n");
  c->Increment(7);
  registry.Reset();
  EXPECT_EQ(c->value(), 0);
  const Snapshot snapshot = registry.TakeSnapshot();
  ASSERT_EQ(snapshot.entries.size(), 1u);
  EXPECT_EQ(snapshot.entries[0].counter_value, 0);
}

TEST(ExportTest, SnapshotOrderIsDeterministic) {
  MetricRegistry registry;
  registry.GetCounter("z_metric");
  registry.GetCounter("a_metric", {{"m", "2"}});
  registry.GetCounter("a_metric", {{"m", "1"}});
  const Snapshot snapshot = registry.TakeSnapshot();
  ASSERT_EQ(snapshot.entries.size(), 3u);
  EXPECT_EQ(snapshot.entries[0].name, "a_metric");
  EXPECT_EQ(snapshot.entries[0].labels[0].second, "1");
  EXPECT_EQ(snapshot.entries[1].labels[0].second, "2");
  EXPECT_EQ(snapshot.entries[2].name, "z_metric");
}

// Spans are plain counters: every CountSpan call, nested or repeated,
// adds exactly one to its `vaq_span_total` series, and no other span
// family (a wall-time histogram, say) is ever registered beside it.
TEST(CountSpanTest, EveryEntryAddsOneAndNoTimeFamilyAppears) {
  MetricRegistry& registry = MetricRegistry::Global();
  Counter* outer =
      registry.GetCounter("vaq_span_total", {{"span", "count_test/outer"}});
  Counter* inner =
      registry.GetCounter("vaq_span_total", {{"span", "count_test/inner"}});
  const int64_t outer_before = outer->value();
  const int64_t inner_before = inner->value();
  {
    CountSpan("count_test/outer");
    for (int i = 0; i < 3; ++i) CountSpan("count_test/inner");
  }
  CountSpan("count_test/outer");
  EXPECT_EQ(outer->value(), outer_before + 2);
  EXPECT_EQ(inner->value(), inner_before + 3);
  for (const Snapshot::Entry& entry : registry.TakeSnapshot().entries) {
    if (entry.name.rfind("vaq_span", 0) == 0) {
      EXPECT_EQ(entry.name, "vaq_span_total");
    }
  }
}

bool Registered(const std::string& name, const std::string& value) {
  for (const Snapshot::Entry& entry :
       MetricRegistry::Global().TakeSnapshot().entries) {
    if (entry.name != name) continue;
    for (const auto& label : entry.labels) {
      if (label.second == value) return true;
    }
  }
  return false;
}

// A slot registers its series at the first Get, resolves to the very
// counter GetCounter returns (fixed labels included), and answers later
// Gets without a registry lookup.
TEST(CounterSlotsTest, ResolvesOnceAtFirstUse) {
  static CounterSlots slots("slots_test_total", "op", "side", "left");
  MetricRegistry& registry = MetricRegistry::Global();
  EXPECT_FALSE(Registered("slots_test_total", "first"));
  Counter* first = slots.Get("first");
  EXPECT_TRUE(Registered("slots_test_total", "first"));
  EXPECT_EQ(first, registry.GetCounter("slots_test_total",
                                       {{"side", "left"}, {"op", "first"}}));
  const int64_t before = registry.lookups_for_testing();
  for (int i = 0; i < 5; ++i) slots.Get("first")->Increment();
  EXPECT_EQ(registry.lookups_for_testing(), before);
  EXPECT_EQ(first->value(), 5);
}

// More values than slots still count into the right series: the
// overflow falls back to a registry lookup per call.
TEST(CounterSlotsTest, OverflowFallsBackToLookups) {
  static CounterSlots slots("slots_overflow_total", "v");
  static const char* const kValues[] = {
      "v00", "v01", "v02", "v03", "v04", "v05", "v06", "v07", "v08",
      "v09", "v10", "v11", "v12", "v13", "v14", "v15", "v16", "v17",
      "v18", "v19", "v20", "v21", "v22", "v23", "v24", "v25", "v26",
      "v27", "v28", "v29", "v30", "v31", "v32", "v33", "v34", "v35"};
  for (int round = 0; round < 3; ++round) {
    for (const char* value : kValues) slots.Get(value)->Increment();
  }
  for (const char* value : kValues) {
    EXPECT_EQ(MetricRegistry::Global()
                  .GetCounter("slots_overflow_total", {{"v", value}})
                  ->value(),
              3)
        << value;
  }
}

// Threads racing on first use all land on the same series: no count is
// lost and each value's series exists once.
TEST(CounterSlotsTest, ConcurrentFirstUseCountsExactly) {
  static CounterSlots slots("slots_race_total", "v");
  static const char* const kValues[] = {"a", "b", "c", "d"};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 1000; ++i) slots.Get(kValues[i % 4])->Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const char* value : kValues) {
    EXPECT_EQ(MetricRegistry::Global()
                  .GetCounter("slots_race_total", {{"v", value}})
                  ->value(),
              2000)
        << value;
  }
}

}  // namespace
}  // namespace obs
}  // namespace vaq
