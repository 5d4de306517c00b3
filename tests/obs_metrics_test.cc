// MetricRegistry semantics: labeled families, concurrent counter updates,
// histogram bucket boundaries, the two exporters (Prometheus text and
// JSON, including the built-in JSON linter) and the CountSpan counters.
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

}  // namespace
}  // namespace obs
}  // namespace vaq
