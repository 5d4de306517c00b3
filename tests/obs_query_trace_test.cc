// Per-query trace plumbing (obs/query_trace.h): tree shape and phase
// folding, cross-thread parenting through QueryContext, the rendered
// profile format, Chrome trace export against the JSON linter,
// nearest-rank percentiles, the LatencyRecorder's gauge mirror, the
// promlint-style exporter self-check and the rate-limited log
// suppression counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"

namespace vaq {
namespace obs {
namespace {

TEST(QueryTraceTest, ChildGetOrCreateFoldsRepeatedPhases) {
  QueryTrace trace("q1");
  const int a = trace.Child(0, "advance");
  EXPECT_EQ(trace.Child(0, "advance"), a);
  trace.AddMs(a, 1.5);
  trace.AddMs(a, 2.5);
  trace.AddStat(a, "clips", 1);
  trace.AddStat(a, "clips", 1);
  const std::vector<QueryTrace::Node> nodes = trace.snapshot();
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_DOUBLE_EQ(nodes[a].self_ms, 4.0);
  EXPECT_EQ(nodes[a].stats.at("clips"), 2);
  EXPECT_EQ(nodes[a].parent, 0);
  ASSERT_EQ(nodes[0].children.size(), 1u);
  EXPECT_EQ(nodes[0].children[0], a);
}

TEST(QueryTraceTest, RenderProfileIsDeterministicAndSelfDescribing) {
  QueryTrace trace("q1");
  const int online = trace.Child(0, "online");
  trace.AddMs(online, 12.34);
  trace.AddStat(online, "rows", 120);
  trace.AddStat(online, "seeks", 4);
  const int scan = trace.Child(online, "scan");
  trace.AddMs(scan, 1.0);
  EXPECT_EQ(trace.RenderProfile(),
            "q1  self=0.000ms total=13.340ms\n"
            "  online  self=12.340ms total=13.340ms rows=120 seeks=4\n"
            "    scan  self=1.000ms total=1.000ms\n");
  // Byte-identical on re-render: stats are sorted maps, children keep
  // creation order.
  EXPECT_EQ(trace.RenderProfile(), trace.RenderProfile());
}

TEST(QueryTraceTest, InactiveContextIsANoOp) {
  const QueryContext none;
  EXPECT_FALSE(none.active());
  const QueryContext child = none.Child("phase");
  EXPECT_FALSE(child.active());
  child.AddMs(5.0);           // Must not crash.
  child.AddStat("rows", 10);  // Must not crash.
}

TEST(QueryTraceTest, ScopedContextInstallsAndRestores) {
  QueryTrace trace("q1");
  EXPECT_FALSE(CurrentQueryContext().active());
  {
    ScopedQueryContext scoped(QueryContext{&trace, 0});
    EXPECT_TRUE(CurrentQueryContext().active());
    EXPECT_EQ(CurrentQueryContext().trace, &trace);
    {
      ScopedQueryContext inner(CurrentQueryContext().Child("inner"));
      EXPECT_EQ(CurrentQueryContext().node, trace.Child(0, "inner"));
    }
    EXPECT_EQ(CurrentQueryContext().node, 0);
  }
  EXPECT_FALSE(CurrentQueryContext().active());
}

// The cross-thread contract the serve layer relies on: the submitting
// thread mints one context per shard, workers grow disjoint subtrees
// under them, and the rendered profile is identical however the shards
// are scheduled onto threads.
TEST(QueryTraceTest, DisjointSubtreesRenderIdenticallyAcrossThreadCounts) {
  constexpr int kShards = 4;
  const auto run = [](int workers) {
    QueryTrace trace("q0");
    const QueryContext root{&trace, 0};
    std::vector<QueryContext> shard_ctx;
    for (int s = 0; s < kShards; ++s) {
      shard_ctx.push_back(root.Child("shard" + std::to_string(s)));
    }
    const auto work = [&shard_ctx](int s) {
      ScopedQueryContext scoped(shard_ctx[s]);
      const QueryContext& cur = CurrentQueryContext();
      cur.AddMs(1.5 * (s + 1));
      cur.Child("scan").AddStat("rows", 10 * (s + 1));
      cur.Child("scan").AddMs(0.5);
    };
    if (workers == 0) {
      for (int s = 0; s < kShards; ++s) work(s);
    } else {
      std::vector<std::thread> pool;
      for (int t = 0; t < workers; ++t) {
        pool.emplace_back([&work, t, workers] {
          for (int s = t; s < kShards; s += workers) work(s);
        });
      }
      for (std::thread& t : pool) t.join();
    }
    return trace.RenderProfile();
  };
  const std::string inline_profile = run(0);
  EXPECT_EQ(inline_profile, run(8));
  EXPECT_NE(inline_profile.find("shard3  self=6.000ms"), std::string::npos);
}

// Cross-thread span parenting, the contract the serve worker pool is
// built on: the submitting thread mints the parent span (the query's
// root node), workers install per-shard child contexts with
// ScopedQueryContext and grow grandchildren under them. The resulting
// tree parents every worker-side node under the submitter's root, and
// the rendered profile is byte-identical whether the children run
// inline (threads=0) or on an 8-thread pool.
TEST(QueryContextParentingTest, ParentInSubmitterChildrenInWorkers) {
  constexpr int kChildren = 8;
  const auto run = [](int threads) {
    auto trace = std::make_unique<QueryTrace>("q1");
    const QueryContext root{trace.get(), 0};
    // Minted on the submitting thread, in deterministic order.
    std::vector<QueryContext> children;
    for (int c = 0; c < kChildren; ++c) {
      children.push_back(root.Child("worker" + std::to_string(c)));
    }
    const auto work = [&children](int c) {
      ScopedQueryContext scoped(children[c]);
      CurrentQueryContext().AddMs(0.25 * (c + 1));
      CurrentQueryContext().Child("model").AddStat("calls", c + 1);
    };
    if (threads == 0) {
      for (int c = 0; c < kChildren; ++c) work(c);
    } else {
      std::vector<std::thread> pool;
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&work, t, threads] {
          for (int c = t; c < kChildren; c += threads) work(c);
        });
      }
      for (std::thread& t : pool) t.join();
    }
    return trace;
  };

  const std::unique_ptr<QueryTrace> inline_trace = run(0);
  const std::unique_ptr<QueryTrace> pooled_trace = run(8);
  EXPECT_EQ(inline_trace->RenderProfile(), pooled_trace->RenderProfile());

  // Every worker-side node is parented under the submitter's root.
  const std::vector<QueryTrace::Node> nodes = pooled_trace->snapshot();
  ASSERT_EQ(nodes.size(), 1u + 2u * kChildren);
  ASSERT_EQ(nodes[0].children.size(), static_cast<size_t>(kChildren));
  for (int c = 0; c < kChildren; ++c) {
    const QueryTrace::Node& child = nodes[nodes[0].children[c]];
    EXPECT_EQ(child.name, "worker" + std::to_string(c));
    EXPECT_EQ(child.parent, 0);
    ASSERT_EQ(child.children.size(), 1u);
    const QueryTrace::Node& grandchild = nodes[child.children[0]];
    EXPECT_EQ(grandchild.name, "model");
    EXPECT_EQ(grandchild.stats.at("calls"), c + 1);
  }
}

TEST(ChromeTraceTest, ExportPassesJsonLintAndLaysOutTheTimeline) {
  QueryTrace trace("q7");
  const int a = trace.Child(0, "execute");
  trace.AddMs(a, 2.0);
  trace.AddStat(a, "seeks", 3);
  const int b = trace.Child(a, "scan");
  trace.AddMs(b, 1.0);
  const std::string json = ExportChromeTrace({&trace});
  EXPECT_EQ(JsonLintError(json), "") << json;
  EXPECT_NE(json.find("\"name\":\"q7\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // "scan" starts after "execute"'s self time: ts = 2ms = 2000us.
  EXPECT_NE(json.find("\"name\":\"scan\",\"ph\":\"X\",\"ts\":2000.000"),
            std::string::npos);
  EXPECT_NE(json.find("\"seeks\":3"), std::string::npos);
  // Byte-identical across exports, and null traces are skipped.
  EXPECT_EQ(json, ExportChromeTrace({&trace}));
  EXPECT_EQ(JsonLintError(ExportChromeTrace({nullptr})), "");
}

TEST(PercentileTest, NearestRankEdgeCases) {
  EXPECT_DOUBLE_EQ(PercentileNearestRank({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank({42.0}, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank({42.0}, 0.999), 42.0);
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(samples, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(samples, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(samples, 0.999), 100.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(samples, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(samples, 1.0), 100.0);
}

TEST(LatencyRecorderTest, PublishesExactPercentileGauges) {
  MetricRegistry& registry = MetricRegistry::Global();
  LatencyRecorder recorder("vaq_test_latency_ms", "unit");
  // Insert out of order: the recorder keeps its samples sorted.
  for (int i = 100; i >= 1; --i) recorder.Record(i);
  EXPECT_EQ(recorder.count(), 100);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("vaq_test_latency_ms",
                        {{"path", "unit"}, {"quantile", "0.5"}})
          ->value(),
      50.0);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("vaq_test_latency_ms",
                        {{"path", "unit"}, {"quantile", "0.99"}})
          ->value(),
      99.0);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("vaq_test_latency_ms",
                        {{"path", "unit"}, {"quantile", "0.999"}})
          ->value(),
      100.0);
  const std::vector<double> sorted = recorder.sorted_samples();
  ASSERT_EQ(sorted.size(), 100u);
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
}

TEST(PromLintTest, AcceptsTheExportersOwnOutput) {
  MetricRegistry& registry = MetricRegistry::Global();
  registry.GetCounter("vaq_promlint_total", {{"path", "unit"}})->Increment();
  registry.GetGauge("vaq_promlint_gauge", {})->Set(1.5);
  registry
      .GetHistogram("vaq_promlint_ms", DefaultLatencyBucketsMs(), {})
      ->Observe(3.0);
  const std::string text = ExportPrometheus(registry.TakeSnapshot());
  EXPECT_EQ(PromLintError(text), "") << text;
}

TEST(PromLintTest, RejectsMalformedText) {
  // Missing trailing newline.
  EXPECT_NE(PromLintError("# TYPE vaq_x counter\nvaq_x 1"), "");
  // Sample for an undeclared family.
  EXPECT_NE(PromLintError("vaq_x 1\n"), "");
  // Unknown metric kind.
  EXPECT_NE(PromLintError("# TYPE vaq_x sometype\nvaq_x 1\n"), "");
  // Label name starting with a digit.
  EXPECT_NE(
      PromLintError("# TYPE vaq_x counter\nvaq_x{9bad=\"v\"} 1\n"), "");
  // Diagnostics carry a line number.
  EXPECT_EQ(PromLintError("vaq_x 1\n").rfind("line 1:", 0), 0u);
}

TEST(LogSuppressionTest, SuppressedWarningsSurfaceAsACounter) {
  // Touch the registry first so the suppression listener is installed.
  Counter* suppressed =
      MetricRegistry::Global().GetCounter("vaq_log_suppressed_total", {});
  // Swallow the one emitted line; the other 49 occurrences at this call
  // site are suppressed and must each tick the counter.
  internal_logging::SetLogSink([](const std::string&) {});
  const int64_t before = suppressed->value();
  for (int i = 0; i < 50; ++i) {
    VAQ_LOG_RATELIMITED(Warning, 1000) << "unit-test suppression probe";
  }
  internal_logging::SetLogSink(nullptr);
  EXPECT_EQ(suppressed->value(), before + 49);
}

}  // namespace
}  // namespace obs
}  // namespace vaq
