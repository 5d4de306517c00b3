// Determinism of the serving runtime: for a fixed seed and workload the
// merged results and the logical metric families must be byte-identical
// no matter how many worker threads execute the queries. This is the
// load-bearing property of the per-stream sharding design (see
// src/serve/server.h and DESIGN.md §9), and the test that the VAQ_TSAN
// configuration replays under ThreadSanitizer.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "tools/pipeline_setup.h"

namespace vaq {
namespace serve {
namespace {

constexpr int kStreams = 3;
constexpr int kQueries = 18;
constexpr uint64_t kSeed = 7;

struct RunOutput {
  std::vector<std::string> described;
  std::string logical_metrics;
  std::string detector_stats;
  std::string recognizer_stats;
  std::string accesses;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t cache_bundles_created = 0;
  int64_t cache_bundle_reuses = 0;
};

// One full serving run: fleet + repository, fault injection on, mixed
// conjunctive / CNF / ranked workload, shared detection cache.
RunOutput RunWorkload(int threads) {
  obs::MetricRegistry::Global().Reset();
  const fault::FaultPlan plan(tools::DemoFaultSpec(), kSeed);
  ServeOptions options;
  options.threads = threads;
  options.queue_capacity = kQueries;
  options.share_detection_cache = true;
  options.fault_plan = &plan;
  Server server(options);
  EXPECT_TRUE(tools::RegisterDemoSources(&server, kStreams,
                                         /*with_repository=*/true, kSeed)
                  .ok());
  for (const std::string& sql :
       tools::DemoWorkload(kStreams, kQueries, /*with_repository=*/true)) {
    EXPECT_TRUE(server.Submit(sql).ok()) << sql;
  }
  const std::vector<ServedQuery> results = server.Drain();
  RunOutput out;
  for (const ServedQuery& q : results) {
    out.described.push_back(DescribeServedQuery(q));
  }
  out.logical_metrics = obs::ExportPrometheus(
      obs::FilterSnapshot(obs::MetricRegistry::Global().TakeSnapshot(),
                          LogicalMetricPrefixes()));
  const ServeStats stats = server.stats();
  out.detector_stats = stats.detector_stats.ToString();
  out.recognizer_stats = stats.recognizer_stats.ToString();
  out.accesses = stats.accesses.ToString();
  out.completed = stats.completed;
  out.failed = stats.failed;
  out.cache_bundles_created = stats.cache_bundles_created;
  out.cache_bundle_reuses = stats.cache_bundle_reuses;
  return out;
}

void ExpectIdentical(const RunOutput& a, const RunOutput& b) {
  ASSERT_EQ(a.described.size(), b.described.size());
  for (size_t i = 0; i < a.described.size(); ++i) {
    EXPECT_EQ(a.described[i], b.described[i]) << "query " << i;
  }
  EXPECT_EQ(a.logical_metrics, b.logical_metrics);
  EXPECT_EQ(a.detector_stats, b.detector_stats);
  EXPECT_EQ(a.recognizer_stats, b.recognizer_stats);
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.cache_bundles_created, b.cache_bundles_created);
  EXPECT_EQ(a.cache_bundle_reuses, b.cache_bundle_reuses);
}

TEST(ServeDeterminismTest, OneThreadAndEightThreadsAgreeByteForByte) {
  const RunOutput one = RunWorkload(1);
  const RunOutput eight = RunWorkload(8);
  ASSERT_EQ(one.described.size(), static_cast<size_t>(kQueries));
  EXPECT_EQ(one.completed, kQueries);
  EXPECT_EQ(one.failed, 0);
  ExpectIdentical(one, eight);
}

TEST(ServeDeterminismTest, InlineDrainMatchesWorkerPool) {
  const RunOutput inline_run = RunWorkload(0);
  const RunOutput pooled = RunWorkload(4);
  ExpectIdentical(inline_run, pooled);
}

TEST(ServeDeterminismTest, RepeatedRunsAreIdentical) {
  const RunOutput first = RunWorkload(8);
  const RunOutput second = RunWorkload(8);
  ExpectIdentical(first, second);
}

TEST(ServeDeterminismTest, LogicalMetricsArePopulated) {
  const RunOutput run = RunWorkload(4);
  EXPECT_NE(run.logical_metrics.find("vaq_serve_queries_total"),
            std::string::npos);
  EXPECT_NE(run.logical_metrics.find("vaq_serve_cache_hits_total"),
            std::string::npos);
  EXPECT_NE(run.logical_metrics.find("vaq_serve_query_simulated_ms"),
            std::string::npos);
  // Timing-dependent families must be filtered out.
  EXPECT_EQ(run.logical_metrics.find("vaq_serve_queue_depth"),
            std::string::npos);
}

}  // namespace
}  // namespace serve
}  // namespace vaq
