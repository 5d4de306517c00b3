// End-to-end acceptance for per-query observability: EXPLAIN ANALYZE
// profiles are byte-identical across repeated seeded runs, the serve
// layer's per-query traces and Chrome export are byte-identical at any
// thread count, the cluster coordinator's scatter–gather trace is
// repeat-identical per shard count, per-query model-call attribution
// reconciles exactly with the process-wide vaq_model_calls_total
// counter, and vaq_query_latency_ms percentiles are exported from both
// the serve and cluster paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "detect/models.h"
#include "fault/fault_plan.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"
#include "offline/ingest.h"
#include "offline/repository.h"
#include "offline/scoring.h"
#include "query/session.h"
#include "serve/server.h"
#include "tools/pipeline_setup.h"

namespace vaq {
namespace {

constexpr uint64_t kSeed = 7;
constexpr int kStreams = 4;
constexpr int kQueries = 24;

storage::VideoIndex IngestDemoVideo(int index) {
  synth::Scenario scenario = tools::DemoScenario(index);
  detect::ModelBundle models = detect::ModelBundle::MaskRcnnI3d(
      scenario.truth(), kSeed + static_cast<uint64_t>(index));
  offline::PaperScoring scoring;
  offline::Ingestor ingestor(&scenario.vocab(), &scoring,
                             offline::IngestOptions{});
  auto result = ingestor.Ingest(scenario.truth(), models);
  VAQ_CHECK_OK(result.status());
  return std::move(*result);
}

// --- EXPLAIN ANALYZE -----------------------------------------------------

TEST(ExplainAnalyze, OnlineProfileIsRepeatIdentical) {
  query::Session session;
  session.RegisterStream("demoStream", tools::DemoScenario(0), kSeed);
  const std::string sql =
      "EXPLAIN ANALYZE SELECT MERGE(clipID) AS Sequence "
      "FROM (PROCESS demoStream PRODUCE clipID, obj USING ObjectDetector, "
      "act USING ActionRecognizer) "
      "WHERE act='running' AND obj.include('dog')";
  auto first = session.Execute(sql);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first->online);
  ASSERT_FALSE(first->profile_text.empty());
  EXPECT_EQ(first->profile_text.rfind("explain  self=", 0), 0u)
      << first->profile_text;
  EXPECT_NE(first->profile_text.find("online"), std::string::npos);
  EXPECT_NE(first->profile_text.find("detector_inferences="),
            std::string::npos)
      << first->profile_text;
  // Deterministic: a second execution renders the same bytes.
  auto second = session.Execute(sql);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first->profile_text, second->profile_text);
  // The plain statement executes identically but carries no profile.
  auto plain = session.Execute(sql.substr(std::string("EXPLAIN ANALYZE ").size()));
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_TRUE(plain->profile_text.empty());
  EXPECT_EQ(plain->sequences.ToString(), first->sequences.ToString());
}

TEST(ExplainAnalyze, RankedProfileIsRepeatIdentical) {
  query::Session session;
  session.RegisterRepository("demoRepo", IngestDemoVideo(0));
  const std::string sql =
      "EXPLAIN ANALYZE SELECT MERGE(clipID) AS Sequence, RANK(act, obj) "
      "FROM (PROCESS demoRepo PRODUCE clipID, obj USING ObjectTracker, "
      "act USING ActionRecognizer) "
      "WHERE act='running' AND obj.include('dog') "
      "ORDER BY RANK(act, obj) LIMIT 3";
  auto first = session.Execute(sql);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->online);
  ASSERT_FALSE(first->profile_text.empty());
  EXPECT_NE(first->profile_text.find("ranked"), std::string::npos);
  EXPECT_NE(first->profile_text.find("seeks="), std::string::npos)
      << first->profile_text;
  auto second = session.Execute(sql);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first->profile_text, second->profile_text);
}

// --- Serve: thread-count invariance and latency export -------------------

struct ServeTraceRun {
  std::string profiles;     // Per-query profile trees, id order.
  std::string chrome_json;  // Session trace + query traces.
  int64_t model_call_registry_delta = 0;
  int64_t model_call_trace_sum = 0;
  double latency_p50 = 0.0;
  double latency_p999 = 0.0;
};

int64_t SumModelCallCounter() {
  int64_t sum = 0;
  for (const obs::Snapshot::Entry& entry :
       obs::MetricRegistry::Global().TakeSnapshot().entries) {
    if (entry.name == "vaq_model_calls_total") sum += entry.counter_value;
  }
  return sum;
}

ServeTraceRun RunServeTraced(int threads) {
  obs::MetricRegistry::Global().Reset();
  const fault::FaultPlan plan(tools::DemoFaultSpec(), kSeed);
  serve::ServeOptions options;
  options.threads = threads;
  options.queue_capacity = kQueries;
  options.share_detection_cache = true;
  options.fault_plan = &plan;
  options.trace_queries = true;
  serve::Server server(options);
  VAQ_CHECK_OK(tools::RegisterDemoSources(&server, kStreams,
                                          /*with_repository=*/true, kSeed));
  const int64_t calls_before = SumModelCallCounter();
  for (const std::string& sql :
       tools::DemoWorkload(kStreams, kQueries, /*with_repository=*/true)) {
    VAQ_CHECK_OK(server.Submit(sql).status());
  }
  const std::vector<serve::ServedQuery> results = server.Drain();

  ServeTraceRun run;
  run.model_call_registry_delta = SumModelCallCounter() - calls_before;
  std::vector<const obs::QueryTrace*> traces;
  if (server.session_trace() != nullptr) {
    traces.push_back(server.session_trace());
  }
  for (const serve::ServedQuery& q : results) {  // Drain sorts by id.
    EXPECT_NE(q.trace, nullptr) << "query " << q.id << " lost its trace";
    if (q.trace == nullptr) continue;
    traces.push_back(q.trace.get());
    run.profiles += q.trace->RenderProfile();
    for (const obs::QueryTrace::Node& node : q.trace->snapshot()) {
      for (const auto& [key, value] : node.stats) {
        if (key.rfind("model_calls_", 0) == 0) {
          run.model_call_trace_sum += value;
        }
      }
    }
  }
  run.chrome_json = obs::ExportChromeTrace(traces);
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  run.latency_p50 =
      registry
          .GetGauge("vaq_query_latency_ms",
                    {{"path", "serve"}, {"quantile", "0.5"}})
          ->value();
  run.latency_p999 =
      registry
          .GetGauge("vaq_query_latency_ms",
                    {{"path", "serve"}, {"quantile", "0.999"}})
          ->value();
  return run;
}

TEST(ServeTrace, ProfilesAndChromeExportByteIdenticalAcrossThreadCounts) {
  const ServeTraceRun inline_run = RunServeTraced(/*threads=*/0);
  const ServeTraceRun pooled_run = RunServeTraced(/*threads=*/8);
  ASSERT_FALSE(inline_run.profiles.empty());
  EXPECT_NE(inline_run.profiles.find("execute"), std::string::npos);
  EXPECT_EQ(inline_run.profiles, pooled_run.profiles);
  EXPECT_EQ(obs::JsonLintError(inline_run.chrome_json), "");
  EXPECT_EQ(inline_run.chrome_json, pooled_run.chrome_json);
  // The latency gauges are a pure function of the per-query sample
  // multiset, so they match across thread counts too. With the shared
  // detection cache on, most queries cost 0 simulated ms (cache hits),
  // so p50 is legitimately 0 — the tail percentile carries the signal.
  EXPECT_GT(inline_run.latency_p999, 0.0);
  EXPECT_GE(inline_run.latency_p999, inline_run.latency_p50);
  EXPECT_DOUBLE_EQ(inline_run.latency_p50, pooled_run.latency_p50);
  EXPECT_DOUBLE_EQ(inline_run.latency_p999, pooled_run.latency_p999);
}

TEST(ServeTrace, PerQueryModelCallsReconcileWithTheRegistry) {
  const ServeTraceRun run = RunServeTraced(/*threads=*/0);
  EXPECT_GT(run.model_call_trace_sum, 0);
  EXPECT_EQ(run.model_call_trace_sum, run.model_call_registry_delta);
}

// --- Cluster: repeat identity per shard count and latency export ---------

const offline::Repository& ClusterRepository() {
  static const offline::Repository* const repo = [] {
    auto* r = new offline::Repository();
    for (int i = 0; i < 2; ++i) {
      r->Add("vid" + std::to_string(i), IngestDemoVideo(i));
    }
    return r;
  }();
  return *repo;
}

struct ClusterTraceRun {
  std::string profile;
  std::string chrome_json;
  double latency_p99 = 0.0;
};

ClusterTraceRun RunClusterTraced(int shards) {
  obs::MetricRegistry::Global().Reset();
  offline::PaperScoring scoring;
  offline::RvaqOptions rvaq;
  rvaq.k = 3;
  cluster::ClusterOptions options;
  options.num_shards = shards;
  cluster::Coordinator coordinator(&ClusterRepository(), options);
  obs::QueryTrace trace("cluster_q");
  auto result = coordinator.TopK("running", {"dog"}, scoring, rvaq,
                                 obs::QueryContext{&trace, 0});
  VAQ_CHECK_OK(result.status());
  ClusterTraceRun run;
  run.profile = trace.RenderProfile();
  run.chrome_json = obs::ExportChromeTrace({&trace});
  run.latency_p99 = obs::MetricRegistry::Global()
                        .GetGauge("vaq_query_latency_ms",
                                  {{"path", "cluster"}, {"quantile", "0.99"}})
                        ->value();
  return run;
}

TEST(ClusterTrace, ProfileRepeatIdenticalPerShardCount) {
  for (const int shards : {1, 8}) {
    const ClusterTraceRun first = RunClusterTraced(shards);
    const ClusterTraceRun second = RunClusterTraced(shards);
    ASSERT_FALSE(first.profile.empty());
    EXPECT_NE(first.profile.find("scatter_gather"), std::string::npos)
        << first.profile;
    EXPECT_NE(first.profile.find("shard0"), std::string::npos)
        << first.profile;
    EXPECT_EQ(first.profile, second.profile) << "shards=" << shards;
    EXPECT_EQ(obs::JsonLintError(first.chrome_json), "");
    EXPECT_EQ(first.chrome_json, second.chrome_json) << "shards=" << shards;
    EXPECT_GT(first.latency_p99, 0.0) << "shards=" << shards;
  }
}

}  // namespace
}  // namespace vaq
