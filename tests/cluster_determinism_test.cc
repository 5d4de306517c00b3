// Cluster acceptance suite: for ANY shard count, partition scheme and
// replica count, scatter–gather ranked results and every logical vaq_*
// metric are byte-identical to the single-node reference; node kills
// (staged or fault-plan-driven) fail over to replicas with identical
// final results; and the standing-query cluster with WAL shipping
// matches a single server clip for clip, through failover and shipping
// lag.
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cascade/planner.h"
#include "cascade/proxy_index.h"
#include "cluster/coordinator.h"
#include "cluster/standing.h"
#include "detect/models.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "offline/ingest.h"
#include "offline/repository.h"
#include "offline/scoring.h"
#include "serve/server.h"
#include "tools/pipeline_setup.h"

namespace vaq {
namespace cluster {
namespace {

constexpr int kVideos = 6;
constexpr uint64_t kSeed = 4242;
constexpr int64_t kK = 5;
constexpr int kStreams = 4;
constexpr int kStandingQueries = 6;
constexpr int kStandingAdvances = 120;  // 30 clips per stream.

const offline::Repository& DemoRepository() {
  static const offline::Repository* const repo = [] {
    auto* r = new offline::Repository();
    offline::PaperScoring scoring;
    for (int i = 0; i < kVideos; ++i) {
      synth::Scenario scenario = tools::DemoScenario(i);
      detect::ModelBundle models = detect::ModelBundle::MaskRcnnI3d(
          scenario.truth(), kSeed + static_cast<uint64_t>(i));
      offline::Ingestor ingestor(&scenario.vocab(), &scoring,
                                 offline::IngestOptions{});
      auto index = ingestor.Ingest(scenario.truth(), models);
      EXPECT_TRUE(index.ok()) << index.status().message();
      r->Add("vid" + std::to_string(i), std::move(*index));
    }
    return r;
  }();
  return *repo;
}

std::string Fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

// Byte-faithful rendering of a merged top list.
std::string DescribeTop(
    const std::vector<offline::RepositoryRankedSequence>& top) {
  std::ostringstream os;
  for (const offline::RepositoryRankedSequence& entry : top) {
    os << entry.video << " " << entry.sequence.clips.ToString()
       << " lb=" << Fmt(entry.sequence.lower_bound)
       << " ub=" << Fmt(entry.sequence.upper_bound)
       << " exact=" << entry.sequence.has_exact << "/"
       << Fmt(entry.sequence.has_exact ? entry.sequence.exact_score : 0.0)
       << "\n";
  }
  return os.str();
}

struct RankedOutput {
  std::string top;
  std::string accesses;
  int64_t videos_queried = 0;
  int64_t videos_skipped = 0;
  int64_t candidate_sequences = 0;
  std::string logical_metrics;  // Everything but vaq_cluster_*.
};

// The single-node reference for the demo query. A non-null `prefilter`
// applies a planned cascade's surviving-clip sets (the cluster run under
// comparison must use the same one).
RankedOutput SingleNodeReference(
    int64_t k = kK, const offline::ClipFilterProvider* prefilter = nullptr) {
  DemoRepository();  // Ingest before the reset: only query metrics count.
  obs::MetricRegistry::Global().Reset();
  offline::PaperScoring scoring;
  offline::RvaqOptions options;
  options.k = k;
  options.prefilter = prefilter;
  auto result = DemoRepository().TopK("running", {"dog"}, scoring, options);
  EXPECT_TRUE(result.ok()) << result.status().message();
  RankedOutput out;
  out.top = DescribeTop(result->top);
  out.accesses = result->accesses.ToString();
  out.videos_queried = result->videos_queried;
  out.videos_skipped = result->videos_skipped;
  out.candidate_sequences = result->candidate_sequences;
  // vaq_query_latency_ms{path="cluster"} exists only on the clustered
  // path (the single-node reference records none), and vaq_log_* feeds
  // off per-call-site static rate-limit counters that span runs within
  // this process — neither is part of the logical comparison surface.
  out.logical_metrics = obs::ExportPrometheus(obs::ExcludeSnapshot(
      obs::MetricRegistry::Global().TakeSnapshot(),
      {"vaq_cluster_", "vaq_query_latency_ms", "vaq_log_"}));
  return out;
}

struct ClusterRun {
  RankedOutput output;
  Status status = Status::OK();
  ClusterTopKResult result;
};

ClusterRun RunCluster(ClusterOptions options, int64_t k = kK,
                      const offline::ClipFilterProvider* prefilter = nullptr,
                      int64_t plan_wire_bytes = 0) {
  obs::MetricRegistry::Global().Reset();
  offline::PaperScoring scoring;
  offline::RvaqOptions rvaq;
  rvaq.k = k;
  rvaq.prefilter = prefilter;
  Coordinator coordinator(&DemoRepository(), options);
  auto result =
      coordinator.TopK("running", {"dog"}, scoring, rvaq, {}, plan_wire_bytes);
  ClusterRun run;
  run.status = result.status();
  if (result.ok()) {
    run.result = *result;
    run.output.top = DescribeTop(result->merged.top);
    run.output.accesses = result->merged.accesses.ToString();
    run.output.videos_queried = result->merged.videos_queried;
    run.output.videos_skipped = result->merged.videos_skipped;
    run.output.candidate_sequences = result->merged.candidate_sequences;
    run.output.logical_metrics = obs::ExportPrometheus(obs::ExcludeSnapshot(
        obs::MetricRegistry::Global().TakeSnapshot(),
        {"vaq_cluster_", "vaq_query_latency_ms", "vaq_log_"}));
  }
  return run;
}

void ExpectMatchesReference(const RankedOutput& got, const RankedOutput& ref,
                            const std::string& label,
                            bool compare_metrics = true) {
  EXPECT_EQ(got.top, ref.top) << label;
  EXPECT_EQ(got.accesses, ref.accesses) << label;
  EXPECT_EQ(got.videos_queried, ref.videos_queried) << label;
  EXPECT_EQ(got.videos_skipped, ref.videos_skipped) << label;
  EXPECT_EQ(got.candidate_sequences, ref.candidate_sequences) << label;
  if (compare_metrics) {
    EXPECT_EQ(got.logical_metrics, ref.logical_metrics) << label;
  }
}

TEST(ClusterRanked, ByteIdenticalAcrossLayouts) {
  const RankedOutput ref = SingleNodeReference();
  EXPECT_EQ(ref.videos_queried, kVideos);
  for (const int shards : {1, 2, 3, 4, 8}) {
    for (const PartitionScheme scheme :
         {PartitionScheme::kHash, PartitionScheme::kRange}) {
      for (const int replicas : {0, 1}) {
        ClusterOptions options;
        options.num_shards = shards;
        options.num_replicas = replicas;
        options.scheme = scheme;
        const ClusterRun run = RunCluster(options);
        const std::string label =
            std::string("shards=") + std::to_string(shards) +
            " scheme=" + PartitionSchemeName(scheme) +
            " replicas=" + std::to_string(replicas);
        ASSERT_TRUE(run.status.ok()) << label << ": "
                                     << run.status.message();
        ExpectMatchesReference(run.output, ref, label);
        EXPECT_EQ(run.result.failovers, 0) << label;
        EXPECT_GT(run.result.answer_ms, 0.0) << label;
      }
    }
  }
}

TEST(ClusterRanked, BoundPrunesGatherWithoutChangingResults) {
  const RankedOutput ref = SingleNodeReference();
  ClusterOptions options;
  options.num_shards = 4;
  options.batch_size = 1;  // Fine-grained stream: the bound has teeth.
  const ClusterRun run = RunCluster(options);
  ASSERT_TRUE(run.status.ok()) << run.status.message();
  ExpectMatchesReference(run.output, ref, "pruning");
  EXPECT_GT(run.result.batches_pruned, 0);
  EXPECT_LT(run.result.entries_consumed, run.result.entries_total);
}

TEST(ClusterRanked, StagedKillFailsOverToReplica) {
  // k covers every candidate and batch_size=1, so no batch can be
  // pruned: the coordinator must keep fetching from shard 1 after the
  // kill, which guarantees the outage is observed mid-query.
  constexpr int64_t kAllK = 64;
  const RankedOutput ref = SingleNodeReference(kAllK);
  // 0 kills the primary before the query even arrives; 5ms kills it
  // after the scan started (one modeled seek is 5ms) but before it can
  // serve every batch, so the replica finishes the stream.
  for (const double kill_at : {0.0, 5.0}) {
    ClusterOptions options;
    options.num_shards = 3;
    options.num_replicas = 1;
    options.batch_size = 1;
    options.kill_node = 1;
    options.kill_at_ms = kill_at;
    const ClusterRun run = RunCluster(options, kAllK);
    const std::string label = "kill_at=" + Fmt(kill_at);
    ASSERT_TRUE(run.status.ok()) << label << ": " << run.status.message();
    // Results are identical; logical metrics are not compared — the
    // replica honestly re-executes shard 1's scan, which double-counts
    // engine work (visible, documented, and results-invariant).
    ExpectMatchesReference(run.output, ref, label,
                           /*compare_metrics=*/false);
    EXPECT_GE(run.result.failovers, 1) << label;
  }
}

TEST(ClusterRanked, KillWithoutReplicaIsUnavailable) {
  ClusterOptions options;
  options.num_shards = 3;
  options.num_replicas = 0;
  options.kill_node = 1;
  const ClusterRun run = RunCluster(options);
  EXPECT_EQ(run.status.code(), StatusCode::kUnavailable);
}

TEST(ClusterRanked, AllReplicasDownIsDeterministicUnavailable) {
  // Every host serving shard 1 — the primary and both replicas — is
  // inside a scheduled outage window for the whole query. The gather
  // must end in the documented kUnavailable: deterministically (same
  // status and message on every run), without hanging (the event-count
  // watchdog would trip as kDeadlineExceeded, failing the test), and
  // without leaking a partial result through the StatusOr.
  constexpr int kShards = 3;
  constexpr int kReplicas = 2;
  fault::FaultSpec spec;
  for (const int host : {1, kShards + 1 * kReplicas + 0,
                         kShards + 1 * kReplicas + 1}) {
    fault::ScheduledWindow w;
    w.domain = fault::FaultDomain::kNode;
    w.key = host;
    w.from_ms = 0.0;
    w.to_ms = 1e9;
    spec.windows.push_back(w);
  }
  auto plan = fault::FaultPlan::Create(spec, 11);
  ASSERT_TRUE(plan.ok());
  ClusterOptions options;
  options.num_shards = kShards;
  options.num_replicas = kReplicas;
  options.fault_plan = &plan.value();
  options.max_steps = 100000;  // Hang -> kDeadlineExceeded, not a timeout.
  const ClusterRun first = RunCluster(options);
  const ClusterRun second = RunCluster(options);
  EXPECT_EQ(first.status.code(), StatusCode::kUnavailable)
      << first.status.ToString();
  EXPECT_EQ(first.status.ToString(), second.status.ToString());
  EXPECT_NE(first.status.ToString().find("shard 1"), std::string::npos)
      << first.status.ToString();
  // The failed runs exhausted both replicas before giving up.
  EXPECT_TRUE(first.output.top.empty());  // No partial result leaked.
}

TEST(ClusterRanked, HealthyClusterUnderWatchdogCompletes) {
  // The watchdog budget must be generous enough that a fault-free
  // gather never trips it (the chaos harness runs every cluster trial
  // under this budget).
  const RankedOutput ref = SingleNodeReference();
  ClusterOptions options;
  options.num_shards = 4;
  options.num_replicas = 1;
  options.max_steps = 200000;
  const ClusterRun run = RunCluster(options);
  ASSERT_TRUE(run.status.ok()) << run.status.message();
  ExpectMatchesReference(run.output, ref, "watchdog");
}

TEST(ClusterRanked, FaultPlanOutagesFailOverDeterministically) {
  const RankedOutput ref = SingleNodeReference();
  int64_t total_failovers = 0;
  int ok_runs = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    fault::FaultSpec spec;
    spec.node_outage_rate = 0.35;
    spec.node_outage_len_ms = 25;
    const fault::FaultPlan plan(spec, seed);
    ClusterOptions options;
    options.num_shards = 2;
    options.num_replicas = 2;
    options.fault_plan = &plan;
    const ClusterRun first = RunCluster(options);
    const ClusterRun second = RunCluster(options);
    EXPECT_EQ(first.status.code(), second.status.code()) << seed;
    if (!first.status.ok()) continue;  // Every replica down: acceptable.
    ++ok_runs;
    total_failovers += first.result.failovers;
    const std::string label = "outage seed=" + std::to_string(seed);
    ExpectMatchesReference(first.output, ref, label,
                           /*compare_metrics=*/false);
    // Determinism: the same plan replays the same schedule.
    EXPECT_EQ(first.result.failovers, second.result.failovers) << label;
    EXPECT_EQ(first.output.top, second.output.top) << label;
  }
  EXPECT_GT(ok_runs, 0);
  EXPECT_GT(total_failovers, 0);
}

TEST(ClusterRanked, NetworkFaultsNeverChangeResults) {
  const RankedOutput ref = SingleNodeReference();
  fault::FaultSpec spec;
  spec.net_drop_rate = 0.3;
  spec.net_dup_rate = 0.3;
  const fault::FaultPlan plan(spec, 7);
  ClusterOptions options;
  options.num_shards = 4;
  options.num_replicas = 1;
  options.fault_plan = &plan;
  const ClusterRun run = RunCluster(options);
  ASSERT_TRUE(run.status.ok()) << run.status.message();
  ExpectMatchesReference(run.output, ref, "net faults");
  EXPECT_GT(run.result.net.drops + run.result.net.duplicates_suppressed, 0);
}

// Every message gets a second copy, and outages keep failover timers
// pending: the queue then often holds only copies NextDelivery
// suppresses while a shard waits on its timer. The gather must treat an
// empty pop as "no message" and go back to the timers.
TEST(ClusterRanked, DuplicateOnlyQueueFallsBackToTheTimers) {
  const RankedOutput ref = SingleNodeReference();
  int ok_runs = 0;
  int64_t suppressed = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    fault::FaultSpec spec;
    spec.net_dup_rate = 1.0;
    spec.node_outage_rate = 0.35;
    spec.node_outage_len_ms = 25;
    const fault::FaultPlan plan(spec, seed);
    ClusterOptions options;
    options.num_shards = 2;
    options.num_replicas = 2;
    options.fault_plan = &plan;
    const ClusterRun run = RunCluster(options);
    const std::string label = "dup seed=" + std::to_string(seed);
    if (!run.status.ok()) {  // Every replica down: acceptable.
      EXPECT_EQ(run.status.code(), StatusCode::kUnavailable) << label;
      continue;
    }
    ++ok_runs;
    suppressed += run.result.net.duplicates_suppressed;
    ExpectMatchesReference(run.output, ref, label, /*compare_metrics=*/false);
  }
  EXPECT_GT(ok_runs, 0);
  EXPECT_GT(suppressed, 0);
}

TEST(ClusterRanked, RoutesThroughQuerySession) {
  obs::MetricRegistry::Global().Reset();
  ClusterOptions options;
  options.num_shards = 3;
  Coordinator coordinator(&DemoRepository(), options);
  query::Session session;
  session.RegisterRankedBackend("library", &coordinator);
  auto result = session.Execute(
      "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) "
      "FROM (PROCESS library PRODUCE clipID, obj USING ObjectTracker, "
      "act USING ActionRecognizer) "
      "WHERE act='running' AND obj.include('dog') "
      "ORDER BY RANK(act, obj) LIMIT 3");
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_FALSE(result->online);
  EXPECT_EQ(result->ranked.size(), 3u);
}

// --- Cascade (WITH RECALL) over the cluster -----------------------------

// The proxy tier matching DemoRepository: same video names, same
// per-video seeds, so the planner's thresholds correspond to the data
// the shards actually hold.
const cascade::ProxySet& DemoProxies() {
  static const cascade::ProxySet* const set = [] {
    auto* s = new cascade::ProxySet();
    for (int i = 0; i < kVideos; ++i) {
      const std::string name = "vid" + std::to_string(i);
      s->emplace(name, cascade::BuildProxyIndex(
                           name, tools::DemoScenario(i),
                           detect::ModelProfile::ProxyCnn(),
                           kSeed + static_cast<uint64_t>(i)));
    }
    return s;
  }();
  return *set;
}

constexpr char kBackendSql[] =
    "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) "
    "FROM (PROCESS library PRODUCE clipID, obj USING ObjectTracker, "
    "act USING ActionRecognizer) "
    "WHERE act='running' AND obj.include('dog') "
    "ORDER BY RANK(act, obj) LIMIT 5";

struct BackendRun {
  std::string described;
  std::string metrics;
  std::string cascade_plan;
};

// One ranked statement routed through a session-registered coordinator
// (the full WITH RECALL wire: parse -> plan -> scatter with thresholds).
BackendRun RunThroughBackend(const std::string& sql, int shards,
                             const std::vector<std::string>& exclude) {
  DemoRepository();
  DemoProxies();
  obs::MetricRegistry::Global().Reset();
  ClusterOptions options;
  options.num_shards = shards;
  options.proxy = &DemoProxies();
  Coordinator coordinator(&DemoRepository(), options);
  query::Session session;
  session.RegisterRankedBackend("library", &coordinator);
  const auto result = session.Execute(sql);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  BackendRun run;
  if (result.ok()) {
    std::ostringstream os;
    for (const offline::RankedSequence& s : result->ranked) {
      os << s.clips.ToString() << " lb=" << Fmt(s.lower_bound)
         << " ub=" << Fmt(s.upper_bound) << "\n";
    }
    os << result->accesses.ToString();
    run.described = os.str();
    run.cascade_plan = result->cascade_plan;
  }
  run.metrics = obs::ExportPrometheus(obs::ExcludeSnapshot(
      obs::MetricRegistry::Global().TakeSnapshot(), exclude));
  return run;
}

TEST(ClusterCascade, PrefilteredGatherIsByteIdenticalAcrossLayouts) {
  const cascade::Planner planner(&DemoProxies());
  const StatusOr<cascade::CascadePlan> plan =
      planner.Plan("running", {"dog"}, 0.9);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan.value().use_cascade) << plan.value().ToString();
  const cascade::PlanFilters filters(&DemoProxies(), plan.value());

  // The pruned single-node run is the reference: a sharded gather under
  // the same plan must match it byte for byte — including the logical
  // metrics, since the thresholds (and so the surviving sets) are a pure
  // function of the proxy index, never of the layout.
  const RankedOutput ref = SingleNodeReference(kK, &filters);
  for (const int shards : {1, 2, 4}) {
    ClusterOptions options;
    options.num_shards = shards;
    const ClusterRun run =
        RunCluster(options, kK, &filters, plan.value().WireBytes());
    const std::string label = "cascade shards=" + std::to_string(shards);
    ASSERT_TRUE(run.status.ok()) << label << ": " << run.status.message();
    ExpectMatchesReference(run.output, ref, label);
  }
}

TEST(ClusterCascade, RecallOneThroughBackendMatchesPlainStatement) {
  // WITH RECALL 1 must never reach the planner: the whole observable
  // surface — results, access accounting, every metric family including
  // vaq_cluster_* — matches the clause-free statement byte for byte.
  // (Only vaq_log_* is excluded: its rate-limit counters are per-call-
  // site statics that span runs within this process.)
  const std::vector<std::string> exclude = {"vaq_log_"};
  const BackendRun plain = RunThroughBackend(kBackendSql, 3, exclude);
  const BackendRun recall_one = RunThroughBackend(
      std::string(kBackendSql) + " WITH RECALL 1", 3, exclude);
  EXPECT_FALSE(plain.described.empty());
  EXPECT_EQ(plain.described, recall_one.described);
  EXPECT_EQ(plain.metrics, recall_one.metrics);
  EXPECT_TRUE(plain.cascade_plan.empty());
  EXPECT_TRUE(recall_one.cascade_plan.empty());
}

TEST(ClusterCascade, ApproximateStatementIsShardCountInvariant) {
  // The coordinator plans once and ships thresholds with the scatter, so
  // an approximate statement's results, plan text and logical metrics
  // cannot depend on the shard count.
  const std::vector<std::string> exclude = {"vaq_cluster_",
                                            "vaq_query_latency_ms",
                                            "vaq_log_"};
  const std::string sql = std::string(kBackendSql) + " WITH RECALL 0.9";
  const BackendRun one = RunThroughBackend(sql, 1, exclude);
  EXPECT_NE(one.cascade_plan.find("cascade"), std::string::npos)
      << one.cascade_plan;
  for (const int shards : {3, 8}) {
    const BackendRun run = RunThroughBackend(sql, shards, exclude);
    EXPECT_EQ(run.described, one.described) << shards;
    EXPECT_EQ(run.cascade_plan, one.cascade_plan) << shards;
    EXPECT_EQ(run.metrics, one.metrics) << shards;
  }
}

// --- Standing-query cluster ---------------------------------------------

Status RegisterStandingStreams(serve::Server* server) {
  return tools::RegisterDemoSources(server, kStreams,
                                    /*with_repository=*/false, kSeed);
}

std::vector<std::string> StandingWorkload() {
  return tools::DemoWorkload(kStreams, kStandingQueries,
                             /*with_repository=*/false);
}

// The single-server reference run: same streams, same admissions, same
// round-robin advance schedule.
std::vector<std::string> SingleServerStandingReference() {
  obs::MetricRegistry::Global().Reset();
  serve::ServeOptions options;
  options.threads = 0;
  serve::Server server(options);
  EXPECT_TRUE(RegisterStandingStreams(&server).ok());
  for (const std::string& sql : StandingWorkload()) {
    EXPECT_TRUE(server.AddStandingQuery(sql).ok()) << sql;
  }
  for (int i = 0; i < kStandingAdvances; ++i) {
    EXPECT_TRUE(
        server.AdvanceStream("cam" + std::to_string(i % kStreams)).ok());
  }
  std::vector<std::string> described;
  for (const serve::ServedQuery& q : server.FinishStanding()) {
    described.push_back(serve::DescribeServedQuery(q));
  }
  return described;
}

struct StandingRun {
  std::vector<std::string> described;
  int64_t failovers = 0;
  int64_t catchup_advances = 0;
  int64_t shipped_bytes = 0;
};

StandingRun RunStandingCluster(StandingClusterOptions options) {
  obs::MetricRegistry::Global().Reset();
  StandingCluster cluster(options, RegisterStandingStreams);
  EXPECT_TRUE(cluster.Init().ok());
  for (const std::string& sql : StandingWorkload()) {
    EXPECT_TRUE(cluster.AddStandingQuery(sql).ok()) << sql;
  }
  for (int i = 0; i < kStandingAdvances; ++i) {
    const Status advanced =
        cluster.AdvanceStream("cam" + std::to_string(i % kStreams));
    EXPECT_TRUE(advanced.ok()) << i << ": " << advanced.message();
  }
  StandingRun run;
  auto finished = cluster.Finish();
  EXPECT_TRUE(finished.ok()) << finished.status().message();
  if (finished.ok()) {
    for (const serve::ServedQuery& q : *finished) {
      run.described.push_back(serve::DescribeServedQuery(q));
    }
  }
  run.failovers = cluster.failovers();
  run.catchup_advances = cluster.catchup_advances();
  run.shipped_bytes = cluster.shipped_bytes();
  return run;
}

TEST(ClusterStanding, MatchesSingleServerAcrossNodeCounts) {
  const std::vector<std::string> ref = SingleServerStandingReference();
  ASSERT_EQ(ref.size(), static_cast<size_t>(kStandingQueries));
  for (const int nodes : {1, 3}) {
    StandingClusterOptions options;
    options.num_nodes = nodes;
    const StandingRun run = RunStandingCluster(options);
    ASSERT_EQ(run.described.size(), ref.size()) << nodes;
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(run.described[i], ref[i])
          << "nodes=" << nodes << " query " << i;
    }
    EXPECT_EQ(run.failovers, 0);
    EXPECT_GT(run.shipped_bytes, 0);
  }
}

TEST(ClusterStanding, KilledOwnerFailsOverIdentically) {
  const std::vector<std::string> ref = SingleServerStandingReference();
  StandingClusterOptions options;
  options.num_nodes = 3;
  options.kill_node = HashShardOf("cam1", options.num_nodes);
  // Mid-drive: some advances land before the outage, the rest after
  // failover on the standby.
  options.kill_at_ms = options.advance_tick_ms * (kStandingAdvances / 2);
  const StandingRun run = RunStandingCluster(options);
  ASSERT_EQ(run.described.size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(run.described[i], ref[i]) << "query " << i;
  }
  EXPECT_GE(run.failovers, 1);
}

TEST(ClusterStanding, ShippingLagIsReplayedOnFailover) {
  const std::vector<std::string> ref = SingleServerStandingReference();
  StandingClusterOptions options;
  options.num_nodes = 3;
  // Cadence so long it never fires: after the admission-time ship the
  // replica stays at stream position zero, so failover must replay every
  // advance the killed node had applied.
  options.ship_every_advances = 1 << 20;
  options.kill_node = HashShardOf("cam1", options.num_nodes);
  options.kill_at_ms = options.advance_tick_ms * (kStandingAdvances / 2);
  const StandingRun run = RunStandingCluster(options);
  ASSERT_EQ(run.described.size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(run.described[i], ref[i]) << "query " << i;
  }
  EXPECT_GE(run.failovers, 1);
  EXPECT_GT(run.catchup_advances, 0);
}

}  // namespace
}  // namespace cluster
}  // namespace vaq
