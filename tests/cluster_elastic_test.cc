// Elastic shard rebalancing determinism: split/merge churn may change
// transport topology, but never what a query returns. The oracle is
// byte-identity — described top lists and the layout-invariant logical
// vaq_* families (cluster::LayoutInvariantMetricPrefixes) must match the
// static layout exactly, before, during and after rebalancing, for the
// same seed.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/coordinator.h"
#include "detect/models.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "offline/ingest.h"
#include "offline/repository.h"
#include "offline/scoring.h"
#include "tools/pipeline_setup.h"

namespace vaq {
namespace cluster {
namespace {

constexpr int kVideos = 4;
constexpr uint64_t kSeed = 515;
constexpr int64_t kK = 4;

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

struct QueryOut {
  std::string top;
  std::string invariant_metrics;
};

// One query against `coordinator` in a fresh registry epoch, rendered
// down to the comparison surface.
QueryOut QueryOnce(const Coordinator& coordinator) {
  DemoRepository();  // Ingest outside the measured epoch.
  obs::MetricRegistry::Global().Reset();
  offline::PaperScoring scoring;
  offline::RvaqOptions rvaq;
  rvaq.k = kK;
  auto result = coordinator.TopK("running", {"dog"}, scoring, rvaq);
  EXPECT_TRUE(result.ok()) << result.status().message();
  QueryOut out;
  if (result.ok()) out.top = DescribeTop(result->merged.top);
  out.invariant_metrics = obs::ExportPrometheus(
      obs::FilterSnapshot(obs::MetricRegistry::Global().TakeSnapshot(),
                          LayoutInvariantMetricPrefixes()));
  return out;
}

Coordinator MakeCoordinator(int shards) {
  ClusterOptions options;
  options.num_shards = shards;
  options.scheme = PartitionScheme::kRange;  // Splittable mid-run.
  return Coordinator(&DemoRepository(), options);
}

TEST(ClusterElastic, SplitAndMergeNeverChangeResultBytes) {
  const QueryOut ref = QueryOnce(MakeCoordinator(1));
  ASSERT_FALSE(ref.top.empty());

  Coordinator coordinator = MakeCoordinator(1);
  // Before, during and after: query between every layout change.
  EXPECT_EQ(QueryOnce(coordinator).top, ref.top);
  ASSERT_TRUE(coordinator.SplitShard(0).ok());
  EXPECT_EQ(coordinator.num_shards(), 2);
  QueryOut split_out = QueryOnce(coordinator);
  EXPECT_EQ(split_out.top, ref.top);
  EXPECT_EQ(split_out.invariant_metrics, ref.invariant_metrics);
  ASSERT_TRUE(coordinator.SplitShard(1).ok());
  EXPECT_EQ(coordinator.num_shards(), 3);
  split_out = QueryOnce(coordinator);
  EXPECT_EQ(split_out.top, ref.top);
  EXPECT_EQ(split_out.invariant_metrics, ref.invariant_metrics);
  ASSERT_TRUE(coordinator.MergeShards(0).ok());
  EXPECT_EQ(coordinator.num_shards(), 2);
  const QueryOut merged_out = QueryOnce(coordinator);
  EXPECT_EQ(merged_out.top, ref.top);
  EXPECT_EQ(merged_out.invariant_metrics, ref.invariant_metrics);
}

TEST(ClusterElastic, LoadDrivenRebalanceIsDeterministic) {
  // Two coordinators fed the identical query stream must make the
  // identical split/merge decisions — the load gauges are modeled
  // milliseconds, a pure function of the scan, never wall-clock.
  RebalanceOptions rebalance;
  rebalance.split_threshold_ms = 0.5;  // Everything hot: must split.
  rebalance.max_shards = 8;
  int actions[2] = {0, 0};
  std::string tops[2];
  for (int run = 0; run < 2; ++run) {
    Coordinator coordinator = MakeCoordinator(1);
    (void)QueryOnce(coordinator);
    EXPECT_GT(coordinator.ShardLoadMs(0), 0.0);
    actions[run] = coordinator.Rebalance(rebalance);
    EXPECT_GT(actions[run], 0);
    EXPECT_GT(coordinator.num_shards(), 1);
    // Acting on the load resets the gauges: the next epoch's decisions
    // see only the next epoch's load.
    for (int s = 0; s < coordinator.num_shards(); ++s) {
      EXPECT_EQ(coordinator.ShardLoadMs(s), 0.0);
    }
    tops[run] = QueryOnce(coordinator).top;
  }
  EXPECT_EQ(actions[0], actions[1]);
  EXPECT_EQ(tops[0], tops[1]);
  EXPECT_EQ(tops[0], QueryOnce(MakeCoordinator(1)).top);
}

TEST(ClusterElastic, ColdShardsMergeDownToTheFloor) {
  Coordinator coordinator = MakeCoordinator(4);
  RebalanceOptions rebalance;
  rebalance.split_threshold_ms = 1e12;  // Nothing is ever hot.
  rebalance.merge_threshold_ms = 1e12;  // Everything idle is cold.
  rebalance.min_shards = 2;
  // Each pass merges one adjacent cold pair; the floor stops it.
  EXPECT_EQ(coordinator.Rebalance(rebalance), 1);
  EXPECT_EQ(coordinator.num_shards(), 3);
  EXPECT_EQ(coordinator.Rebalance(rebalance), 1);
  EXPECT_EQ(coordinator.num_shards(), 2);
  EXPECT_EQ(coordinator.Rebalance(rebalance), 0);
  EXPECT_EQ(coordinator.num_shards(), 2);
  EXPECT_EQ(QueryOnce(coordinator).top, QueryOnce(MakeCoordinator(1)).top);
}

TEST(ClusterElastic, SplitGuardsItsPreconditions) {
  Coordinator coordinator = MakeCoordinator(4);  // One video per shard.
  EXPECT_EQ(coordinator.SplitShard(-1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(coordinator.SplitShard(4).code(), StatusCode::kInvalidArgument);
  // A single-video shard cannot split.
  EXPECT_EQ(coordinator.SplitShard(0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(coordinator.MergeShards(3).code(),
            StatusCode::kInvalidArgument);  // No right neighbour.
}

TEST(ClusterElastic, RebalanceOpsAreCounted) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  registry.Reset();
  Coordinator coordinator = MakeCoordinator(1);
  ASSERT_TRUE(coordinator.SplitShard(0).ok());
  ASSERT_TRUE(coordinator.MergeShards(0).ok());
  EXPECT_EQ(
      registry.GetCounter("vaq_cluster_rebalance_total", {{"op", "split"}})
          ->value(),
      1);
  EXPECT_EQ(
      registry.GetCounter("vaq_cluster_rebalance_total", {{"op", "merge"}})
          ->value(),
      1);
}

}  // namespace
}  // namespace cluster
}  // namespace vaq
