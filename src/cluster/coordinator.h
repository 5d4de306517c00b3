// Scatter–gather ranked execution over a sharded repository.
//
// The coordinator partitions an offline::Repository into N shards
// (cluster::PartitionNames), places one primary Node per shard plus R
// follower replicas, and answers a conjunctive ranked query with the
// classic threshold-algorithm merge over per-shard sorted streams:
//
//   1. Scatter: the query is sent to every shard primary over the
//      simulated network. A node runs shard-local RVAQ (once) and
//      serves its candidate stream — per-video winners sorted by
//      descending merge score — in fixed-size batches, each stamped
//      with the shard's remaining upper bound (the best score still
//      unsent).
//   2. Gather: the coordinator pipelines one outstanding fetch per
//      shard, folds arriving entries into a global top-k heap, and
//      tracks each shard's bound.
//   3. Stop: gathering ends when the k-th best consumed score STRICTLY
//      exceeds every remaining bound — strict, so a tied candidate can
//      never be pruned — and every shard has reported at least one
//      batch (bounds start at +infinity, which enforces this). Unsent
//      batches are pruned; the result is provably complete.
//
// The merged result is byte-identical to Repository::TopK by
// construction: consumed candidates are re-assembled in (video name,
// per-video rank) order — exactly the order the single-node loop emits —
// then passed through the same offline::MergeRankedCandidates. And
// because a clean run executes each per-video RVAQ exactly once across
// the whole cluster, every logical vaq_* metric lands on the single-node
// value too; only the vaq_cluster_* transport families differ by layout.
//
// Failover: if an expected batch does not arrive within
// `failover_timeout_ms` of virtual time (the shard's host is inside a
// fault-plan outage window, or was killed explicitly), the coordinator
// re-points the fetch at the next follower replica. Batches are a pure
// function of (shard, batch index), so the replica resumes mid-stream
// with no hand-off state and the final result is unchanged; the replica
// honestly re-executes its shard scan, which is visible in engine
// metrics but never in results.
//
// Times are virtual (fault::SimClock): a node's reply is ready
// `modeled_ms` (its shard's modeled disk time) after the query arrives,
// so `answer_ms` reflects the parallel schedule — max over shards, not
// sum — which is where the scatter–gather speedup shows up.
#ifndef VAQ_CLUSTER_COORDINATOR_H_
#define VAQ_CLUSTER_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cascade/planner.h"
#include "cluster/net.h"
#include "cluster/node.h"
#include "cluster/partition.h"
#include "common/status.h"
#include "obs/query_trace.h"
#include "offline/repository.h"
#include "offline/scoring.h"
#include "query/session.h"

namespace vaq {
namespace cluster {

// The coordinator's host id on the simulated network.
inline constexpr int kCoordinatorHost = -1;

struct ClusterOptions {
  int num_shards = 2;  // Initial layout; elastic split/merge may change it.
  int num_replicas = 0;  // Follower replicas per shard.
  PartitionScheme scheme = PartitionScheme::kHash;
  int batch_size = 4;    // Candidates per gather batch.
  NetOptions net;
  // Drives node outages (FaultSpec::node_outage_rate) and network
  // faults. Not owned; may be null (no faults).
  const fault::FaultPlan* fault_plan = nullptr;
  // Virtual ms without the expected batch before the coordinator fails
  // over to the next replica.
  double failover_timeout_ms = 50.0;
  // Staged outage for tests and `vaqctl cluster --kill-node`: host
  // `kill_node` is down from `kill_at_ms` onward (in addition to any
  // fault-plan windows). -1 disables.
  int kill_node = -1;
  double kill_at_ms = 0.0;
  // Deterministic watchdog: abort the gather with kDeadlineExceeded
  // after this many scheduler events (timer fires + deliveries). 0
  // disables. A bound on *events*, not wall time, so a livelocked
  // gather trips it identically on every machine — this is how the
  // chaos harness turns "hang" into a reproducible failure instead of
  // a test timeout.
  int64_t max_steps = 0;
  // Ingest-time proxy tier (src/cascade/) consulted when a ranked
  // statement carries WITH RECALL < 1.0: the coordinator plans the
  // cascade once and ships the thresholds with the scatter, so every
  // shard prefilters locally. Not owned; null disables (approximate
  // statements then run the exact path). Keys are repository video
  // names; thresholds are layout-independent, so the surviving set
  // never depends on the shard count.
  const cascade::ProxySet* proxy = nullptr;
};

// Elastic rebalancing policy (Coordinator::Rebalance). Loads are the
// per-shard modeled scan milliseconds accumulated since the previous
// Rebalance call (the "load window"); each call acts on the window and
// then closes it. Keep merge_threshold_ms well below half the split
// threshold or a freshly split pair can oscillate.
struct RebalanceOptions {
  // Split the hottest shard when its window load reaches this (and it
  // holds at least two videos).
  double split_threshold_ms = 50.0;
  // Merge the coldest adjacent pair when both sides are at or below
  // this.
  double merge_threshold_ms = 5.0;
  int min_shards = 1;
  int max_shards = 64;
};

struct ClusterTopKResult {
  // Byte-identical to the single-node Repository::TopK outcome (the
  // wall_ms field aside, which is real time there and virtual here).
  offline::RepositoryTopKResult merged;
  double answer_ms = 0.0;       // Virtual time the query completed.
  double single_node_ms = 0.0;  // Modeled sequential (1-node) scan time.
  double max_shard_ms = 0.0;    // Slowest shard's modeled scan time.
  int64_t batches_consumed = 0;
  int64_t batches_pruned = 0;   // Never fetched thanks to the bound.
  int64_t entries_consumed = 0;
  int64_t entries_total = 0;
  int64_t failovers = 0;
  NetStats net;                 // This query's traffic.
};

class Coordinator : public query::RankedBackend {
 public:
  // `repository` is not owned and must outlive the coordinator.
  Coordinator(const offline::Repository* repository, ClusterOptions options);

  const ClusterOptions& options() const { return options_; }
  // The *live* shard count: ClusterOptions::num_shards initially,
  // tracking elastic splits/merges afterwards.
  int num_shards() const { return static_cast<int>(shard_videos_.size()); }
  const std::vector<std::string>& ShardVideos(int shard) const;

  // --- Elastic rebalancing ----------------------------------------------
  // The shard layout only affects transport (vaq_cluster_* batch/net
  // accounting, host ids, answer_ms): merged results are re-assembled in
  // (video, per-video rank) order and every per-video scan runs exactly
  // once per clean query, so results and engine-level metrics are
  // byte-identical before, during and after any rebalance
  // (LayoutInvariantMetricPrefixes below; the elastic determinism test
  // pins this). Call between queries only — none of these methods are
  // synchronized against a running TopK.

  // Splits `shard`'s sorted video run at its midpoint into two adjacent
  // shards (range-style, whatever the original scheme). The shard must
  // hold at least two videos (kFailedPrecondition otherwise). Replica
  // hosts are re-derived from the new layout.
  Status SplitShard(int shard);

  // Merges shard `left` with shard `left + 1` into one sorted run.
  Status MergeShards(int left);

  // Load-reactive layout step: splits the hottest shard at or above
  // split_threshold_ms, then merges the coldest adjacent pair wholly at
  // or below merge_threshold_ms, honoring the min/max shard bounds —
  // at most one split and one merge per call. Returns the number of
  // layout actions taken and closes the load window (accumulators reset
  // to zero).
  int Rebalance(const RebalanceOptions& rebalance = {});

  // Modeled scan ms shard `shard` accumulated in the current load
  // window (also exported as vaq_cluster_shard_load_ms{shard=...}).
  double ShardLoadMs(int shard) const;

  // Global top-K for a conjunctive query, scatter–gathered. `ctx`
  // (optional) attributes the scatter–gather to a per-query trace: the
  // query id rides the simulated wire with every query/fetch message
  // (appended to the payload; the modeled byte counts are unchanged, so
  // timing is too), and each shard's scan, batches, bytes and failovers
  // land on a per-shard child node. When `rvaq.prefilter` is set (a
  // planned cascade), `plan_wire_bytes` models the thresholds riding the
  // scatter message to every shard; 0 on the exact path keeps the wire
  // byte-identical to pre-cascade builds.
  StatusOr<ClusterTopKResult> TopK(const std::string& action,
                                   const std::vector<std::string>& objects,
                                   const offline::ScoringModel& scoring,
                                   offline::RvaqOptions rvaq,
                                   const obs::QueryContext& ctx = {},
                                   int64_t plan_wire_bytes = 0) const;

  // query::RankedBackend: routes a parsed ranked statement (conjunctive
  // form) through TopK with the coordinator's own PaperScoring.
  StatusOr<query::QueryResult> ExecuteRanked(
      const query::QueryStatement& stmt, const obs::QueryContext& ctx) override;

 private:
  // Primary host of shard s is s; replica r of shard s is
  // num_shards + s * num_replicas + r (under the live shard count).
  int ReplicaHost(int shard, int replica) const;
  Node* HostNode(int host) const;
  bool HostDown(int host, double at_ms) const;
  // Recreates every node from the current shard_videos_ layout (host
  // ids are layout-relative, so a rebalance re-derives all of them).
  void RebuildNodes();
  // vaq_cluster_shard_load_ms{shard="<shard>"}, resolved at first use.
  obs::Gauge* ShardLoadGauge(int shard) const;

  const offline::Repository* repository_;
  ClusterOptions options_;
  offline::PaperScoring scoring_;
  std::vector<std::vector<std::string>> shard_videos_;
  // Per-shard modeled scan ms of the current load window (Rebalance
  // resets it). Mutable: folded during the logically-const TopK.
  mutable std::vector<double> shard_load_ms_;
  // By shard index; filled lazily (ShardLoadGauge). Mutable like the load.
  mutable std::vector<obs::Gauge*> shard_load_gauges_;
  // Primaries [0, S), then replicas in ReplicaHost order. Mutable: nodes
  // cache the per-query shard run; TopK is logically const.
  mutable std::vector<std::unique_ptr<Node>> nodes_;
  // Exact-sample answer-latency percentiles
  // (vaq_query_latency_ms{path="cluster"}).
  std::unique_ptr<obs::LatencyRecorder> latency_;
};

// Metric-family prefixes whose values are shard-layout-invariant for a
// clean (fault-free) run: engine-level work happens exactly once per
// video per query no matter which shard owns the video, and per-query
// outcome counts don't depend on the layout at all. The elastic
// determinism test diffs snapshots filtered to these across static vs
// split/merge layouts. Transport families (vaq_cluster_batches/net/
// shard_load/answer_ms) and latency gauges built on answer_ms are
// deliberately absent — they measure the layout itself.
const std::vector<std::string>& LayoutInvariantMetricPrefixes();

}  // namespace cluster
}  // namespace vaq

#endif  // VAQ_CLUSTER_COORDINATOR_H_
