#include "cluster/coordinator.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <memory>
#include <queue>
#include <utility>

#include "bai/sequence_arms.h"
#include "common/logging.h"
#include "fault/sim_clock.h"
#include "obs/metrics.h"

namespace vaq {
namespace cluster {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Wire protocol tags.
constexpr uint32_t kTagQuery = 1;  // coordinator -> node: start, send batch 0.
constexpr uint32_t kTagFetch = 2;  // coordinator -> node: send batch <idx>.
constexpr uint32_t kTagBatch = 3;  // node -> coordinator: one gather batch.

// Serving a follow-up batch out of the cached run costs a little
// serialization time; the first batch is charged the full shard scan.
constexpr double kBatchServeMs = 0.05;

const std::vector<double>& AnswerMsBounds() {
  static const std::vector<double> bounds = {1,   5,    10,   50,  100,
                                             500, 1000, 5000, 20000};
  return bounds;
}

// Per-query series, each resolved in the registry at its first use.
obs::Counter* RankedQueries(bool ok) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  if (ok) {
    static obs::Counter* const counter = registry.GetCounter(
        "vaq_cluster_queries_total", {{"mode", "ranked"}, {"outcome", "ok"}});
    return counter;
  }
  static obs::Counter* const counter = registry.GetCounter(
      "vaq_cluster_queries_total", {{"mode", "ranked"}, {"outcome", "error"}});
  return counter;
}

// Per-shard gather state.
struct ShardState {
  int active_host = 0;
  int replicas_used = 0;
  int expected = -1;       // Outstanding batch index; -1 when none.
  double deadline = kInf;  // Failover timer for the outstanding fetch.
  // Remaining upper bound. Starts at +infinity, which doubles as the
  // "shard has not reported yet" marker: the stopping rule cannot fire
  // until every shard has run and bounded itself.
  double bound = kInf;
  bool done = false;        // Stream exhausted.
  bool folded = false;      // Shard accounting merged into the result.
  int64_t consumed_batches = 0;
};

}  // namespace

Coordinator::Coordinator(const offline::Repository* repository,
                         ClusterOptions options)
    : repository_(repository),
      options_(options),
      latency_(std::make_unique<obs::LatencyRecorder>("vaq_query_latency_ms",
                                                      "cluster")) {
  VAQ_CHECK_GT(options_.num_shards, 0);
  VAQ_CHECK_GE(options_.num_replicas, 0);
  VAQ_CHECK_GT(options_.batch_size, 0);
  shard_videos_ = PartitionNames(repository_->VideoNames(),
                                 options_.num_shards, options_.scheme);
  shard_load_ms_.assign(shard_videos_.size(), 0.0);
  RebuildNodes();
}

void Coordinator::RebuildNodes() {
  nodes_.clear();
  const int shards = num_shards();
  for (int s = 0; s < shards; ++s) {
    nodes_.push_back(std::make_unique<Node>(s, repository_, shard_videos_[s]));
  }
  for (int s = 0; s < shards; ++s) {
    for (int r = 0; r < options_.num_replicas; ++r) {
      nodes_.push_back(std::make_unique<Node>(ReplicaHost(s, r), repository_,
                                              shard_videos_[s]));
    }
  }
}

Status Coordinator::SplitShard(int shard) {
  if (shard < 0 || shard >= num_shards()) {
    return Status::InvalidArgument("no such shard " + std::to_string(shard));
  }
  std::vector<std::string>& videos =
      shard_videos_[static_cast<size_t>(shard)];
  if (videos.size() < 2) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(shard) +
        " holds fewer than two videos; nothing to split");
  }
  // Midpoint cut of the sorted run: the left half stays in place, the
  // right half becomes the new adjacent shard. The window load has no
  // per-video attribution, so it is split evenly.
  const auto mid =
      videos.begin() + static_cast<std::ptrdiff_t>(videos.size() / 2);
  std::vector<std::string> right(mid, videos.end());
  videos.erase(mid, videos.end());
  shard_videos_.insert(
      shard_videos_.begin() + static_cast<std::ptrdiff_t>(shard) + 1,
      std::move(right));
  const double half = shard_load_ms_[static_cast<size_t>(shard)] / 2.0;
  shard_load_ms_[static_cast<size_t>(shard)] = half;
  shard_load_ms_.insert(
      shard_load_ms_.begin() + static_cast<std::ptrdiff_t>(shard) + 1, half);
  RebuildNodes();
  obs::MetricRegistry::Global()
      .GetCounter("vaq_cluster_rebalance_total", {{"op", "split"}})
      ->Increment();
  return Status::OK();
}

Status Coordinator::MergeShards(int left) {
  if (left < 0 || left + 1 >= num_shards()) {
    return Status::InvalidArgument(
        "no adjacent shard pair at " + std::to_string(left));
  }
  std::vector<std::string>& lhs = shard_videos_[static_cast<size_t>(left)];
  std::vector<std::string>& rhs =
      shard_videos_[static_cast<size_t>(left) + 1];
  // Every partition's video list is sorted (cluster::PartitionNames), so
  // the merged run is too — a later split cuts it cleanly.
  std::vector<std::string> merged;
  merged.reserve(lhs.size() + rhs.size());
  std::merge(lhs.begin(), lhs.end(), rhs.begin(), rhs.end(),
             std::back_inserter(merged));
  lhs = std::move(merged);
  shard_videos_.erase(shard_videos_.begin() +
                      static_cast<std::ptrdiff_t>(left) + 1);
  shard_load_ms_[static_cast<size_t>(left)] +=
      shard_load_ms_[static_cast<size_t>(left) + 1];
  shard_load_ms_.erase(shard_load_ms_.begin() +
                       static_cast<std::ptrdiff_t>(left) + 1);
  RebuildNodes();
  obs::MetricRegistry::Global()
      .GetCounter("vaq_cluster_rebalance_total", {{"op", "merge"}})
      ->Increment();
  return Status::OK();
}

int Coordinator::Rebalance(const RebalanceOptions& rebalance) {
  int actions = 0;
  // Split first so this round's merge can never immediately undo it (a
  // fresh split halves the window load, and the doc comment on
  // RebalanceOptions asks for merge_threshold_ms well below half the
  // split threshold).
  if (num_shards() < rebalance.max_shards) {
    int hottest = -1;
    double hottest_ms = 0.0;
    for (int s = 0; s < num_shards(); ++s) {
      if (shard_videos_[static_cast<size_t>(s)].size() >= 2 &&
          shard_load_ms_[static_cast<size_t>(s)] > hottest_ms) {
        hottest = s;
        hottest_ms = shard_load_ms_[static_cast<size_t>(s)];
      }
    }
    if (hottest >= 0 && hottest_ms >= rebalance.split_threshold_ms &&
        SplitShard(hottest).ok()) {
      ++actions;
    }
  }
  if (num_shards() > rebalance.min_shards) {
    int coldest = -1;
    double coldest_ms = kInf;
    for (int l = 0; l + 1 < num_shards(); ++l) {
      const double lhs = shard_load_ms_[static_cast<size_t>(l)];
      const double rhs = shard_load_ms_[static_cast<size_t>(l) + 1];
      if (std::max(lhs, rhs) <= rebalance.merge_threshold_ms &&
          lhs + rhs < coldest_ms) {
        coldest = l;
        coldest_ms = lhs + rhs;
      }
    }
    if (coldest >= 0 && MergeShards(coldest).ok()) ++actions;
  }
  // Close the load window: the next window starts from zero under the
  // (possibly new) layout.
  std::fill(shard_load_ms_.begin(), shard_load_ms_.end(), 0.0);
  for (int s = 0; s < num_shards(); ++s) ShardLoadGauge(s)->Set(0.0);
  return actions;
}

obs::Gauge* Coordinator::ShardLoadGauge(int shard) const {
  const size_t s = static_cast<size_t>(shard);
  if (s >= shard_load_gauges_.size()) shard_load_gauges_.resize(s + 1);
  obs::Gauge*& gauge = shard_load_gauges_[s];
  if (gauge == nullptr) {
    gauge = obs::MetricRegistry::Global().GetGauge(
        "vaq_cluster_shard_load_ms", {{"shard", std::to_string(shard)}});
  }
  return gauge;
}

double Coordinator::ShardLoadMs(int shard) const {
  if (shard < 0 || shard >= num_shards()) return 0.0;
  return shard_load_ms_[static_cast<size_t>(shard)];
}

const std::vector<std::string>& Coordinator::ShardVideos(int shard) const {
  return shard_videos_[static_cast<size_t>(shard)];
}

int Coordinator::ReplicaHost(int shard, int replica) const {
  return num_shards() + shard * options_.num_replicas + replica;
}

Node* Coordinator::HostNode(int host) const {
  for (const std::unique_ptr<Node>& node : nodes_) {
    if (node->id() == host) return node.get();
  }
  return nullptr;
}

bool Coordinator::HostDown(int host, double at_ms) const {
  if (options_.kill_node == host && at_ms >= options_.kill_at_ms) return true;
  return options_.fault_plan != nullptr &&
         options_.fault_plan->NodeDown(host, at_ms);
}

StatusOr<ClusterTopKResult> Coordinator::TopK(
    const std::string& action, const std::vector<std::string>& objects,
    const offline::ScoringModel& scoring, offline::RvaqOptions rvaq,
    const obs::QueryContext& ctx, int64_t plan_wire_bytes) const {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  // The query id that rides every simulated wire message of this query
  // (a no-op "-" when untraced). Appending it to the payload leaves the
  // modeled byte counts — and therefore every delivery time — unchanged.
  const std::string qid =
      ctx.active() ? ctx.trace->root_name() : std::string("-");
  const obs::QueryContext phase = ctx.Child("scatter_gather");
  if (repository_->num_videos() == 0) {
    RankedQueries(/*ok=*/false)->Increment();
    return Status::FailedPrecondition("repository holds no videos");
  }
  for (const std::unique_ptr<Node>& node : nodes_) node->ResetRun();

  // The *live* layout, not ClusterOptions::num_shards — elastic
  // split/merge may have changed it since construction.
  const int num_shards = static_cast<int>(shard_videos_.size());
  Net net(options_.net, options_.fault_plan);
  fault::SimClock clock;
  ClusterTopKResult result;
  std::vector<ShardState> shards(static_cast<size_t>(num_shards));
  std::vector<double> host_ready;  // Virtual time a host's run is served.

  const auto host_ready_at = [&](int host) -> double& {
    if (host_ready.size() <= static_cast<size_t>(host)) {
      host_ready.resize(static_cast<size_t>(host) + 1, -1.0);
    }
    return host_ready[static_cast<size_t>(host)];
  };

  // Scatter: the query goes to every shard primary at t = 0. A planned
  // cascade's thresholds ride along (plan_wire_bytes; 0 when exact).
  const int64_t query_wire_bytes =
      64 + static_cast<int64_t>(action.size()) +
      static_cast<int64_t>(objects.size()) * 16 + plan_wire_bytes;
  for (int s = 0; s < num_shards; ++s) {
    shards[static_cast<size_t>(s)].active_host = s;
    shards[static_cast<size_t>(s)].expected = 0;
    shards[static_cast<size_t>(s)].deadline = options_.failover_timeout_ms;
    net.Send(kCoordinatorHost, s, kTagQuery, "query",
             std::to_string(s) + ",0," + qid, query_wire_bytes, 0.0);
  }

  // The consumed candidate pool and the global top-k heap over it.
  std::vector<ShardEntry> consumed;
  std::priority_queue<double, std::vector<double>, std::greater<double>> heap;

  const auto remaining_bound = [&]() {
    double bound = -kInf;
    for (const ShardState& state : shards) {
      if (!state.done) bound = std::max(bound, state.bound);
    }
    return bound;
  };
  const auto all_done = [&]() {
    for (const ShardState& state : shards) {
      if (!state.done) return false;
    }
    return true;
  };

  bool stopped = false;
  Status failure = Status::OK();
  int64_t steps = 0;
  while (!stopped && !all_done() && failure.ok()) {
    if (options_.max_steps > 0 && ++steps > options_.max_steps) {
      failure = Status::DeadlineExceeded(
          "cluster watchdog: gather exceeded " +
          std::to_string(options_.max_steps) + " scheduler events");
      break;
    }
    // Next event: the earliest of the network and the failover timers.
    double timer_ms = kInf;
    int timer_shard = -1;
    for (int s = 0; s < num_shards; ++s) {
      const ShardState& state = shards[static_cast<size_t>(s)];
      if (state.expected >= 0 && state.deadline < timer_ms) {
        timer_ms = state.deadline;
        timer_shard = s;
      }
    }
    const double net_ms = net.PeekTimeMs();
    if (timer_ms == kInf && net_ms == kInf) {
      failure = Status::Internal("cluster gather stalled with no events");
      break;
    }

    if (timer_ms <= net_ms) {
      // The outstanding batch did not arrive in time. Probe the host: a
      // shard that is merely slow (a long shard scan, a drop-delayed
      // message) gets its fetch re-sent — batches are idempotent, the
      // stale check below discards extras — while a host inside an
      // outage window triggers failover to the next replica.
      clock.Advance(timer_ms - clock.now_ms());
      ShardState& state = shards[static_cast<size_t>(timer_shard)];
      if (HostDown(state.active_host, clock.now_ms())) {
        ++result.failovers;
        static obs::Counter* const failovers = registry.GetCounter(
            "vaq_cluster_failovers_total", {{"mode", "ranked"}});
        failovers->Increment();
        phase.Child("shard" + std::to_string(timer_shard))
            .AddStat("failovers", 1);
        if (state.replicas_used >= options_.num_replicas) {
          failure = Status::Unavailable(
              "shard " + std::to_string(timer_shard) +
              " lost: primary down and no replica left to fail over to");
          break;
        }
        state.active_host = ReplicaHost(timer_shard, state.replicas_used);
        ++state.replicas_used;
      }
      net.Send(kCoordinatorHost, state.active_host, kTagFetch, "fetch",
               std::to_string(timer_shard) + "," +
                   std::to_string(state.expected) + "," + qid,
               16, clock.now_ms());
      state.deadline = clock.now_ms() + options_.failover_timeout_ms;
      continue;
    }

    Delivery delivery;
    // The queue may hold only duplicate copies, which PeekTimeMs reports
    // and NextDelivery suppresses: then there is no message, and the
    // next iteration goes back to the timers.
    if (!net.NextDelivery(&delivery)) continue;
    clock.Advance(delivery.delivered_ms - clock.now_ms());
    const double now = clock.now_ms();

    if (delivery.tag == kTagQuery || delivery.tag == kTagFetch) {
      // A node receives a batch request.
      if (HostDown(delivery.to, now)) {
        static obs::Counter* const lost =
            registry.GetCounter("vaq_cluster_net_lost_outage_total", {});
        lost->Increment();
        continue;  // Lost; the coordinator's timer recovers.
      }
      const size_t comma = delivery.payload.find(',');
      const int shard = std::atoi(delivery.payload.substr(0, comma).c_str());
      const int index = std::atoi(delivery.payload.substr(comma + 1).c_str());
      Node* node = HostNode(delivery.to);
      VAQ_CHECK(node != nullptr);
      double send_ms;
      if (!node->has_run()) {
        auto run_or = node->RunRanked(action, objects, scoring, rvaq);
        if (!run_or.ok()) {
          failure = run_or.status();
          break;
        }
        host_ready_at(delivery.to) = now + (*run_or)->modeled_ms;
        send_ms = host_ready_at(delivery.to);
      } else {
        send_ms = std::max(now, host_ready_at(delivery.to)) + kBatchServeMs;
      }
      const ShardBatch batch = node->Batch(shard, index, options_.batch_size);
      net.Send(delivery.to, kCoordinatorHost, kTagBatch, "batch",
               delivery.payload, batch.wire_bytes, send_ms);
      continue;
    }

    // A batch arrives at the coordinator.
    VAQ_CHECK_EQ(delivery.tag, kTagBatch);
    const size_t comma = delivery.payload.find(',');
    const int shard = std::atoi(delivery.payload.substr(0, comma).c_str());
    const int index = std::atoi(delivery.payload.substr(comma + 1).c_str());
    ShardState& state = shards[static_cast<size_t>(shard)];
    if (state.expected != index) {
      // Stale: a slow primary's batch landing after failover already
      // served this index, or a batch past an already-satisfied stream.
      static obs::Counter* const stale =
          registry.GetCounter("vaq_cluster_stale_batches_total", {});
      stale->Increment();
      continue;
    }
    Node* sender = HostNode(delivery.from);
    VAQ_CHECK(sender != nullptr && sender->has_run());
    // The node echoed the request payload back, query id included — the
    // batch provably belongs to this query's context.
    VAQ_CHECK(delivery.payload.substr(delivery.payload.rfind(',') + 1) == qid);
    ShardBatch batch = sender->Batch(shard, index, options_.batch_size);
    const obs::QueryContext shard_ctx =
        phase.Child("shard" + std::to_string(shard));
    if (!state.folded) {
      // Shard accounting folds exactly once, replica re-runs included.
      const ShardRun* run = sender->run();
      result.merged.accesses += run->accesses;
      result.merged.videos_queried += run->videos_queried;
      result.merged.videos_skipped += run->videos_skipped;
      result.merged.videos_pruned += run->videos_pruned;
      result.merged.candidates_pruned += run->candidates_pruned;
      result.merged.candidate_sequences += run->candidate_sequences;
      result.merged.bai_pulls += run->bai_pulls;
      result.merged.bai_arms_eliminated += run->bai_arms_eliminated;
      result.merged.bai_stops += run->bai_stops;
      result.single_node_ms += run->modeled_ms;
      result.max_shard_ms = std::max(result.max_shard_ms, run->modeled_ms);
      state.folded = true;
      // Load window for elastic rebalancing (replica re-runs count: a
      // failing-over shard really did cost that much scan time).
      shard_load_ms_[static_cast<size_t>(shard)] += run->modeled_ms;
      ShardLoadGauge(shard)->Set(shard_load_ms_[static_cast<size_t>(shard)]);
      shard_ctx.AddMs(run->modeled_ms);
      shard_ctx.AddStat("videos_queried", run->videos_queried);
      shard_ctx.AddStat("videos_skipped", run->videos_skipped);
      if (run->videos_pruned > 0) {
        shard_ctx.AddStat("videos_pruned", run->videos_pruned);
      }
      if (run->candidates_pruned > 0) {
        shard_ctx.AddStat("candidates_pruned", run->candidates_pruned);
      }
      if (run->bai_pulls > 0) {
        shard_ctx.AddStat("bai_pulls", run->bai_pulls);
        shard_ctx.AddStat("bai_arms_eliminated", run->bai_arms_eliminated);
      }
    }
    ++state.consumed_batches;
    ++result.batches_consumed;
    result.entries_consumed += static_cast<int64_t>(batch.entries.size());
    shard_ctx.AddStat("batches", 1);
    shard_ctx.AddStat("entries", static_cast<int64_t>(batch.entries.size()));
    shard_ctx.AddStat("net_bytes", batch.wire_bytes);
    for (ShardEntry& entry : batch.entries) {
      heap.push(entry.merge_score);
      if (heap.size() > static_cast<size_t>(rvaq.k)) heap.pop();
      consumed.push_back(std::move(entry));
    }
    state.bound = batch.next_bound;
    state.expected = -1;
    state.deadline = kInf;
    if (!batch.more) state.done = true;

    // Threshold-algorithm stop: the k-th best consumed score strictly
    // beats anything any shard could still send. Strict, so an unseen
    // candidate tied with the k-th score (which the single-node stable
    // merge might prefer) is never pruned.
    if (heap.size() == static_cast<size_t>(rvaq.k) &&
        heap.top() > remaining_bound()) {
      stopped = true;
      break;
    }
    if (batch.more) {
      net.Send(kCoordinatorHost, state.active_host, kTagFetch, "fetch",
               std::to_string(shard) + "," + std::to_string(index + 1) + "," +
                   qid,
               16, now);
      state.expected = index + 1;
      state.deadline = now + options_.failover_timeout_ms;
    }
  }

  if (!failure.ok()) {
    RankedQueries(/*ok=*/false)->Increment();
    return failure;
  }

  // Unfetched batches were pruned by the bound. The active host may have
  // been promoted moments before the global stop and never executed, so
  // consult any host of the shard that ran — the stopping rule requires
  // every shard to have reported at least once, which requires a run.
  for (int s = 0; s < num_shards; ++s) {
    const ShardState& state = shards[static_cast<size_t>(s)];
    const Node* node = HostNode(s);
    for (int r = 0; (node == nullptr || !node->has_run()) &&
                    r < options_.num_replicas;
         ++r) {
      node = HostNode(ReplicaHost(s, r));
    }
    VAQ_CHECK(node != nullptr && node->has_run());
    const int total = node->NumBatches(options_.batch_size);
    result.batches_pruned += std::max(0, total - static_cast<int>(
                                                     state.consumed_batches));
    result.entries_total +=
        static_cast<int64_t>(node->run()->entries.size());
  }

  // Merge, byte-identical to Repository::TopK: assemble the consumed
  // candidates in (video name, per-video rank) order — the order the
  // single-node loop appends them — then the shared stable merge.
  std::sort(consumed.begin(), consumed.end(),
            [](const ShardEntry& a, const ShardEntry& b) {
              if (a.video != b.video) return a.video < b.video;
              return a.rank_in_video < b.rank_in_video;
            });
  result.merged.top.reserve(consumed.size());
  for (ShardEntry& entry : consumed) {
    result.merged.top.push_back(offline::RepositoryRankedSequence{
        std::move(entry.video), entry.sequence});
  }
  offline::MergeRankedCandidates(&result.merged.top, rvaq.k);
  result.answer_ms = clock.now_ms();
  result.merged.wall_ms = result.answer_ms;  // Virtual, not wall, time.
  result.net = net.stats();

  static obs::Counter* const batches_consumed = registry.GetCounter(
      "vaq_cluster_batches_total", {{"result", "consumed"}});
  static obs::Counter* const batches_pruned = registry.GetCounter(
      "vaq_cluster_batches_total", {{"result", "pruned"}});
  static obs::Counter* const entries_consumed = registry.GetCounter(
      "vaq_cluster_entries_total", {{"result", "consumed"}});
  static obs::Counter* const entries_pruned = registry.GetCounter(
      "vaq_cluster_entries_total", {{"result", "pruned"}});
  static obs::Histogram* const answer_ms =
      registry.GetHistogram("vaq_cluster_answer_ms", AnswerMsBounds());
  RankedQueries(/*ok=*/true)->Increment();
  batches_consumed->Increment(result.batches_consumed);
  batches_pruned->Increment(result.batches_pruned);
  entries_consumed->Increment(result.entries_consumed);
  entries_pruned->Increment(result.entries_total - result.entries_consumed);
  answer_ms->Observe(result.answer_ms);
  latency_->Record(result.answer_ms);
  // Coordinator-level attribution: self_ms is the end-to-end virtual
  // answer latency (the shards' scan ms sits on their child nodes and
  // overlaps it — the scatter–gather runs them in parallel).
  phase.AddMs(result.answer_ms);
  phase.AddStat("shards", num_shards);
  phase.AddStat("batches_consumed", result.batches_consumed);
  phase.AddStat("batches_pruned", result.batches_pruned);
  phase.AddStat("entries_consumed", result.entries_consumed);
  phase.AddStat("entries_pruned",
                result.entries_total - result.entries_consumed);
  phase.AddStat("failovers", result.failovers);
  phase.AddStat("net_messages", result.net.messages);
  phase.AddStat("net_bytes", result.net.bytes);
  return result;
}

StatusOr<query::QueryResult> Coordinator::ExecuteRanked(
    const query::QueryStatement& stmt, const obs::QueryContext& ctx) {
  if (!stmt.IsConjunctive()) {
    return Status::InvalidArgument(
        "cluster ranked execution supports conjunctive statements only "
        "(general CNF ranking is single-node; see DESIGN.md §11)");
  }
  offline::RvaqOptions options;
  options.k = stmt.limit > 0 ? stmt.limit : 5;
  // Cascade planning (WITH RECALL < 1.0), mirroring the single-node
  // session: the plan is made once here and its thresholds ship with the
  // scatter, so every shard prunes locally before binding tables. A
  // target of exactly 1.0 skips this block — no plan, no counters, no
  // extra wire bytes — keeping the exact path byte-identical.
  cascade::CascadePlan plan;
  std::unique_ptr<cascade::PlanFilters> filters;
  int64_t plan_wire_bytes = 0;
  query::QueryResult result;
  if (stmt.recall_target < 1.0) {
    const obs::QueryContext cascade_phase = ctx.Child("cascade");
    if (options_.proxy != nullptr) {
      cascade::Planner planner(options_.proxy);
      VAQ_ASSIGN_OR_RETURN(
          plan, planner.Plan(stmt.action, stmt.objects, stmt.recall_target));
    } else {
      plan.recall_target = stmt.recall_target;  // Exact fallback.
    }
    static obs::CounterSlots plans("vaq_cascade_plans_total", "mode");
    plans.Get(plan.use_cascade ? "cascade" : "exact")->Increment();
    result.cascade_plan = plan.ToString();
    cascade_phase.AddStat("clips_total", plan.clips_total);
    cascade_phase.AddStat("clips_surviving", plan.clips_surviving);
    if (plan.use_cascade) {
      filters.reset(new cascade::PlanFilters(options_.proxy, plan));
      options.prefilter = filters.get();
      plan_wire_bytes = plan.WireBytes();
    }
  }
  // Adaptive sampling (WITH CONFIDENCE δ > 0), mirroring the single-node
  // session: each shard identifies locally with per-video seeds derived
  // from the shared base, so the gather only ever sees batches built from
  // surviving arms — eliminated arms never become wire entries. δ absent
  // or 0 skips the block, keeping the exact path byte-identical.
  std::unique_ptr<bai::SequenceArms> identifier;
  obs::QueryContext bai_phase;
  if (stmt.confidence_delta > 0.0) {
    bai_phase = ctx.Child("bai");
    identifier.reset(new bai::SequenceArms(
        bai::SequenceArms::AtConfidence(stmt.confidence_delta)));
    options.identifier = identifier.get();
    options.identifier_seed = bai::kQueryBaseSeed;  // Nodes derive per video.
  }
  VAQ_ASSIGN_OR_RETURN(ClusterTopKResult cluster,
                       TopK(stmt.action, stmt.objects, scoring_, options, ctx,
                            plan_wire_bytes));
  if (stmt.confidence_delta > 0.0) {
    bai_phase.AddStat("pulls", cluster.merged.bai_pulls);
    bai_phase.AddStat("arms_eliminated", cluster.merged.bai_arms_eliminated);
    bai_phase.AddStat("stops", cluster.merged.bai_stops);
    result.bai_pulls = cluster.merged.bai_pulls;
    result.bai_arms_eliminated = cluster.merged.bai_arms_eliminated;
    result.bai_certificate = bai::RenderAggregateCertificate(
        stmt.confidence_delta, cluster.merged.bai_pulls,
        cluster.merged.bai_arms_eliminated, cluster.merged.bai_stops);
  }
  result.online = false;
  result.accesses = cluster.merged.accesses;
  result.ranked.reserve(cluster.merged.top.size());
  IntervalSet merged;
  for (const offline::RepositoryRankedSequence& entry : cluster.merged.top) {
    result.ranked.push_back(entry.sequence);
    merged.Add(entry.sequence.clips);
  }
  result.sequences = std::move(merged);
  return result;
}

const std::vector<std::string>& LayoutInvariantMetricPrefixes() {
  // Engine-level families: each counts work the per-video scan does
  // exactly once per clean query, wherever the video lives. Plus
  // vaq_cluster_queries_total and vaq_cascade_plans_total, which count
  // per-query outcomes. See the header comment for what is excluded.
  static const std::vector<std::string> prefixes = {
      "vaq_bai_arms_eliminated_total",
      "vaq_bai_pulls_total",
      "vaq_bai_stops_total",
      "vaq_cascade_candidates_pruned_total",
      "vaq_cascade_plans_total",
      "vaq_cascade_videos_pruned_total",
      "vaq_clip_eval_simulated_ms",
      "vaq_clips_degraded_total",
      "vaq_clips_dropped_total",
      "vaq_clips_processed_total",
      "vaq_cluster_queries_total",
      "vaq_model_calls_total",
      "vaq_rvaq_iterations_total",
      "vaq_storage_accesses_total",
  };
  return prefixes;
}

}  // namespace cluster
}  // namespace vaq
