#include "serve/server.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "cascade/store.h"
#include "ckpt/serializer.h"
#include "common/logging.h"
#include "detect/model_profile.h"
#include "query/parser.h"
#include "video/cnf_query.h"
#include "video/query_spec.h"

namespace vaq {
namespace serve {
namespace {

// The repo-wide disk cost model (query/session.h; bench/bench_util.h uses
// the same scale): a seek-like operation costs 5 ms, a sequentially
// streamed row 0.01 ms.
constexpr double kSeekMs = query::kModeledSeekMs;
constexpr double kRowMs = query::kModeledRowMs;
// Modeled cost of writing one snapshot byte (sequential, row-rate scaled
// down to bytes); a snapshot charges one seek plus this per byte.
constexpr double kSnapshotByteMs = 1e-5;

// Snapshot blob record tags (ckpt::Archive framing). Append-only
// within a format version; the record order in the blob is load-bearing
// for recovery — see PersistLocked.
enum SnapshotTag : uint32_t {
  kSnapStanding = 1,       // One standing query incl. its engine blob.
  kSnapStreamPos = 2,      // One stream's clip cursor.
  kSnapBundleStats = 3,    // One model bundle's cumulative stats.
  kSnapCacheCounters = 4,  // SharedDetectionCache reuse accounting.
  kSnapMeta = 5,           // next_id, seq, aggregate ServeStats.
  kSnapMetric = 6,         // One obs registry instrument.
};

// WAL record tags (bare ckpt record stream, no blob header).
enum WalTag : uint32_t {
  kWalAddQuery = 1,  // {id, sql} — logged before admission applies.
  kWalClip = 2,      // {source, clip} — logged before the advance.
};

std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

// Per-advance stat delta over a (possibly shared) bundle's cumulative
// counters. Field-by-field subtraction keeps simulated_ms exact: the
// cumulative values on both sides are bit-identical across a recovery,
// so the differences are too.
detect::ModelStats StatsDelta(const detect::ModelStats& after,
                              const detect::ModelStats& before) {
  detect::ModelStats d;
  d.inferences = after.inferences - before.inferences;
  d.type_queries = after.type_queries - before.type_queries;
  d.simulated_ms = after.simulated_ms - before.simulated_ms;
  d.faults_injected = after.faults_injected - before.faults_injected;
  d.retries = after.retries - before.retries;
  d.failures = after.failures - before.failures;
  d.fallbacks = after.fallbacks - before.fallbacks;
  d.breaker_trips = after.breaker_trips - before.breaker_trips;
  return d;
}

// A query's status: ok, or its code and message.
void PersistStatus(ckpt::Archive& ar, Status& status) {
  bool ok = status.ok();
  ar.Bool(ok);
  if (ok) {
    if (ar.loading()) status = Status::OK();
    return;
  }
  uint32_t code = static_cast<uint32_t>(status.code());
  std::string message(status.message());
  ar.U32(code);
  ar.String(message);
  if (ar.loading()) status = Status(static_cast<StatusCode>(code), message);
}

// One model's cumulative stats, present when the bundle has the model.
template <typename Model>
void PersistModelStats(ckpt::Archive& ar, Model* model, const char* what) {
  bool present = model != nullptr;
  ar.Bool(present);
  if (!present) return;
  if (model == nullptr) {
    ar.Fail(Status::Corruption(std::string("snapshot has ") + what +
                               " stats for a bundle rebuilt without a " +
                               what));
    return;
  }
  model->mutable_stats().Persist(ar);
}

// Cumulative detector/recognizer stats of one bundle (the tracker is
// untouched by the online engines).
void PersistBundleStats(ckpt::Archive& ar, detect::ModelBundle& bundle) {
  PersistModelStats(ar, bundle.detector.get(), "detector");
  PersistModelStats(ar, bundle.recognizer.get(), "recognizer");
}

// WAL record bodies, shared by the append and the replay.
struct WalAddQuery {
  int64_t id = 0;
  std::string sql;
  void Persist(ckpt::Archive& ar) {
    ar.I64(id);
    ar.String(sql);
  }
};

struct WalClip {
  std::string source;
  int64_t clip = 0;
  void Persist(ckpt::Archive& ar) {
    ar.String(source);
    ar.I64(clip);
  }
};

// The framed bytes of one WAL record.
template <typename WalRecord>
std::string FrameWal(uint32_t tag, WalRecord record) {
  ckpt::Archive ar(ckpt::Archive::Framing::kRecordStream);
  ar.Record(tag, [&] { record.Persist(ar); });
  return std::move(ar).TakeBytes();
}

// The engine's snapshot layout: 1 = conjunctive (StreamingSvaqd), 2 = CNF,
// 0 = none (the statement failed to build an engine).
template <typename StandingQuery>
uint32_t EngineKind(const StandingQuery& q) {
  if (q.engine == nullptr) return 0u;
  return q.engine->conjunctive() ? 1u : 2u;
}

}  // namespace

std::string ServeStats::ToString() const {
  std::string out = "{accepted=" + std::to_string(accepted) +
                    ", rejected_overflow=" + std::to_string(rejected_overflow) +
                    ", rejected_tenant_quota=" +
                    std::to_string(rejected_tenant_quota) +
                    ", rejected_parse=" + std::to_string(rejected_parse) +
                    ", rejected_unknown_source=" +
                    std::to_string(rejected_unknown_source) +
                    ", completed=" + std::to_string(completed) +
                    ", failed=" + std::to_string(failed) +
                    ", cache_bundles_created=" +
                    std::to_string(cache_bundles_created) +
                    ", cache_bundle_reuses=" +
                    std::to_string(cache_bundle_reuses) +
                    ", total_simulated_ms=" + FormatMs(total_simulated_ms) +
                    "}";
  return out;
}

Server::Server(ServeOptions options) : options_(options) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  submitted_accepted_ = registry.GetCounter("vaq_serve_submitted_total",
                                            {{"outcome", "accepted"}});
  submitted_rejected_overflow_ = registry.GetCounter(
      "vaq_serve_submitted_total", {{"outcome", "rejected_overflow"}});
  submitted_rejected_parse_ = registry.GetCounter(
      "vaq_serve_submitted_total", {{"outcome", "rejected_parse"}});
  submitted_rejected_unknown_ = registry.GetCounter(
      "vaq_serve_submitted_total", {{"outcome", "rejected_unknown_source"}});
  queue_depth_ = registry.GetGauge("vaq_serve_queue_depth");
  cache_hits_bundle_ = registry.GetCounter("vaq_serve_cache_hits_total",
                                           {{"domain", "bundle"}});
  cache_misses_bundle_ = registry.GetCounter("vaq_serve_cache_misses_total",
                                             {{"domain", "bundle"}});
  cache_hits_inference_ = registry.GetCounter("vaq_serve_cache_hits_total",
                                              {{"domain", "inference"}});
  cache_misses_inference_ = registry.GetCounter("vaq_serve_cache_misses_total",
                                                {{"domain", "inference"}});
  query_ms_online_ =
      registry.GetHistogram("vaq_serve_query_simulated_ms",
                            obs::DefaultLatencyBucketsMs(),
                            {{"kind", "online"}});
  query_ms_ranked_ =
      registry.GetHistogram("vaq_serve_query_simulated_ms",
                            obs::DefaultLatencyBucketsMs(),
                            {{"kind", "ranked"}});
  ckpt_snapshots_ = registry.GetCounter("vaq_ckpt_snapshots_total");
  ckpt_snapshot_bytes_ = registry.GetCounter("vaq_ckpt_snapshot_bytes_total");
  ckpt_wal_records_ = registry.GetCounter("vaq_ckpt_wal_records_total");
  ckpt_snapshot_ms_ = registry.GetHistogram("vaq_ckpt_snapshot_modeled_ms",
                                            obs::DefaultLatencyBucketsMs());
  latency_ = std::make_unique<obs::LatencyRecorder>("vaq_query_latency_ms",
                                                    "serve");
  if (options_.trace_queries) {
    session_trace_ = std::make_unique<obs::QueryTrace>("session");
  }
  if (options_.threads <= 0) {
    // Inline mode: Drain() runs queries on the calling thread with this
    // dedicated accumulator.
    worker_states_.push_back(std::make_unique<WorkerState>());
  }
}

Server::~Server() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void Server::RegisterStream(const std::string& name, synth::Scenario scenario,
                            uint64_t model_seed,
                            online::SvaqdOptions svaqd_options) {
  // The server-level plan covers streams that do not bring their own.
  if (svaqd_options.fault_plan == nullptr) {
    svaqd_options.fault_plan = options_.fault_plan;
  }
  streams_.insert_or_assign(
      name,
      StreamSource{std::move(scenario), model_seed, std::move(svaqd_options)});
}

void Server::RegisterRepository(const std::string& name,
                                storage::VideoIndex index) {
  repositories_.insert_or_assign(name, std::move(index));
}

namespace {

Status DrainedError() {
  obs::MetricRegistry::Global()
      .GetCounter("vaq_serve_submitted_total",
                  {{"outcome", "rejected_terminated"}})
      ->Increment();
  return Status::FailedPrecondition(
      "server already drained; submissions are closed");
}

}  // namespace

StatusOr<int64_t> Server::Submit(const std::string& sql) {
  return Submit(sql, std::string());
}

StatusOr<int64_t> Server::Submit(const std::string& sql,
                                 const std::string& tenant) {
  {
    // Checked before parsing so that *every* post-Drain submission fails
    // the same way, not just well-formed ones.
    std::lock_guard<std::mutex> lock(mu_);
    if (drained_) return DrainedError();
  }
  auto parsed = query::Parse(sql);
  if (!parsed.ok()) {
    submitted_rejected_parse_->Increment();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected_parse;
    return parsed.status();
  }
  PendingQuery pending;
  pending.sql = sql;
  pending.stmt = std::move(parsed).value();
  pending.ranked = pending.stmt.ranked || pending.stmt.limit >= 0;
  pending.source = pending.stmt.video;
  pending.shard = (pending.ranked ? "repo/" : "stream/") + pending.source;
  const bool known = pending.ranked
                         ? repositories_.count(pending.source) > 0
                         : streams_.count(pending.source) > 0;
  if (!known) {
    submitted_rejected_unknown_->Increment();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected_unknown_source;
    return Status::NotFound("no " +
                            std::string(pending.ranked ? "repository"
                                                       : "stream") +
                            " named '" + pending.source + "'");
  }

  std::lock_guard<std::mutex> lock(mu_);
  // Re-checked under the admission lock: a Drain that began while this
  // statement was being parsed closes the door deterministically — the
  // query would otherwise sit in a queue no Drain will ever merge.
  if (drained_) return DrainedError();
  if (!tenant.empty()) {
    // The tenant quota is checked before the global bound so an abusive
    // tenant is shed at *its* limit, never by eating into the shared
    // capacity other tenants are admitted against.
    const auto quota = options_.tenant_quotas.find(tenant);
    if (quota != options_.tenant_quotas.end() &&
        tenant_pending_[tenant] >= quota->second) {
      obs::MetricRegistry::Global()
          .GetCounter("vaq_tenant_submitted_total",
                      {{"outcome", "shed"}, {"tenant", tenant}})
          ->Increment();
      ++stats_.rejected_tenant_quota;
      return Status::ResourceExhausted(
          "tenant '" + tenant + "' over quota (" +
          std::to_string(quota->second) + " pending)");
    }
  }
  if (pending_ >= options_.queue_capacity) {
    submitted_rejected_overflow_->Increment();
    ++stats_.rejected_overflow;
    return Status::Unavailable("submission queue full (" +
                               std::to_string(options_.queue_capacity) +
                               " pending)");
  }
  pending.tenant = tenant;
  if (!tenant.empty()) {
    ++tenant_pending_[tenant];
    std::unique_ptr<obs::LatencyRecorder>& recorder = tenant_latency_[tenant];
    if (recorder == nullptr) {
      recorder = std::make_unique<obs::LatencyRecorder>(
          "vaq_tenant_latency_ms", obs::Labels{{"tenant", tenant}});
    }
    pending.tenant_latency = recorder.get();
    obs::MetricRegistry::Global()
        .GetCounter("vaq_tenant_submitted_total",
                    {{"outcome", "accepted"}, {"tenant", tenant}})
        ->Increment();
  }
  pending.id = next_id_++;
  const int64_t id = pending.id;
  if (options_.trace_queries) {
    // The root span is minted here, on the submitting thread; the worker
    // that later claims the query parents its spans under it.
    pending.trace =
        std::make_shared<obs::QueryTrace>("q" + std::to_string(id));
  }
  shards_[pending.shard].queue.push_back(std::move(pending));
  ++pending_;
  queue_depth_->Set(static_cast<double>(pending_));
  submitted_accepted_->Increment();
  ++stats_.accepted;
  StartWorkersLocked();
  work_cv_.notify_one();
  return id;
}

void Server::StartWorkersLocked() {
  if (options_.threads <= 0 || !workers_.empty() || stopping_) return;
  // First admission starts the pool, so every registration happens-before
  // every worker read of streams_/repositories_.
  workers_.reserve(options_.threads);
  for (int i = 0; i < options_.threads; ++i) {
    worker_states_.push_back(std::make_unique<WorkerState>());
    WorkerState* state = worker_states_.back().get();
    workers_.emplace_back([this, state] { WorkerLoop(state); });
  }
}

bool Server::ClaimNextLocked(PendingQuery* out, Shard** shard) {
  for (auto& [name, s] : shards_) {
    if (s.busy || s.queue.empty()) continue;
    *out = std::move(s.queue.front());
    s.queue.pop_front();
    s.busy = true;
    *shard = &s;
    return true;
  }
  return false;
}

void Server::WorkerLoop(WorkerState* state) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    PendingQuery pending;
    Shard* shard = nullptr;
    if (ClaimNextLocked(&pending, &shard)) {
      lock.unlock();
      ServedQuery done = RunQuery(pending, state);
      lock.lock();
      shard->busy = false;
      --pending_;
      if (!done.tenant.empty()) --tenant_pending_[done.tenant];
      queue_depth_->Set(static_cast<double>(pending_));
      finished_.push_back(std::move(done));
      // The freed shard may have more queued work for an idle peer, and
      // Drain may be waiting for quiescence.
      work_cv_.notify_all();
      drain_cv_.notify_all();
      continue;
    }
    if (stopping_) return;
    work_cv_.wait(lock);
  }
}

ServedQuery Server::RunQuery(const PendingQuery& pending, WorkerState* state) {
  ServedQuery out;
  out.id = pending.id;
  out.sql = pending.sql;
  out.shard = pending.shard;
  out.kind = pending.ranked ? "ranked" : "online";
  out.tenant = pending.tenant;
  out.trace = pending.trace;
  // Cross-thread span parenting: the submitter minted the root; this
  // worker's "execute" span (and everything the engines hang below it)
  // parents under that root. Inactive (one branch) when tracing is off.
  obs::QueryContext root;
  if (pending.trace != nullptr) {
    root = obs::QueryContext{pending.trace.get(), 0};
  }
  const obs::QueryContext exec = root.Child("execute");
  obs::ScopedQueryContext scoped(exec);
  if (pending.ranked) {
    const storage::VideoIndex& index = repositories_.at(pending.source);
    auto run =
        query::ExecuteRankedStatement(pending.stmt, index, scoring_,
                                      cnf_scoring_, exec);
    if (!run.ok()) {
      out.status = run.status();
    } else {
      out.result = std::move(run).value();
      out.simulated_ms = out.result.accesses.ModeledMs(kSeekMs, kRowMs);
      state->accesses.Merge(out.result.accesses);
    }
    query_ms_ranked_->Observe(out.simulated_ms);
  } else {
    const StreamSource& source = streams_.at(pending.source);
    const std::string stack = query::StatementModelStack(pending.stmt.models);
    detect::ModelBundle local_models;
    detect::ModelBundle* models = nullptr;
    if (options_.share_detection_cache) {
      bool created = false;
      models = cache_.Acquire(
          pending.source, stack,
          [&] {
            return query::MakeStatementModels(pending.stmt.models,
                                              source.scenario.truth(),
                                              source.model_seed);
          },
          &created);
      (created ? cache_misses_bundle_ : cache_hits_bundle_)->Increment();
      exec.AddStat(created ? "cache_bundle_misses" : "cache_bundle_hits", 1);
    } else {
      local_models = query::MakeStatementModels(
          pending.stmt.models, source.scenario.truth(), source.model_seed);
      models = &local_models;
    }
    auto run = query::ExecuteOnlineStatement(pending.stmt, source.scenario,
                                             source.options, models, exec);
    if (!run.ok()) {
      out.status = run.status();
    } else {
      out.result = std::move(run).value();
      out.simulated_ms = out.result.detector_stats.simulated_ms +
                         out.result.recognizer_stats.simulated_ms;
      state->detector_stats.Merge(out.result.detector_stats);
      state->recognizer_stats.Merge(out.result.recognizer_stats);
      // Score lookups answered without a fresh network invocation —
      // within-query memoization plus, under the shared cache, reuse of
      // other queries' inferences on the same source.
      const int64_t lookups = out.result.detector_stats.type_queries +
                              out.result.recognizer_stats.type_queries;
      const int64_t fresh = out.result.detector_stats.inferences +
                            out.result.recognizer_stats.inferences;
      cache_misses_inference_->Increment(fresh);
      cache_hits_inference_->Increment(lookups - fresh);
      exec.AddStat("inference_cache_hits", lookups - fresh);
    }
    query_ms_online_->Observe(out.simulated_ms);
  }
  latency_->Record(out.simulated_ms);
  if (pending.tenant_latency != nullptr) {
    pending.tenant_latency->Record(out.simulated_ms);
  }
  if (!pending.tenant.empty()) {
    obs::MetricRegistry::Global()
        .GetCounter("vaq_tenant_queries_total",
                    {{"outcome", out.status.ok() ? "ok" : "error"},
                     {"tenant", pending.tenant}})
        ->Increment();
  }
  obs::MetricRegistry::Global()
      .GetCounter("vaq_serve_queries_total",
                  {{"kind", out.kind},
                   {"outcome", out.status.ok() ? "ok" : "error"}})
      ->Increment();
  state->simulated_ms += out.simulated_ms;
  ++state->completed;
  if (!out.status.ok()) ++state->failed;
  return out;
}

void Server::MergeWorkerStatsLocked() {
  for (const std::unique_ptr<WorkerState>& state : worker_states_) {
    stats_.detector_stats.Merge(state->detector_stats);
    stats_.recognizer_stats.Merge(state->recognizer_stats);
    stats_.accesses.Merge(state->accesses);
    stats_.total_simulated_ms += state->simulated_ms;
    stats_.completed += state->completed;
    stats_.failed += state->failed;
    *state = WorkerState();  // Merged exactly once across Drains.
  }
  stats_.cache_bundles_created = cache_.bundles_created();
  stats_.cache_bundle_reuses = cache_.bundle_reuses();
}

std::vector<ServedQuery> Server::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  // Terminal from this point on: Submit calls that have not been
  // admitted yet fail with kFailedPrecondition, so the admitted set —
  // and therefore the merged statistics — is exact when the wait below
  // finishes.
  drained_ = true;
  if (options_.threads <= 0) {
    WorkerState* state = worker_states_.front().get();
    PendingQuery pending;
    Shard* shard = nullptr;
    while (ClaimNextLocked(&pending, &shard)) {
      lock.unlock();
      ServedQuery done = RunQuery(pending, state);
      lock.lock();
      shard->busy = false;
      --pending_;
      if (!done.tenant.empty()) --tenant_pending_[done.tenant];
      queue_depth_->Set(static_cast<double>(pending_));
      finished_.push_back(std::move(done));
    }
  } else {
    drain_cv_.wait(lock, [this] { return pending_ == 0; });
  }
  MergeWorkerStatsLocked();
  std::vector<ServedQuery> out;
  out.swap(finished_);
  std::sort(out.begin(), out.end(),
            [](const ServedQuery& a, const ServedQuery& b) {
              return a.id < b.id;
            });
  return out;
}

ServeStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

StatusOr<int64_t> Server::AddStandingQuery(const std::string& sql) {
  std::lock_guard<std::mutex> lock(mu_);
  if (drained_ || standing_finished_) {
    return Status::FailedPrecondition("standing admission is closed");
  }
  auto parsed = query::Parse(sql);
  if (!parsed.ok()) {
    submitted_rejected_parse_->Increment();
    ++stats_.rejected_parse;
    return parsed.status();
  }
  query::QueryStatement stmt = std::move(parsed).value();
  if (stmt.ranked || stmt.limit >= 0) {
    submitted_rejected_parse_->Increment();
    ++stats_.rejected_parse;
    return Status::InvalidArgument(
        "standing queries are online; ranked statements go through Submit");
  }
  if (streams_.count(stmt.video) == 0) {
    submitted_rejected_unknown_->Increment();
    ++stats_.rejected_unknown_source;
    return Status::NotFound("no stream named '" + stmt.video + "'");
  }
  auto pos = stream_pos_.find(stmt.video);
  if (pos != stream_pos_.end() && pos->second > 0) {
    return Status::FailedPrecondition("stream '" + stmt.video +
                                      "' has already advanced");
  }
  const int64_t id = next_id_;
  if (options_.checkpoint_store != nullptr) {
    // Log-before-apply: a crash right after this append replays the
    // admission; a crash right before it loses a query that was never
    // acknowledged to the caller.
    VAQ_RETURN_IF_ERROR(
        AppendWalLocked(FrameWal(kWalAddQuery, WalAddQuery{id, sql})));
  }
  ++next_id_;
  VAQ_RETURN_IF_ERROR(AdmitStandingLocked(id, sql, std::move(stmt)));
  return id;
}

Status Server::AdmitStandingLocked(int64_t id, const std::string& sql,
                                   query::QueryStatement stmt) {
  auto owner = std::make_unique<StandingQuery>();
  StandingQuery& q = *owner;
  q.id = id;
  q.sql = sql;
  q.source = stmt.video;
  q.stack = query::StatementModelStack(stmt.models);
  if (options_.trace_queries) {
    q.trace = std::make_shared<obs::QueryTrace>("q" + std::to_string(id));
  }
  q.stmt = std::move(stmt);
  const StreamSource& source = streams_.at(q.source);
  if (options_.share_detection_cache) {
    bool created = false;
    q.models = cache_.Acquire(
        q.source, q.stack,
        [&] {
          return query::MakeStatementModels(q.stmt.models,
                                            source.scenario.truth(),
                                            source.model_seed);
        },
        &created);
    (created ? cache_misses_bundle_ : cache_hits_bundle_)->Increment();
  } else {
    q.owned_models = query::MakeStatementModels(
        q.stmt.models, source.scenario.truth(), source.model_seed);
    q.models = &q.owned_models;
  }
  if (q.stmt.IsConjunctive()) {
    auto spec = QuerySpec::FromNames(source.scenario.vocab(), q.stmt.action,
                                     q.stmt.objects);
    if (!spec.ok()) {
      q.status = spec.status();
      q.finished = true;
    } else {
      q.engine = std::make_unique<online::StreamingSvaqd>(
          std::move(spec).value(), source.scenario.layout(), source.options,
          online::StreamingSvaqd::Callback());
    }
  } else {
    auto cnf =
        CnfQuery::FromNames(source.scenario.vocab(), q.stmt.cnf_clauses);
    if (!cnf.ok()) {
      q.status = cnf.status();
      q.finished = true;
    } else {
      q.engine = std::make_unique<online::CnfStream>(
          std::move(cnf).value(), source.scenario.layout(),
          online::CnfEngineOptions{source.options});
    }
  }
  if (q.stmt.recall_target < 1.0 && q.status.ok()) {
    VAQ_RETURN_IF_ERROR(PlanStandingCascadeLocked(&q, source));
  }
  stream_pos_.emplace(q.source, 0);
  standing_.push_back(std::move(owner));
  submitted_accepted_->Increment();
  ++stats_.accepted;
  return Status::OK();
}

Status Server::PlanStandingCascadeLocked(StandingQuery* q,
                                         const StreamSource& source) {
  cascade::CascadePlan plan;
  if (q->stmt.IsConjunctive()) {
    cascade::ProxySet& set = proxies_[q->source];
    if (set.find(q->source) == set.end()) {
      // First approximate query on this stream: load the persisted proxy
      // index (or build it from the scenario and persist it). A stale or
      // damaged entry rebuilds — scores are a pure function of
      // (seed, concept, clip), so the result is the same either way.
      VAQ_ASSIGN_OR_RETURN(
          cascade::ProxyVideoIndex index,
          cascade::LoadOrBuildProxyIndex(
              options_.checkpoint_store, q->source, source.scenario,
              detect::ModelProfile::ProxyCnn(), source.model_seed));
      set.emplace(q->source, std::move(index));
    }
    cascade::Planner planner(&set);
    VAQ_ASSIGN_OR_RETURN(plan, planner.Plan(q->stmt.action, q->stmt.objects,
                                            q->stmt.recall_target));
  } else {
    // CNF statements are outside the planner's cost model: exact path.
    plan.recall_target = q->stmt.recall_target;
  }
  obs::MetricRegistry::Global()
      .GetCounter("vaq_cascade_plans_total",
                  {{"mode", plan.use_cascade ? "cascade" : "exact"}})
      ->Increment();
  q->cascade_plan = plan.ToString();
  if (plan.use_cascade) {
    cascade::PlanFilters filters(&proxies_[q->source], plan);
    const IntervalSet* surviving = filters.SurvivingClips(q->source);
    if (surviving != nullptr) {
      q->surviving = *surviving;
      q->cascade_active = true;
    }
  }
  return Status::OK();
}

Status Server::AdvanceStream(const std::string& source) {
  std::lock_guard<std::mutex> lock(mu_);
  return AdvanceStreamLocked(source);
}

Status Server::WalTornAdvance(const std::string& source) {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.checkpoint_store == nullptr) {
    return Status::FailedPrecondition(
        "torn advance needs a checkpoint store");
  }
  if (standing_finished_) {
    return Status::FailedPrecondition("standing queries already finished");
  }
  auto it = streams_.find(source);
  if (it == streams_.end()) {
    return Status::NotFound("no stream named '" + source + "'");
  }
  auto pos_it = stream_pos_.find(source);
  const int64_t pos = pos_it == stream_pos_.end() ? 0 : pos_it->second;
  const int64_t num_clips = it->second.scenario.layout().NumClips();
  if (pos >= num_clips) {
    return Status::OutOfRange("stream '" + source + "' is exhausted (" +
                              std::to_string(num_clips) + " clips)");
  }
  return AppendWalLocked(FrameWal(kWalClip, WalClip{source, pos}));
}

Status Server::AdvanceStreamLocked(const std::string& source) {
  if (standing_finished_) {
    return Status::FailedPrecondition("standing queries already finished");
  }
  auto it = streams_.find(source);
  if (it == streams_.end()) {
    return Status::NotFound("no stream named '" + source + "'");
  }
  auto pos_it = stream_pos_.find(source);
  const int64_t pos = pos_it == stream_pos_.end() ? 0 : pos_it->second;
  const int64_t num_clips = it->second.scenario.layout().NumClips();
  if (pos >= num_clips) {
    return Status::OutOfRange("stream '" + source + "' is exhausted (" +
                              std::to_string(num_clips) + " clips)");
  }
  if (options_.checkpoint_store != nullptr && !replaying_) {
    // Log-before-apply, clip granularity: after a crash the replay
    // re-runs this advance on engines restored to exactly this position.
    VAQ_RETURN_IF_ERROR(
        AppendWalLocked(FrameWal(kWalClip, WalClip{source, pos})));
  }
  double advance_ms = 0.0;
  for (const std::unique_ptr<StandingQuery>& owner : standing_) {
    StandingQuery& q = *owner;
    if (q.source != source || q.finished || !q.status.ok()) continue;
    const detect::ModelStats det_before =
        q.models->detector != nullptr ? q.models->detector->stats()
                                      : detect::ModelStats();
    const detect::ModelStats rec_before =
        q.models->recognizer != nullptr ? q.models->recognizer->stats()
                                        : detect::ModelStats();
    // Every clip of a standing query folds into its single "advance"
    // node; installing the context here routes the resilient wrappers'
    // per-outcome call counts onto it as well.
    obs::QueryContext adv;
    if (q.trace != nullptr) {
      adv = obs::QueryContext{q.trace.get(), 0}.Child("advance");
    }
    obs::ScopedQueryContext scoped(adv);
    // Cascade prefilter: a clip the proxy ruled out advances the engine
    // without any model call (per-query proxy-vs-expensive attribution
    // lands on the advance node as clips_pruned).
    const bool pruned = q.cascade_active && !q.surviving.Contains(pos);
    StatusOr<bool> indicator =
        pruned ? q.engine->PushPrunedClip()
               : q.engine->PushClip(q.models->detector.get(),
                                    q.models->recognizer.get());
    if (!indicator.ok()) {
      q.status = indicator.status();
      q.finished = true;
      continue;
    }
    const detect::ModelStats det_delta =
        q.models->detector != nullptr
            ? StatsDelta(q.models->detector->stats(), det_before)
            : detect::ModelStats();
    const detect::ModelStats rec_delta =
        q.models->recognizer != nullptr
            ? StatsDelta(q.models->recognizer->stats(), rec_before)
            : detect::ModelStats();
    q.det_acc += det_delta;
    q.rec_acc += rec_delta;
    advance_ms += det_delta.simulated_ms + rec_delta.simulated_ms;
    adv.AddMs(det_delta.simulated_ms + rec_delta.simulated_ms);
    adv.AddStat("clips", 1);
    adv.AddStat("detector_inferences", det_delta.inferences);
    adv.AddStat("recognizer_inferences", rec_delta.inferences);
    if (pruned) {
      ++q.clips_pruned;
      adv.AddStat("clips_pruned", 1);
      obs::MetricRegistry::Global()
          .GetCounter("vaq_cascade_standing_clips_pruned_total")
          ->Increment();
    }
  }
  stream_pos_[source] = pos + 1;
  ++clips_since_snapshot_;
  sim_ms_since_snapshot_ += advance_ms;
  if (options_.checkpoint_store != nullptr && !replaying_) {
    const bool clips_due =
        options_.snapshot_every_clips > 0 &&
        clips_since_snapshot_ >= options_.snapshot_every_clips;
    const bool ms_due = options_.snapshot_every_ms > 0 &&
                        sim_ms_since_snapshot_ >= options_.snapshot_every_ms;
    if (clips_due || ms_due) {
      VAQ_RETURN_IF_ERROR(CheckpointLocked());
    }
  }
  return Status::OK();
}

std::vector<ServedQuery> Server::FinishStanding() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ServedQuery> out;
  out.reserve(standing_.size());
  for (const std::unique_ptr<StandingQuery>& owner : standing_) {
    StandingQuery& q = *owner;
    if (!q.finished) {
      if (q.engine != nullptr) q.engine->Finish();
      q.finished = true;
    }
    ServedQuery served;
    served.id = q.id;
    served.sql = q.sql;
    served.shard = "stream/" + q.source;
    served.kind = "online";
    served.status = q.status;
    served.trace = q.trace;
    if (q.status.ok()) {
      served.result.online = true;
      if (q.engine != nullptr) {
        served.result.sequences = q.engine->sequences();
        served.result.degraded_clips = q.engine->degraded_clips();
        served.result.dropped_clips = q.engine->dropped_clips();
      }
      served.result.detector_stats = q.det_acc;
      served.result.recognizer_stats = q.rec_acc;
      served.result.cascade_plan = q.cascade_plan;
      served.result.clips_pruned = q.clips_pruned;
      served.simulated_ms = q.det_acc.simulated_ms + q.rec_acc.simulated_ms;
      stats_.detector_stats.Merge(q.det_acc);
      stats_.recognizer_stats.Merge(q.rec_acc);
      const int64_t lookups = q.det_acc.type_queries + q.rec_acc.type_queries;
      const int64_t fresh = q.det_acc.inferences + q.rec_acc.inferences;
      cache_misses_inference_->Increment(fresh);
      cache_hits_inference_->Increment(lookups - fresh);
    }
    query_ms_online_->Observe(served.simulated_ms);
    latency_->Record(served.simulated_ms);
    obs::MetricRegistry::Global()
        .GetCounter("vaq_serve_queries_total",
                    {{"kind", "online"},
                     {"outcome", served.status.ok() ? "ok" : "error"}})
        ->Increment();
    stats_.total_simulated_ms += served.simulated_ms;
    ++stats_.completed;
    if (!served.status.ok()) ++stats_.failed;
    out.push_back(std::move(served));
  }
  stats_.cache_bundles_created = cache_.bundles_created();
  stats_.cache_bundle_reuses = cache_.bundle_reuses();
  standing_finished_ = true;
  return out;
}

int64_t Server::StreamPosition(const std::string& source) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stream_pos_.find(source);
  return it == stream_pos_.end() ? 0 : it->second;
}

Status Server::AppendWalLocked(const std::string& record) {
  // Segment wal-K collects the records logged while the next snapshot
  // will be snap-K; recovery from snap-S replays segments K > S.
  VAQ_RETURN_IF_ERROR(
      options_.checkpoint_store->Append(ckpt::WalName(ckpt_seq_), record));
  ckpt_wal_records_->Increment();
  if (session_trace_ != nullptr) {
    const obs::QueryContext wal =
        obs::QueryContext{session_trace_.get(), 0}.Child("wal_append");
    wal.AddStat("records", 1);
    wal.AddStat("bytes", static_cast<int64_t>(record.size()));
  }
  return Status::OK();
}

Status Server::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  return CheckpointLocked();
}

Status Server::CheckpointLocked() {
  ckpt::Store* store = options_.checkpoint_store;
  if (store == nullptr) {
    return Status::FailedPrecondition("no checkpoint store configured");
  }
  ckpt::Archive snap;
  PersistLocked(snap);
  const std::string blob = std::move(snap).TakeBytes();
  VAQ_RETURN_IF_ERROR(store->Put(ckpt::SnapshotName(ckpt_seq_), blob));
  // Keep this snapshot, the fallback F (the newest snapshot known good:
  // usually this one's predecessor, after a recovery the one restored)
  // and the WAL segments after F, which roll it forward to this state.
  // Everything else goes, including snapshots a recovery rejected.
  auto listed = store->List();
  if (listed.ok()) {
    for (const std::string& name : *listed) {
      auto snap_seq = ckpt::SnapshotSeq(name);
      if (snap_seq.ok() && *snap_seq != ckpt_seq_ &&
          *snap_seq != ckpt_fallback_seq_) {
        VAQ_RETURN_IF_ERROR(store->Delete(name));
        continue;
      }
      auto wal_seq = ckpt::WalSeq(name);
      if (wal_seq.ok() && *wal_seq <= ckpt_fallback_seq_) {
        VAQ_RETURN_IF_ERROR(store->Delete(name));
      }
    }
  }
  ckpt_snapshots_->Increment();
  ckpt_snapshot_bytes_->Increment(static_cast<int64_t>(blob.size()));
  ckpt_snapshot_ms_->Observe(kSeekMs +
                             static_cast<double>(blob.size()) * kSnapshotByteMs);
  if (session_trace_ != nullptr) {
    const obs::QueryContext snap_ctx =
        obs::QueryContext{session_trace_.get(), 0}.Child("snapshot");
    snap_ctx.AddMs(kSeekMs + static_cast<double>(blob.size()) * kSnapshotByteMs);
    snap_ctx.AddStat("snapshots", 1);
    snap_ctx.AddStat("bytes", static_cast<int64_t>(blob.size()));
  }
  ckpt_fallback_seq_ = ckpt_seq_++;
  clips_since_snapshot_ = 0;
  sim_ms_since_snapshot_ = 0.0;
  return Status::OK();
}

StatusOr<ckpt::RecoveryReport> Server::Recover() {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.checkpoint_store == nullptr) {
    return Status::FailedPrecondition("no checkpoint store configured");
  }
  if (next_id_ != 0 || !standing_.empty()) {
    return Status::FailedPrecondition(
        "Recover requires a freshly constructed server");
  }
  replaying_ = true;
  ckpt::RecoveryDriver driver(options_.checkpoint_store, options_.fault_plan);
  ckpt::RecoveryHooks hooks;
  hooks.restore = [this](uint32_t /*version*/,
                         const std::vector<ckpt::Record>& records) {
    ckpt::Archive ar(records);
    PersistLocked(ar);
    return ar.status();
  };
  hooks.replay = [this](const ckpt::Record& record) {
    return ReplayWalLocked(record);
  };
  auto report = driver.Run(hooks);
  replaying_ = false;
  if (report.ok()) {
    // Resume past every snapshot in the store and at its newest WAL
    // segment, not past the restored snapshot: after a fallback over a
    // corrupt snap-S, restored + 1 would reuse the name snap-S and append
    // to a segment the fallback replayed ahead of newer ones. Segment
    // wal-(S+1) belongs to the next snapshot, so new records continue it.
    VAQ_ASSIGN_OR_RETURN(const std::vector<std::string> names,
                         options_.checkpoint_store->List());
    for (const std::string& name : names) {
      if (auto seq = ckpt::SnapshotSeq(name); seq.ok()) {
        ckpt_seq_ = std::max(ckpt_seq_, *seq + 1);
      } else if (auto wal = ckpt::WalSeq(name); wal.ok()) {
        ckpt_seq_ = std::max(ckpt_seq_, *wal);
      }
    }
    if (!report->snapshot.empty()) {
      VAQ_ASSIGN_OR_RETURN(ckpt_fallback_seq_,
                           ckpt::SnapshotSeq(report->snapshot));
    }
  }
  if (report.ok() && session_trace_ != nullptr) {
    const obs::QueryContext rec =
        obs::QueryContext{session_trace_.get(), 0}.Child("recover");
    rec.AddStat("recoveries", 1);
    rec.AddStat("snapshot_restored", report->snapshot.empty() ? 0 : 1);
    rec.AddStat("snapshots_rejected", report->snapshots_rejected);
    rec.AddStat("wal_records_replayed", report->wal_records);
    rec.AddStat("wal_bytes_dropped", report->wal_bytes_dropped);
  }
  return report;
}

void Server::PersistLocked(ckpt::Archive& ar) {
  // Record order is the format and load-bearing: loading applies records
  // in blob order, and rebuilding the standing queries (kSnapStanding)
  // bumps admission counters and cache accounting as a side effect — the
  // authoritative values (kSnapCacheCounters, kSnapMeta, kSnapMetric)
  // therefore come *after* and overwrite them.
  if (!ar.loading()) {
    for (const std::unique_ptr<StandingQuery>& q : standing_) {
      ar.Record(kSnapStanding, [&] { PersistStandingLocked(ar, q.get()); });
    }
  } else {
    while (ar.Record(kSnapStanding,
                     [&] { PersistStandingLocked(ar, nullptr); })) {
    }
  }

  std::string source;
  int64_t pos = 0;
  const auto stream_pos = [&] {
    ar.String(source);
    ar.I64(pos);
  };
  if (!ar.loading()) {
    for (const auto& [name, at] : stream_pos_) {
      source = name;
      pos = at;
      ar.Record(kSnapStreamPos, stream_pos);
    }
  } else {
    while (ar.Record(kSnapStreamPos, stream_pos)) stream_pos_[source] = pos;
  }

  // A bundle is addressed by the query id when a query owns it, by
  // (source, stack) when the shared cache does.
  bool owned = false;
  int64_t owner_id = 0;
  std::string stack;
  detect::ModelBundle* bundle = nullptr;
  const auto bundle_stats = [&] {
    ar.Bool(owned);
    if (owned) {
      ar.I64(owner_id);
    } else {
      ar.String(source);
      ar.String(stack);
    }
    if (ar.loading()) {
      bundle = nullptr;
      if (owned) {
        for (const std::unique_ptr<StandingQuery>& q : standing_) {
          if (q->id == owner_id && q->models == &q->owned_models) {
            bundle = &q->owned_models;
            break;
          }
        }
      } else {
        bundle = cache_.Find(source, stack);
      }
    }
    if (bundle == nullptr) {
      ar.Fail(Status::Corruption("snapshot references a model bundle the "
                                 "rebuilt session does not have"));
      return;
    }
    PersistBundleStats(ar, *bundle);
  };
  if (ar.loading()) {
    while (ar.Record(kSnapBundleStats, bundle_stats)) {
    }
  } else if (options_.share_detection_cache) {
    cache_.ForEach([&](const std::string& cached_source,
                       const std::string& cached_stack,
                       detect::ModelBundle* cached) {
      owned = false;
      source = cached_source;
      stack = cached_stack;
      bundle = cached;
      ar.Record(kSnapBundleStats, bundle_stats);
    });
  } else {
    for (const std::unique_ptr<StandingQuery>& q : standing_) {
      if (q->models != &q->owned_models) continue;
      owned = true;
      owner_id = q->id;
      bundle = &q->owned_models;
      ar.Record(kSnapBundleStats, bundle_stats);
    }
  }

  ar.Record(kSnapCacheCounters, [&] { cache_.PersistCounters(ar); });
  ar.Record(kSnapMeta, [&] {
    int64_t next_id = next_id_;
    // Loading ignores the saved sequence: Recover resumes numbering past
    // every name in the store.
    int64_t seq = ckpt_seq_;
    ar.I64(next_id);
    ar.I64(seq);
    ar.I64(stats_.accepted);
    ar.I64(stats_.rejected_overflow);
    ar.I64(stats_.rejected_parse);
    ar.I64(stats_.rejected_unknown_source);
    ar.I64(stats_.completed);
    ar.I64(stats_.failed);
    ar.F64(stats_.total_simulated_ms);
    next_id_ = std::max(next_id_, next_id);
  });

  // Every registry instrument except the checkpoint subsystem's own
  // families: restoring those would mask the corruption/recovery counts
  // the *recovering* process accumulates while reading this very blob.
  // Not saved at all when the registry is shared beyond this server
  // (ServeOptions::snapshot_metrics == false).
  if (!ar.loading()) {
    if (!options_.snapshot_metrics) return;
    obs::Snapshot metrics = obs::MetricRegistry::Global().TakeSnapshot();
    for (obs::Snapshot::Entry& entry : metrics.entries) {
      if (entry.name.rfind("vaq_ckpt_", 0) == 0) continue;
      ar.Record(kSnapMetric, [&] { entry.Persist(ar); });
    }
  } else {
    obs::Snapshot metrics;
    while (ar.Record(kSnapMetric,
                     [&] { metrics.entries.emplace_back().Persist(ar); })) {
    }
    if (ar.ok()) obs::RestoreSnapshot(metrics);
  }
}

void Server::PersistStandingLocked(ckpt::Archive& ar, StandingQuery* q) {
  int64_t id = 0;
  std::string sql;
  ar.I64(q != nullptr ? q->id : id);
  ar.String(q != nullptr ? q->sql : sql);
  if (q == nullptr) {
    // Loading: rebuild the query — engine, models, cascade plan — from its
    // SQL, then read the rest of the record into it.
    if (!ar.ok()) return;
    auto parsed = query::Parse(sql);
    if (!parsed.ok()) {
      ar.Fail(Status::Corruption("unparsable standing query in snapshot: " +
                                 parsed.status().ToString()));
      return;
    }
    const Status admitted =
        AdmitStandingLocked(id, sql, std::move(parsed).value());
    if (!admitted.ok()) {
      ar.Fail(admitted);
      return;
    }
    q = standing_.back().get();
    next_id_ = std::max(next_id_, id + 1);
  }
  PersistStatus(ar, q->status);
  ar.Bool(q->finished);
  uint32_t kind = EngineKind(*q);
  ar.U32(kind);
  if (kind != EngineKind(*q)) {
    ar.Fail(Status::Corruption(
        "engine kind mismatch for standing query #" + std::to_string(q->id) +
        " (were the registrations changed since the snapshot?)"));
    return;
  }
  if (q->engine != nullptr) {
    ar.Blob([&] { q->engine->Persist(ar); });
  } else {
    std::string no_engine;
    ar.String(no_engine);
  }
  q->det_acc.Persist(ar);
  q->rec_acc.Persist(ar);
  // Cascade pruning is an accumulator, not derivable from the engine
  // state: the plan (thresholds, surviving set) is replanned
  // deterministically at admission, but clips pruned before this
  // snapshot would otherwise be forgotten by a recovered session.
  ar.I64(q->clips_pruned);
}

Status Server::ReplayWalLocked(const ckpt::Record& record) {
  ckpt::Archive ar(std::span<const ckpt::Record>(&record, 1));
  WalAddQuery add;
  if (ar.Record(kWalAddQuery, [&] { add.Persist(ar); })) {
    VAQ_RETURN_IF_ERROR(ar.status());
    for (const std::unique_ptr<StandingQuery>& q : standing_) {
      if (q->id == add.id) return Status::OK();  // Snapshot already has it.
    }
    if (add.id != next_id_) {
      return Status::Corruption("WAL admission out of order: got #" +
                                std::to_string(add.id) + ", expected #" +
                                std::to_string(next_id_));
    }
    auto parsed = query::Parse(add.sql);
    if (!parsed.ok()) {
      return Status::Corruption("unparsable standing query in WAL: " +
                                parsed.status().ToString());
    }
    next_id_ = add.id + 1;
    return AdmitStandingLocked(add.id, add.sql, std::move(parsed).value());
  }
  WalClip clip;
  if (ar.Record(kWalClip, [&] { clip.Persist(ar); })) {
    VAQ_RETURN_IF_ERROR(ar.status());
    auto it = stream_pos_.find(clip.source);
    const int64_t pos = it == stream_pos_.end() ? 0 : it->second;
    if (clip.clip < pos) return Status::OK();  // Snapshot already covers it.
    if (clip.clip > pos) {
      return Status::Corruption(
          "WAL gap on stream '" + clip.source + "': log resumes at clip " +
          std::to_string(clip.clip) + " but the snapshot ends at " +
          std::to_string(pos));
    }
    return AdvanceStreamLocked(clip.source);
  }
  return Status::OK();  // A newer writer's record type: skip.
}

double ModeledMakespanMs(const std::vector<ServedQuery>& queries,
                         int threads) {
  if (queries.empty()) return 0.0;
  // Rebuild the per-shard FIFO chains in admission order.
  std::vector<const ServedQuery*> ordered;
  ordered.reserve(queries.size());
  for (const ServedQuery& q : queries) ordered.push_back(&q);
  std::sort(ordered.begin(), ordered.end(),
            [](const ServedQuery* a, const ServedQuery* b) {
              return a->id < b->id;
            });
  std::map<std::string, std::deque<double>> chains;
  for (const ServedQuery* q : ordered) {
    chains[q->shard].push_back(q->simulated_ms);
  }
  if (threads < 1) threads = 1;
  std::vector<double> worker_free(static_cast<size_t>(threads), 0.0);
  std::map<std::string, double> shard_free;
  for (const auto& [name, chain] : chains) shard_free[name] = 0.0;
  size_t remaining = queries.size();
  double makespan = 0.0;
  while (remaining > 0) {
    // The worker that frees up first claims next (lowest index on ties).
    size_t w = 0;
    for (size_t i = 1; i < worker_free.size(); ++i) {
      if (worker_free[i] < worker_free[w]) w = i;
    }
    const double t = worker_free[w];
    std::deque<double>* chain = nullptr;
    double* free_at = nullptr;
    for (auto& [name, c] : chains) {
      if (c.empty() || shard_free[name] > t) continue;
      chain = &c;
      free_at = &shard_free[name];
      break;
    }
    if (chain == nullptr) {
      // Every runnable shard is still pinned to another worker: idle until
      // the earliest one frees.
      double next = std::numeric_limits<double>::infinity();
      for (const auto& [name, c] : chains) {
        if (!c.empty() && shard_free[name] < next) next = shard_free[name];
      }
      worker_free[w] = next;
      continue;
    }
    const double cost = chain->front();
    chain->pop_front();
    --remaining;
    const double end = t + cost;
    *free_at = end;
    worker_free[w] = end;
    if (end > makespan) makespan = end;
  }
  return makespan;
}

std::string DescribeServedQuery(const ServedQuery& q) {
  std::string out = "#" + std::to_string(q.id) + " [" + q.kind + "] " +
                    q.shard;
  // Tenant tag (tenant-tagged submissions only, so untagged output is
  // byte-identical to pre-tenant builds).
  if (!q.tenant.empty()) out += " tenant=" + q.tenant;
  if (!q.status.ok()) {
    return out + " ERROR " + q.status.ToString();
  }
  out += " simulated_ms=" + FormatMs(q.simulated_ms);
  out += " seq=" + q.result.sequences.ToString();
  if (q.result.online) {
    out += " det=" + q.result.detector_stats.ToString() +
           " rec=" + q.result.recognizer_stats.ToString();
    if (q.result.degraded_clips > 0 || q.result.dropped_clips > 0) {
      out += " degraded=" + std::to_string(q.result.degraded_clips) +
             " dropped=" + std::to_string(q.result.dropped_clips);
    }
    // Proxy-vs-expensive attribution; exact queries render unchanged.
    if (!q.result.cascade_plan.empty()) {
      out += " clips_pruned=" + std::to_string(q.result.clips_pruned) +
             " cascade=" + q.result.cascade_plan;
    }
  } else {
    out += " ranked=[";
    for (size_t i = 0; i < q.result.ranked.size(); ++i) {
      const offline::RankedSequence& seq = q.result.ranked[i];
      if (i > 0) out += ", ";
      char buf[64];
      std::snprintf(buf, sizeof(buf), " lb=%.6f ub=%.6f",
                    seq.lower_bound, seq.upper_bound);
      out += seq.clips.ToString() + buf;
    }
    out += "] accesses=" + q.result.accesses.ToString();
    // Adaptive-sampling certificate (WITH CONFIDENCE δ > 0 only, so
    // exact queries render unchanged). The chaos byte-identity oracle
    // strips exactly this " bai=..." token — the documented certificate
    // relaxation — before comparing against the fault-free reference.
    if (!q.result.bai_certificate.empty()) {
      out += " bai=" + q.result.bai_certificate;
    }
  }
  return out;
}

const std::vector<std::string>& LogicalMetricPrefixes() {
  // Thread-count-invariant families for a fixed seed and workload: event
  // counts and simulated milliseconds. Deliberately absent:
  // vaq_serve_queue_depth (scheduling-dependent gauge) and
  // vaq_serve_submitted_total (overflow rejections depend on how fast
  // workers drain relative to submitters).
  static const std::vector<std::string>* const prefixes =
      new std::vector<std::string>{
          "vaq_serve_queries_total",
          "vaq_serve_cache_",
          "vaq_serve_query_simulated_ms",
          "vaq_model_",
          "vaq_breaker_",
          // Pure function of the per-query sample multiset, which the
          // deterministic shard schedule fixes regardless of threads.
          "vaq_query_latency_ms",
          // Per-tenant completion counts and service-latency gauges are
          // logical for the same reasons as the two families above.
          // vaq_tenant_submitted_total is deliberately absent, like
          // vaq_serve_submitted_total: quota sheds depend on how fast
          // workers drain relative to submitters.
          "vaq_tenant_queries_total",
          "vaq_tenant_latency_ms",
      };
  return *prefixes;
}

}  // namespace serve
}  // namespace vaq
