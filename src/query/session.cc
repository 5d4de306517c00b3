#include "query/session.h"

#include <memory>

#include "bai/sequence_arms.h"
#include "obs/metrics.h"
#include "offline/repository.h"
#include "online/cnf_engine.h"
#include "video/cnf_query.h"

#include "query/lexer.h"
#include "query/parser.h"

namespace vaq {
namespace query {
namespace {

// Binds a CNF statement to an ingested video by type names.
StatusOr<offline::QueryTables> BindCnfByName(
    const storage::VideoIndex& index,
    const std::vector<std::vector<std::string>>& clauses) {
  // Build a temporary vocabulary mirroring the index's type ids so
  // CnfQuery name resolution and BindCnf agree.
  Vocabulary vocab;
  for (const storage::TypeIndex& t : index.objects) {
    vocab.AddObjectType(t.type_name);
  }
  for (const storage::TypeIndex& t : index.actions) {
    vocab.AddActionType(t.type_name);
  }
  VAQ_ASSIGN_OR_RETURN(CnfQuery query, CnfQuery::FromNames(vocab, clauses));
  // The temporary vocabulary assigned dense ids in index order, which is
  // exactly how VideoIndex stores them when ingested from a Vocabulary —
  // but be safe and remap via names.
  for (Clause& clause : query.clauses) {
    for (Literal& literal : clause.literals) {
      if (literal.kind == Literal::Kind::kObject) {
        const storage::TypeIndex* entry =
            index.FindObjectByName(vocab.ObjectTypeName(literal.type));
        VAQ_CHECK(entry != nullptr);
        literal.type = entry->type_id;
      } else {
        const storage::TypeIndex* entry =
            index.FindActionByName(vocab.ActionTypeName(literal.type));
        VAQ_CHECK(entry != nullptr);
        literal.type = entry->type_id;
      }
    }
  }
  // BindCnf only consults the index (vocab is for error text).
  return offline::QueryTables::BindCnf(index, query, vocab);
}

}  // namespace

const char* StatementModelStack(const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    if (KeywordEquals(name, "YOLOv3") || KeywordEquals(name, "yolo")) {
      return "yolo_i3d";
    }
    if (KeywordEquals(name, "Ideal") || KeywordEquals(name, "IdealModel")) {
      return "ideal";
    }
  }
  return "maskrcnn_i3d";
}

detect::ModelBundle MakeStatementModels(const std::vector<std::string>& names,
                                        const synth::GroundTruth& truth,
                                        uint64_t seed) {
  const std::string stack = StatementModelStack(names);
  if (stack == "yolo_i3d") return detect::ModelBundle::YoloI3d(truth, seed);
  if (stack == "ideal") return detect::ModelBundle::Ideal(truth, seed);
  return detect::ModelBundle::MaskRcnnI3d(truth, seed);
}

StatusOr<QueryResult> ExecuteRankedStatement(
    const QueryStatement& stmt, const storage::VideoIndex& index,
    const offline::ScoringModel& scoring,
    const offline::ScoringModel& cnf_scoring,
    const obs::QueryContext& ctx,
    const cascade::ProxySet* proxy) {
  obs::CountSpan("session/ranked_query");
  QueryResult result;
  // Cascade planning (WITH RECALL < 1.0). A target of exactly 1.0 skips
  // this block entirely — no plan, no counters, no extra phase node — so
  // exact-path results stay byte-identical to pre-cascade builds.
  cascade::CascadePlan plan;
  std::unique_ptr<cascade::PlanFilters> filters;
  const IntervalSet* surviving = nullptr;
  if (stmt.recall_target < 1.0) {
    const obs::QueryContext cascade_phase = ctx.Child("cascade");
    if (proxy != nullptr && stmt.IsConjunctive()) {
      cascade::Planner planner(proxy);
      VAQ_ASSIGN_OR_RETURN(
          plan, planner.Plan(stmt.action, stmt.objects, stmt.recall_target));
    } else {
      // No proxy tier registered, or a CNF statement the planner does not
      // model: fall back to the exact path while honoring the clause.
      plan.recall_target = stmt.recall_target;
    }
    static obs::CounterSlots plans("vaq_cascade_plans_total", "mode");
    plans.Get(plan.use_cascade ? "cascade" : "exact")->Increment();
    result.cascade_plan = plan.ToString();
    cascade_phase.AddStat("clips_total", plan.clips_total);
    cascade_phase.AddStat("clips_surviving", plan.clips_surviving);
    if (plan.use_cascade) {
      filters.reset(new cascade::PlanFilters(proxy, plan));
      surviving = filters->SurvivingClips(stmt.video);
      if (surviving != nullptr && surviving->empty()) {
        // The proxy rules out the whole video: answer without binding.
        static obs::Counter* const pruned =
            obs::MetricRegistry::Global().GetCounter(
                "vaq_cascade_videos_pruned_total");
        pruned->Increment();
        result.online = false;
        return result;
      }
    }
  }
  const obs::QueryContext phase = ctx.Child("ranked");
  obs::ScopedQueryContext scoped(phase);
  offline::QueryTables tables;
  const offline::ScoringModel* bound_scoring = &scoring;
  if (stmt.IsConjunctive()) {
    VAQ_ASSIGN_OR_RETURN(
        tables, offline::BindByName(index, stmt.action, stmt.objects));
  } else {
    VAQ_ASSIGN_OR_RETURN(tables, BindCnfByName(index, stmt.cnf_clauses));
    bound_scoring = &cnf_scoring;
  }
  offline::RvaqOptions options;
  options.k = stmt.limit > 0 ? stmt.limit : 5;
  options.clip_filter = surviving;
  // Adaptive sampling (WITH CONFIDENCE δ > 0). δ absent or exactly 0
  // skips this block entirely — no identifier, no "bai" phase node, no
  // metric — so exact-path results and metric snapshots stay
  // byte-identical to a build without src/bai/. With both clauses
  // present the cascade's clip filter prunes first, then sampling runs
  // on the survivors (Rvaq::Run orders the two hooks).
  std::unique_ptr<bai::SequenceArms> identifier;
  obs::QueryContext bai_phase;
  if (stmt.confidence_delta > 0.0) {
    bai_phase = ctx.Child("bai");
    identifier.reset(new bai::SequenceArms(
        bai::SequenceArms::AtConfidence(stmt.confidence_delta)));
    options.identifier = identifier.get();
    options.identifier_seed = offline::PerVideoIdentifierSeed(
        bai::kQueryBaseSeed, stmt.video);
  }
  offline::Rvaq rvaq(&tables, bound_scoring, options);
  offline::TopKResult topk = rvaq.Run();
  if (topk.candidates_pruned > 0) {
    phase.AddStat("candidates_pruned", topk.candidates_pruned);
  }
  if (stmt.confidence_delta > 0.0) {
    bai_phase.AddStat("pulls", topk.bai_pulls);
    bai_phase.AddStat("arms_eliminated", topk.bai_arms_eliminated);
    bai_phase.AddStat("stopped", topk.bai_stopped ? 1 : 0);
    result.bai_pulls = topk.bai_pulls;
    result.bai_arms_eliminated = topk.bai_arms_eliminated;
    result.bai_certificate = bai::RenderCertificate(
        stmt.confidence_delta, topk.bai_pulls, topk.bai_arms_eliminated,
        topk.bai_stopped, topk.bai_stopping_statistic);
  }
  result.online = false;
  result.ranked = std::move(topk.top);
  result.accesses = topk.accesses;
  IntervalSet merged;
  for (const offline::RankedSequence& seq : result.ranked) {
    merged.Add(seq.clips);
  }
  result.sequences = std::move(merged);
  phase.AddMs(result.accesses.ModeledMs(kModeledSeekMs, kModeledRowMs));
  phase.AddStat("seeks", result.accesses.seeks());
  phase.AddStat("sequential_rows", result.accesses.sequential_rows());
  phase.AddStat("results", static_cast<int64_t>(result.ranked.size()));
  return result;
}

StatusOr<QueryResult> ExecuteOnlineStatement(
    const QueryStatement& stmt, const synth::Scenario& scenario,
    const online::SvaqdOptions& options, detect::ModelBundle* models,
    const obs::QueryContext& ctx) {
  obs::CountSpan("session/online_query");
  const obs::QueryContext phase = ctx.Child("online");
  // The resilient model wrappers read the thread-local context, so their
  // per-outcome call counts land on this query's "online" node.
  obs::ScopedQueryContext scoped(phase);
  online::OnlineResult run;
  if (stmt.IsConjunctive()) {
    VAQ_ASSIGN_OR_RETURN(
        QuerySpec spec,
        QuerySpec::FromNames(scenario.vocab(), stmt.action, stmt.objects));
    run = online::Svaqd(spec, scenario.layout(), options)
              .Run(models->detector.get(), models->recognizer.get());
  } else {
    // General CNF statement (footnotes 3-4): the same engine over the
    // statement's clauses.
    VAQ_ASSIGN_OR_RETURN(
        CnfQuery cnf,
        CnfQuery::FromNames(scenario.vocab(), stmt.cnf_clauses));
    online::CnfStream engine(std::move(cnf), scenario.layout(),
                             online::CnfEngineOptions{options});
    run = online::RunToEnd(engine, models->detector.get(),
                           models->recognizer.get());
  }
  QueryResult result;
  result.online = true;
  result.sequences = std::move(run.sequences);
  result.detector_stats = run.detector_stats;
  result.recognizer_stats = run.recognizer_stats;
  result.degraded_clips = run.degraded_clips;
  result.dropped_clips = run.dropped_clips;
  phase.AddMs(result.detector_stats.simulated_ms +
              result.recognizer_stats.simulated_ms);
  phase.AddStat("detector_inferences", result.detector_stats.inferences);
  phase.AddStat("recognizer_inferences", result.recognizer_stats.inferences);
  if (result.degraded_clips > 0) {
    phase.AddStat("degraded_clips", result.degraded_clips);
  }
  if (result.dropped_clips > 0) {
    phase.AddStat("dropped_clips", result.dropped_clips);
  }
  return result;
}

void Session::RegisterStream(const std::string& name,
                             synth::Scenario scenario, uint64_t model_seed,
                             online::SvaqdOptions svaqd_options) {
  streams_.insert_or_assign(
      name, StreamSource{std::move(scenario), model_seed,
                         std::move(svaqd_options)});
}

void Session::RegisterRepository(const std::string& name,
                                 storage::VideoIndex index) {
  repositories_.insert_or_assign(name, std::move(index));
}

void Session::RegisterRankedBackend(const std::string& name,
                                    RankedBackend* backend) {
  backends_.insert_or_assign(name, backend);
}

StatusOr<QueryResult> Session::Execute(const std::string& sql) {
  VAQ_ASSIGN_OR_RETURN(QueryStatement stmt, Parse(sql));
  return Execute(stmt);
}

StatusOr<QueryResult> Session::Execute(const QueryStatement& stmt) {
  if (stmt.explain_analyze) {
    // EXPLAIN ANALYZE outside a serving context: profile into a private
    // trace and render it. The root name is fixed so the output is a
    // pure function of the statement's execution.
    obs::QueryTrace trace("explain");
    const obs::QueryContext root{&trace, 0};
    VAQ_ASSIGN_OR_RETURN(QueryResult result, Execute(stmt, root));
    result.profile_text = trace.RenderProfile();
    return result;
  }
  return Execute(stmt, obs::QueryContext{});
}

StatusOr<QueryResult> Session::Execute(const QueryStatement& stmt,
                                       const obs::QueryContext& ctx) {
  const bool offline_query = stmt.ranked || stmt.limit >= 0;
  static obs::CounterSlots statements("vaq_session_statements_total", "kind");
  statements.Get(offline_query ? "ranked" : "online")->Increment();
  if (offline_query) {
    auto backend = backends_.find(stmt.video);
    if (backend != backends_.end()) {
      return backend->second->ExecuteRanked(stmt, ctx);
    }
    auto it = repositories_.find(stmt.video);
    if (it == repositories_.end()) {
      return Status::NotFound("no repository video named '" + stmt.video +
                              "'");
    }
    return ExecuteRankedStatement(stmt, it->second, scoring_, cnf_scoring_,
                                  ctx, proxy_);
  }

  auto it = streams_.find(stmt.video);
  if (it == streams_.end()) {
    return Status::NotFound("no stream named '" + stmt.video + "'");
  }
  const StreamSource& source = it->second;
  detect::ModelBundle models = MakeStatementModels(
      stmt.models, source.scenario.truth(), source.model_seed);
  return ExecuteOnlineStatement(stmt, source.scenario, source.options,
                                &models, ctx);
}

}  // namespace query
}  // namespace vaq
