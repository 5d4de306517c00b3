// The cascade subsystem (src/cascade/): ingest-time proxy index, its
// checkpoint-store persistence, the cost-based planner, and the
// execution wiring through the query session and the standing-query
// serving mode.
//
// The load-bearing guarantees under test:
//
//  * the proxy index is a pure function of (seed, concept, clip) and its
//    persisted form round-trips byte-exactly, with stale/damaged entries
//    detected and rebuilt (counted under vaq_ckpt_proxy_*);
//  * the planner honors the recall math — predicted recall never falls
//    below the target, the cost frontier is monotone, and τ = 1.0 plans
//    exact — and PlanFilters agrees with the plan's accounting;
//  * a WITH RECALL 1 statement is byte-identical to the same statement
//    without the clause on every surface (results, access accounting,
//    the full metric snapshot) — the exact path must not know the
//    cascade exists;
//  * standing cascades prune clips deterministically and survive
//    crash-recovery: a recovered session finishes with the same results
//    as an uninterrupted one, and the proxy index is persisted in the
//    checkpoint store.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cascade/planner.h"
#include "cascade/proxy_index.h"
#include "cascade/store.h"
#include "ckpt/serializer.h"
#include "ckpt/store.h"
#include "detect/model_profile.h"
#include "detect/models.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "offline/ingest.h"
#include "offline/scoring.h"
#include "query/session.h"
#include "serve/server.h"
#include "tools/pipeline_setup.h"

namespace vaq {
namespace cascade {
namespace {

int64_t CounterValue(const char* name) {
  return obs::MetricRegistry::Global().GetCounter(name)->value();
}

void ExpectProxyEqual(const ProxyVideoIndex& a, const ProxyVideoIndex& b) {
  EXPECT_EQ(a.video, b.video);
  EXPECT_EQ(a.num_clips, b.num_clips);
  EXPECT_EQ(a.frames_per_clip, b.frames_per_clip);
  EXPECT_EQ(a.shots_per_clip, b.shots_per_clip);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  ASSERT_EQ(a.columns.size(), b.columns.size());
  for (size_t i = 0; i < a.columns.size(); ++i) {
    EXPECT_EQ(a.columns[i].concept_name, b.columns[i].concept_name);
    EXPECT_EQ(a.columns[i].scores, b.columns[i].scores);
    EXPECT_EQ(a.columns[i].heldout_positive, b.columns[i].heldout_positive);
  }
}

ProxySet MakeDemoProxies(int num_videos, uint64_t seed) {
  ProxySet set;
  for (int i = 0; i < num_videos; ++i) {
    const std::string name = std::string("v").append(std::to_string(i));
    set.emplace(name,
                BuildProxyIndex(name, tools::DemoScenario(i),
                                detect::ModelProfile::ProxyCnn(),
                                seed + static_cast<uint64_t>(i)));
  }
  return set;
}

TEST(CascadeProxyTest, BuildIsDeterministicAndWellFormed) {
  const synth::Scenario scenario = tools::DemoScenario(0);
  const detect::ModelProfile profile = detect::ModelProfile::ProxyCnn();
  const ProxyVideoIndex first = BuildProxyIndex("v0", scenario, profile, 5);
  const ProxyVideoIndex second = BuildProxyIndex("v0", scenario, profile, 5);
  ExpectProxyEqual(first, second);

  EXPECT_GT(first.num_clips, 0);
  EXPECT_GT(first.frames_per_clip, 0.0);
  ASSERT_FALSE(first.columns.empty());
  for (size_t i = 0; i < first.columns.size(); ++i) {
    const ProxyColumn& column = first.columns[i];
    if (i > 0) {
      // Sorted by concept, so Find can binary-search and the persisted
      // layout is canonical.
      EXPECT_LT(first.columns[i - 1].concept_name, column.concept_name);
    }
    EXPECT_EQ(column.scores.size(), static_cast<size_t>(first.num_clips));
    for (const double score : column.scores) {
      EXPECT_GE(score, 0.0);
      EXPECT_LT(score, 1.0);
    }
    ASSERT_FALSE(column.heldout_positive.empty());
    for (size_t j = 1; j < column.heldout_positive.size(); ++j) {
      EXPECT_LE(column.heldout_positive[j - 1], column.heldout_positive[j]);
    }
  }
  EXPECT_NE(first.Find(ActionConcept("running")), nullptr);
  EXPECT_NE(first.Find(ObjectConcept("dog")), nullptr);
  EXPECT_EQ(first.Find(ObjectConcept("unicorn")), nullptr);
}

TEST(CascadeProxyTest, FingerprintTracksProfileAndSeed) {
  const detect::ModelProfile proxy = detect::ModelProfile::ProxyCnn();
  EXPECT_NE(ProxyFingerprint(proxy, 1), ProxyFingerprint(proxy, 2));
  EXPECT_NE(ProxyFingerprint(proxy, 1),
            ProxyFingerprint(detect::ModelProfile::MaskRcnn(), 1));
  const ProxyVideoIndex built =
      BuildProxyIndex("v0", tools::DemoScenario(0), proxy, 9);
  EXPECT_EQ(built.fingerprint, ProxyFingerprint(proxy, 9));
}

TEST(CascadeStoreTest, SaveLoadRoundtrip) {
  obs::MetricRegistry::Global().Reset();
  const synth::Scenario scenario = tools::DemoScenario(0);
  const detect::ModelProfile profile = detect::ModelProfile::ProxyCnn();
  const ProxyVideoIndex built = BuildProxyIndex("v0", scenario, profile, 13);

  ckpt::MemStore store;
  ASSERT_TRUE(SaveProxyIndex(&store, built).ok());
  const StatusOr<std::vector<std::string>> names = store.List();
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names.value().size(), 1u);
  EXPECT_EQ(names.value()[0], ProxyEntryName("v0"));

  const StatusOr<ProxyVideoIndex> loaded =
      LoadProxyIndex(store, "v0", built.fingerprint);
  ASSERT_TRUE(loaded.ok());
  ExpectProxyEqual(built, loaded.value());

  // Absent entry.
  EXPECT_EQ(LoadProxyIndex(store, "nope", built.fingerprint).status().code(),
            StatusCode::kNotFound);
  // Stale fingerprint (proxy model or builder seed changed since ingest).
  EXPECT_EQ(LoadProxyIndex(store, "v0", built.fingerprint + 1)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  // Framing damage must surface as an error, never a silently-wrong
  // index.
  ASSERT_TRUE(
      ckpt::CorruptEntryByte(&store, ProxyEntryName("v0"), 9, 0x40).ok());
  const StatusOr<ProxyVideoIndex> damaged =
      LoadProxyIndex(store, "v0", built.fingerprint);
  EXPECT_FALSE(damaged.ok());
  EXPECT_NE(damaged.status().code(), StatusCode::kNotFound);
}

// A checksum-valid proxy blob whose one column claims 2^32 - 1 scores:
// the loader must reject the count before allocating for it.
TEST(CascadeStoreTest, ColumnLengthBeyondTheRecordIsCorruption) {
  const std::string blob = ckpt::SaveBlob([](ckpt::Archive& ar) {
    std::string video = "v0", concept_name = "dog";
    int64_t clips = 4;
    double frames_per_clip = 8.0, shots_per_clip = 1.0, score = 0.5;
    uint64_t fingerprint = 99;
    uint32_t columns = 1, scores = 0xFFFFFFFFu;
    ar.Record(/*tag=*/1, [&] {
      ar.String(video);
      ar.I64(clips);
      ar.F64(frames_per_clip);
      ar.F64(shots_per_clip);
      ar.U64(fingerprint);
      ar.U32(columns);
    });
    ar.Record(/*tag=*/2, [&] {
      ar.String(concept_name);
      ar.U32(scores);
      ar.F64(score);
    });
  });
  ckpt::MemStore store;
  ASSERT_TRUE(store.Put(ProxyEntryName("v0"), blob).ok());
  EXPECT_EQ(LoadProxyIndex(store, "v0", 99).status().code(),
            StatusCode::kCorruption);
}

TEST(CascadeStoreTest, LoadOrBuildPersistsLoadsAndInvalidates) {
  obs::MetricRegistry::Global().Reset();
  const synth::Scenario scenario = tools::DemoScenario(0);
  const detect::ModelProfile profile = detect::ModelProfile::ProxyCnn();
  ckpt::MemStore store;

  // Cold store: builds and persists.
  const StatusOr<ProxyVideoIndex> first =
      LoadOrBuildProxyIndex(&store, "v0", scenario, profile, 17);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(CounterValue("vaq_ckpt_proxy_builds_total"), 1);
  EXPECT_EQ(CounterValue("vaq_ckpt_proxy_stores_total"), 1);
  EXPECT_EQ(CounterValue("vaq_ckpt_proxy_loads_total"), 0);

  // Warm store: loads, no rebuild.
  const StatusOr<ProxyVideoIndex> second =
      LoadOrBuildProxyIndex(&store, "v0", scenario, profile, 17);
  ASSERT_TRUE(second.ok());
  ExpectProxyEqual(first.value(), second.value());
  EXPECT_EQ(CounterValue("vaq_ckpt_proxy_builds_total"), 1);
  EXPECT_EQ(CounterValue("vaq_ckpt_proxy_loads_total"), 1);

  // Seed change: the persisted entry is stale — invalidated, rebuilt and
  // re-persisted under the new fingerprint.
  const StatusOr<ProxyVideoIndex> rebuilt =
      LoadOrBuildProxyIndex(&store, "v0", scenario, profile, 18);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt.value().fingerprint, ProxyFingerprint(profile, 18));
  EXPECT_EQ(CounterValue("vaq_ckpt_proxy_invalidations_total"), 1);
  EXPECT_EQ(CounterValue("vaq_ckpt_proxy_builds_total"), 2);
  EXPECT_EQ(CounterValue("vaq_ckpt_proxy_stores_total"), 2);

  // A null store degrades to a plain build (the in-memory-only path the
  // cluster trials use).
  const StatusOr<ProxyVideoIndex> unstored =
      LoadOrBuildProxyIndex(nullptr, "v0", scenario, profile, 17);
  ASSERT_TRUE(unstored.ok());
  ExpectProxyEqual(first.value(), unstored.value());
}

TEST(CascadePlannerTest, TauOnePlansExact) {
  const ProxySet proxies = MakeDemoProxies(2, 21);
  const Planner planner(&proxies);
  const StatusOr<CascadePlan> plan = planner.Plan("running", {"dog"}, 1.0);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan.value().use_cascade);
  EXPECT_TRUE(plan.value().thresholds.empty());
  EXPECT_EQ(plan.value().clips_surviving, plan.value().clips_total);
  EXPECT_EQ(plan.value().cascade_cost_ms, plan.value().full_cost_ms);
  EXPECT_EQ(plan.value().CostReduction(), 1.0);
  EXPECT_NE(plan.value().ToString().find("exact"), std::string::npos);
}

TEST(CascadePlannerTest, RejectsBadArguments) {
  const ProxySet proxies = MakeDemoProxies(1, 21);
  const Planner planner(&proxies);
  EXPECT_EQ(planner.Plan("running", {"dog"}, 0.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(planner.Plan("running", {"dog"}, -0.5).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(planner.Plan("running", {"dog"}, 1.5).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(planner.Plan("", {}, 0.9).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CascadePlannerTest, FrontierIsMonotoneAndMeetsTarget) {
  const ProxySet proxies = MakeDemoProxies(3, 21);
  const Planner planner(&proxies);
  const std::vector<double> targets = {0.99, 0.95, 0.9, 0.8};
  double previous_cost = 0.0;
  bool any_cascade = false;
  for (size_t i = 0; i < targets.size(); ++i) {
    const StatusOr<CascadePlan> plan =
        planner.Plan("running", {"dog"}, targets[i]);
    ASSERT_TRUE(plan.ok()) << "tau=" << targets[i];
    const CascadePlan& p = plan.value();
    // The quantile-floor calibration guarantees the per-concept survival
    // fractions multiply to at least the target.
    EXPECT_GE(p.predicted_recall + 1e-12, targets[i]);
    EXPECT_LE(p.cascade_cost_ms, p.full_cost_ms);
    EXPECT_LE(p.clips_surviving, p.clips_total);
    if (i > 0) {
      EXPECT_LE(p.cascade_cost_ms, previous_cost + 1e-9);
    }
    previous_cost = p.cascade_cost_ms;
    if (p.use_cascade) {
      any_cascade = true;
      EXPECT_NE(p.ToString().find("cascade"), std::string::npos);
      EXPECT_GT(p.WireBytes(), 32);
      EXPECT_EQ(p.thresholds.size(), 2u);  // act:running, obj:dog.
    }
  }
  EXPECT_TRUE(any_cascade);
}

TEST(CascadePlannerTest, PlanFiltersMatchPlanAccounting) {
  const ProxySet proxies = MakeDemoProxies(3, 21);
  const Planner planner(&proxies);
  const StatusOr<CascadePlan> plan = planner.Plan("running", {"dog"}, 0.9);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan.value().use_cascade);

  const PlanFilters filters(&proxies, plan.value());
  EXPECT_EQ(filters.clips_total(), plan.value().clips_total);
  EXPECT_EQ(filters.clips_surviving(), plan.value().clips_surviving);
  int64_t surviving = 0;
  for (const auto& entry : proxies) {
    const IntervalSet* set = filters.SurvivingClips(entry.first);
    ASSERT_NE(set, nullptr) << entry.first;
    surviving += set->TotalLength();
  }
  EXPECT_EQ(surviving, plan.value().clips_surviving);
  // A video the proxy tier never scored is unconstrained, not dropped.
  EXPECT_EQ(filters.SurvivingClips("uncovered"), nullptr);
}

TEST(CascadeDemoTest, FrontierPointAchievesTargetWithReduction) {
  const StatusOr<tools::CascadeDemo> demo = tools::MakeCascadeDemo(3, 11);
  ASSERT_TRUE(demo.ok());

  const StatusOr<tools::CascadeFrontierPoint> exact =
      tools::RunCascadeFrontierPoint(demo.value(), 1.0, 5);
  ASSERT_TRUE(exact.ok());
  EXPECT_FALSE(exact.value().use_cascade);
  EXPECT_EQ(exact.value().achieved_recall, 1.0);
  EXPECT_EQ(exact.value().cost_reduction, 1.0);

  const StatusOr<tools::CascadeFrontierPoint> approx =
      tools::RunCascadeFrontierPoint(demo.value(), 0.9, 5);
  ASSERT_TRUE(approx.ok());
  const tools::CascadeFrontierPoint& p = approx.value();
  EXPECT_TRUE(p.use_cascade);
  EXPECT_GT(p.cost_reduction, 1.0);
  EXPECT_LT(p.clips_surviving, p.clips_total);
  EXPECT_GE(p.achieved_recall + 1e-9, p.recall_target);
}

// --- Query-session wiring ----------------------------------------------

constexpr char kRankedSql[] =
    "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) "
    "FROM (PROCESS vid0 PRODUCE clipID, obj USING ObjectTracker, "
    "act USING ActionRecognizer) "
    "WHERE act='running' AND obj.include('dog') "
    "ORDER BY RANK(act, obj) LIMIT 5";

std::string DescribeRanked(const query::QueryResult& result) {
  std::string out = result.accesses.ToString();
  for (const offline::RankedSequence& s : result.ranked) {
    out.append("\n")
        .append(s.clips.ToString())
        .append(" lb=")
        .append(std::to_string(s.lower_bound))
        .append(" ub=")
        .append(std::to_string(s.upper_bound));
  }
  return out;
}

struct SessionRun {
  std::string described;
  std::string metrics;  // The FULL registry snapshot, not a subset.
  std::string cascade_plan;
};

SessionRun RunSessionStatement(const std::string& sql, bool with_proxy) {
  obs::MetricRegistry::Global().Reset();
  synth::Scenario scenario = tools::DemoScenario(0);
  const detect::ModelBundle models =
      detect::ModelBundle::MaskRcnnI3d(scenario.truth(), 21);
  offline::PaperScoring scoring;
  offline::Ingestor ingestor(&scenario.vocab(), &scoring,
                             offline::IngestOptions{});
  StatusOr<storage::VideoIndex> index =
      ingestor.Ingest(scenario.truth(), models);
  EXPECT_TRUE(index.ok());

  query::Session session;
  session.RegisterRepository("vid0", std::move(index).value());
  ProxySet proxies;
  if (with_proxy) {
    proxies.emplace("vid0",
                    BuildProxyIndex("vid0", scenario,
                                    detect::ModelProfile::ProxyCnn(), 21));
    session.RegisterProxySet(&proxies);
  }
  const StatusOr<query::QueryResult> result = session.Execute(sql);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  SessionRun run;
  if (result.ok()) {
    run.described = DescribeRanked(result.value());
    run.cascade_plan = result.value().cascade_plan;
  }
  run.metrics =
      obs::ExportPrometheus(obs::MetricRegistry::Global().TakeSnapshot());
  return run;
}

TEST(CascadeSessionTest, RecallOneIsByteIdenticalToPlainStatement) {
  // The exact path must not know the cascade exists: WITH RECALL 1 never
  // consults the planner, mints no counters and adds no plan text, so
  // every observable surface matches the clause-free statement.
  const SessionRun plain = RunSessionStatement(kRankedSql, /*with_proxy=*/true);
  const SessionRun recall_one = RunSessionStatement(
      std::string(kRankedSql) + " WITH RECALL 1", /*with_proxy=*/true);
  EXPECT_FALSE(plain.described.empty());
  EXPECT_EQ(plain.described, recall_one.described);
  EXPECT_EQ(plain.metrics, recall_one.metrics);
  EXPECT_TRUE(plain.cascade_plan.empty());
  EXPECT_TRUE(recall_one.cascade_plan.empty());
}

TEST(CascadeSessionTest, ApproximateStatementPlansCascadeDeterministically) {
  const std::string sql = std::string(kRankedSql) + " WITH RECALL 0.9";
  const SessionRun first = RunSessionStatement(sql, /*with_proxy=*/true);
  EXPECT_NE(first.cascade_plan.find("cascade"), std::string::npos)
      << first.cascade_plan;
  EXPECT_NE(first.metrics.find("vaq_cascade_plans_total"),
            std::string::npos);
  const SessionRun second = RunSessionStatement(sql, /*with_proxy=*/true);
  EXPECT_EQ(first.described, second.described);
  EXPECT_EQ(first.metrics, second.metrics);
  EXPECT_EQ(first.cascade_plan, second.cascade_plan);
}

TEST(CascadeSessionTest, WithoutProxyTierFallsBackToExactResults) {
  const std::string sql = std::string(kRankedSql) + " WITH RECALL 0.9";
  const SessionRun plain =
      RunSessionStatement(kRankedSql, /*with_proxy=*/false);
  const SessionRun fallback = RunSessionStatement(sql, /*with_proxy=*/false);
  // The clause is honored (a rendered exact plan, a counted fallback)
  // but the results are the exact path's, bit for bit.
  EXPECT_EQ(plain.described, fallback.described);
  EXPECT_NE(fallback.cascade_plan.find("exact"), std::string::npos);
  EXPECT_NE(fallback.metrics.find("vaq_cascade_plans_total"),
            std::string::npos);
}

// --- Standing-query (serving) wiring -----------------------------------

constexpr char kStandingSql[] =
    "SELECT MERGE(clipID) AS Sequence "
    "FROM (PROCESS cam0 PRODUCE clipID, obj USING ObjectDetector, "
    "act USING ActionRecognizer) "
    "WHERE act='running' AND obj.include('dog')";

struct StandingRun {
  std::string described;
  std::string logical_metrics;
  std::string cascade_plan;
  int64_t clips_pruned = 0;
};

StandingRun RunStanding(const std::string& suffix, int advances) {
  obs::MetricRegistry::Global().Reset();
  serve::ServeOptions options;
  options.threads = 0;
  serve::Server server(options);
  server.RegisterStream("cam0", tools::DemoScenario(1), /*model_seed=*/3);
  EXPECT_TRUE(server.AddStandingQuery(kStandingSql + suffix).ok());
  for (int i = 0; i < advances; ++i) {
    EXPECT_TRUE(server.AdvanceStream("cam0").ok()) << "advance " << i;
  }
  const std::vector<serve::ServedQuery> results = server.FinishStanding();
  StandingRun run;
  EXPECT_EQ(results.size(), 1u);
  if (!results.empty()) {
    run.described = DescribeServedQuery(results[0]);
    run.cascade_plan = results[0].result.cascade_plan;
    run.clips_pruned = results[0].result.clips_pruned;
  }
  run.logical_metrics = obs::ExportPrometheus(
      obs::FilterSnapshot(obs::MetricRegistry::Global().TakeSnapshot(),
                          serve::LogicalMetricPrefixes()));
  return run;
}

TEST(CascadeServeTest, StandingRecallOneByteIdenticalToPlainQuery) {
  const StandingRun plain = RunStanding("", 24);
  const StandingRun recall_one = RunStanding(" WITH RECALL 1", 24);
  EXPECT_FALSE(plain.described.empty());
  EXPECT_EQ(plain.described, recall_one.described);
  EXPECT_EQ(plain.logical_metrics, recall_one.logical_metrics);
  EXPECT_TRUE(plain.cascade_plan.empty());
  EXPECT_TRUE(recall_one.cascade_plan.empty());
  EXPECT_EQ(recall_one.clips_pruned, 0);
}

TEST(CascadeServeTest, StandingCascadePrunesAndIsDeterministic) {
  const StandingRun first = RunStanding(" WITH RECALL 0.9", 48);
  EXPECT_NE(first.cascade_plan.find("cascade"), std::string::npos)
      << first.cascade_plan;
  // The proxy ruled clips out and the engine skipped their model calls.
  EXPECT_GT(first.clips_pruned, 0);
  // Run-to-run byte determinism is the contract here. (No subset claim
  // against an exact run: skipped clips make no adaptive-estimator
  // updates, so later clip decisions may legitimately differ.)
  const StandingRun second = RunStanding(" WITH RECALL 0.9", 48);
  EXPECT_EQ(first.described, second.described);
  EXPECT_EQ(first.logical_metrics, second.logical_metrics);
  EXPECT_EQ(first.clips_pruned, second.clips_pruned);
}

TEST(CascadeServeTest, StandingCascadeRecoversWithPersistedProxyIndex) {
  const std::string sql = std::string(kStandingSql) + " WITH RECALL 0.9";
  constexpr int kTotalAdvances = 30;
  constexpr int kCrashAfter = 15;

  auto make_options = [](ckpt::Store* store) {
    serve::ServeOptions options;
    options.threads = 0;
    options.checkpoint_store = store;
    options.snapshot_every_clips = 8;
    return options;
  };

  // Uninterrupted reference run (its own store; durability on so the
  // WAL/snapshot cadence matches the crashed run's).
  obs::MetricRegistry::Global().Reset();
  ckpt::MemStore reference_store;
  StandingRun reference;
  {
    serve::Server server(make_options(&reference_store));
    server.RegisterStream("cam0", tools::DemoScenario(1), /*model_seed=*/3);
    ASSERT_TRUE(server.AddStandingQuery(sql).ok());
    for (int i = 0; i < kTotalAdvances; ++i) {
      ASSERT_TRUE(server.AdvanceStream("cam0").ok());
    }
    const std::vector<serve::ServedQuery> results = server.FinishStanding();
    ASSERT_EQ(results.size(), 1u);
    reference.described = DescribeServedQuery(results[0]);
    reference.cascade_plan = results[0].result.cascade_plan;
    reference.clips_pruned = results[0].result.clips_pruned;
  }

  // Crashed run: advance partway, abandon the server mid-session.
  obs::MetricRegistry::Global().Reset();
  ckpt::MemStore store;
  {
    serve::Server server(make_options(&store));
    server.RegisterStream("cam0", tools::DemoScenario(1), /*model_seed=*/3);
    ASSERT_TRUE(server.AddStandingQuery(sql).ok());
    for (int i = 0; i < kCrashAfter; ++i) {
      ASSERT_TRUE(server.AdvanceStream("cam0").ok());
    }
  }
  // The ingest-time proxy index outlives the crash.
  EXPECT_TRUE(store.Get(ProxyEntryName("cam0")).ok());

  // Recover into a fresh server and finish the schedule.
  serve::Server recovered(make_options(&store));
  recovered.RegisterStream("cam0", tools::DemoScenario(1), /*model_seed=*/3);
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(recovered.StreamPosition("cam0"), kCrashAfter);
  for (int64_t i = recovered.StreamPosition("cam0"); i < kTotalAdvances;
       ++i) {
    ASSERT_TRUE(recovered.AdvanceStream("cam0").ok());
  }
  const std::vector<serve::ServedQuery> results = recovered.FinishStanding();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(DescribeServedQuery(results[0]), reference.described);
  EXPECT_EQ(results[0].result.cascade_plan, reference.cascade_plan);
  EXPECT_EQ(results[0].result.clips_pruned, reference.clips_pruned);
}

}  // namespace
}  // namespace cascade
}  // namespace vaq
