#include "tools/pipeline_setup.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <utility>

#include "bai/sequence_arms.h"
#include "cascade/store.h"
#include "cluster/coordinator.h"
#include "detect/models.h"
#include "obs/metrics.h"
#include "offline/ingest.h"
#include "offline/scoring.h"

namespace vaq {
namespace tools {

StatusOr<synth::Scenario> ScenarioFromFlag(const std::string& spec,
                                           uint64_t seed) {
  if (spec.rfind("file:", 0) == 0) {
    // A scenario spec file (synth/spec_file.h format). The query defaults
    // to the first action plus the first object; override at query time.
    VAQ_ASSIGN_OR_RETURN(synth::ScenarioSpec parsed,
                         synth::LoadScenarioSpec(spec.substr(5)));
    if (seed != 0) parsed.seed = seed;
    if (parsed.actions.empty()) {
      return Status::InvalidArgument("spec file declares no actions");
    }
    std::vector<std::string> objects;
    if (!parsed.objects.empty()) objects.push_back(parsed.objects[0].name);
    return synth::Scenario::FromSpec(parsed, parsed.actions[0].name,
                                     objects);
  }
  if (spec.rfind("youtube:", 0) == 0) {
    const int index = std::atoi(spec.c_str() + 8);
    if (index < 1 || index > 12) {
      return Status::InvalidArgument("youtube index must be 1..12");
    }
    return synth::Scenario::YouTube(index, seed);
  }
  if (spec == "coffee") {
    return synth::Scenario::Movie(synth::MovieId::kCoffeeAndCigarettes, seed);
  }
  if (spec == "ironman") {
    return synth::Scenario::Movie(synth::MovieId::kIronMan, seed);
  }
  if (spec == "starwars") {
    return synth::Scenario::Movie(synth::MovieId::kStarWars3, seed);
  }
  if (spec == "titanic") {
    return synth::Scenario::Movie(synth::MovieId::kTitanic, seed);
  }
  return Status::InvalidArgument("unknown scenario spec: " + spec);
}

synth::ScenarioSpec DemoScenarioSpec(int index) {
  // Index 0 must stay identical to the original `vaqctl metrics` scenario:
  // small enough to run in a tier-1 test, busy enough that every metric
  // family is populated.
  synth::ScenarioSpec spec;
  spec.name = "metrics_demo";
  spec.minutes = 6;
  spec.fps = 30;
  spec.seed = 808;
  synth::ActionTrackSpec action;
  action.name = "running";
  action.duty = 0.3;
  action.mean_len_frames = 1000;
  spec.actions.push_back(action);
  synth::ObjectTrackSpec dog;
  dog.name = "dog";
  dog.background_duty = 0.06;
  dog.mean_len_frames = 700;
  dog.coupled_action = "running";
  dog.cover_action_prob = 0.9;
  spec.objects.push_back(dog);
  if (index > 0) {
    // Stream variant: its own feed name and seed, plus an uncoupled
    // "car" track so disjunctive (CNF) statements have a second type.
    spec.name = "cam" + std::to_string(index);
    spec.seed = 808 + 131 * static_cast<uint64_t>(index);
    synth::ObjectTrackSpec car;
    car.name = "car";
    car.background_duty = 0.08;
    car.mean_len_frames = 500;
    spec.objects.push_back(car);
  }
  return spec;
}

synth::Scenario DemoScenario(int index) {
  return synth::Scenario::FromSpec(DemoScenarioSpec(index), "running",
                                   {"dog"});
}

fault::FaultSpec DemoFaultSpec() {
  // High enough that timeouts, outages, garbage scores, retries, breaker
  // trips and gap-policy fallbacks all occur within a ~108-clip demo.
  fault::FaultSpec spec;
  spec.timeout_rate = 0.05;
  spec.crash_rate = 0.1;
  spec.crash_len_units = 600;
  spec.nan_score_rate = 0.01;
  spec.drop_clip_rate = 0.02;
  return spec;
}

online::SvaqdOptions DemoSvaqdOptions(const fault::FaultPlan* plan) {
  online::SvaqdOptions options;
  options.fault_plan = plan;
  options.missing_policy = online::MissingObsPolicy::kBackgroundPrior;
  return options;
}

Status RegisterDemoSources(serve::Server* server, int num_streams,
                           bool with_repository, uint64_t seed) {
  for (int i = 0; i < num_streams; ++i) {
    // One model seed per stream, so distinct feeds see distinct noise.
    server->RegisterStream("cam" + std::to_string(i), DemoScenario(i),
                           seed + static_cast<uint64_t>(i));
  }
  if (with_repository) {
    synth::Scenario scenario = DemoScenario(0);
    detect::ModelBundle models =
        detect::ModelBundle::MaskRcnnI3d(scenario.truth(), seed);
    offline::PaperScoring scoring;
    offline::Ingestor ingestor(&scenario.vocab(), &scoring,
                               offline::IngestOptions{});
    VAQ_ASSIGN_OR_RETURN(storage::VideoIndex index,
                         ingestor.Ingest(scenario.truth(), models));
    server->RegisterRepository(kDemoRepositoryName, std::move(index));
  }
  return Status::OK();
}

std::vector<std::string> DemoWorkload(int num_streams, int num_queries,
                                      bool with_repository) {
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(num_queries));
  for (int q = 0; q < num_queries; ++q) {
    if (with_repository && q % 8 == 5) {
      out.push_back(
          "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) "
          "FROM (PROCESS " +
          std::string(kDemoRepositoryName) +
          " PRODUCE clipID, obj USING ObjectTracker, "
          "act USING ActionRecognizer) "
          "WHERE act='running' AND obj.include('dog') "
          "ORDER BY RANK(act, obj) LIMIT " +
          std::to_string(2 + q % 3));
      continue;
    }
    const int stream = q % (num_streams > 0 ? num_streams : 1);
    const std::string from =
        "FROM (PROCESS cam" + std::to_string(stream) +
        " PRODUCE clipID, obj USING ObjectDetector, "
        "act USING ActionRecognizer) ";
    switch ((q / (num_streams > 0 ? num_streams : 1)) % 3) {
      case 0:
        out.push_back("SELECT MERGE(clipID) AS Sequence " + from +
                      "WHERE act='running' AND obj.include('dog')");
        break;
      case 1:
        out.push_back("SELECT MERGE(clipID) AS Sequence " + from +
                      "WHERE obj.include('dog')");
        break;
      default:
        if (stream > 0) {
          // Disjunctive form: only the variant streams carry "car".
          out.push_back("SELECT MERGE(clipID) AS Sequence " + from +
                        "WHERE (obj='dog' OR obj='car') AND act='running'");
        } else {
          out.push_back("SELECT MERGE(clipID) AS Sequence " + from +
                        "WHERE act='running'");
        }
        break;
    }
  }
  return out;
}

StatusOr<CascadeDemo> MakeCascadeDemo(int num_videos, uint64_t seed) {
  CascadeDemo demo;
  for (int i = 0; i < num_videos; ++i) {
    const std::string name = "vid" + std::to_string(i);
    synth::Scenario scenario = DemoScenario(i);
    const uint64_t video_seed = seed + static_cast<uint64_t>(i);
    detect::ModelBundle models =
        detect::ModelBundle::MaskRcnnI3d(scenario.truth(), video_seed);
    offline::PaperScoring scoring;
    offline::Ingestor ingestor(&scenario.vocab(), &scoring,
                               offline::IngestOptions{});
    VAQ_ASSIGN_OR_RETURN(storage::VideoIndex index,
                         ingestor.Ingest(scenario.truth(), models));
    demo.repository.Add(name, std::move(index));
    VAQ_ASSIGN_OR_RETURN(
        cascade::ProxyVideoIndex proxy,
        cascade::LoadOrBuildProxyIndex(/*store=*/nullptr, name, scenario,
                                       detect::ModelProfile::ProxyCnn(),
                                       video_seed));
    demo.proxies.emplace(name, std::move(proxy));
    demo.videos.push_back(name);
  }
  return demo;
}

StatusOr<CascadeFrontierPoint> RunCascadeFrontierPoint(
    const CascadeDemo& demo, double recall_target, int64_t k) {
  CascadeFrontierPoint point;
  point.recall_target = recall_target;
  const cascade::Planner planner(&demo.proxies);
  VAQ_ASSIGN_OR_RETURN(const cascade::CascadePlan plan,
                       planner.Plan("running", {"dog"}, recall_target));
  point.use_cascade = plan.use_cascade;
  point.predicted_recall = plan.predicted_recall;
  point.full_cost_ms = plan.full_cost_ms;
  point.cascade_cost_ms = plan.cascade_cost_ms;
  point.cost_reduction = plan.CostReduction();
  point.clips_total = plan.clips_total;
  point.clips_surviving = plan.clips_surviving;
  point.plan_text = plan.ToString();

  const offline::PaperScoring scoring;
  offline::RvaqOptions options;
  options.k = k;
  VAQ_ASSIGN_OR_RETURN(
      const offline::RepositoryTopKResult exact,
      demo.repository.TopK("running", {"dog"}, scoring, options));
  offline::RepositoryTopKResult planned = exact;
  if (plan.use_cascade) {
    const cascade::PlanFilters filters(&demo.proxies, plan);
    options.prefilter = &filters;
    VAQ_ASSIGN_OR_RETURN(
        planned, demo.repository.TopK("running", {"dog"}, scoring, options));
  }
  point.videos_pruned = planned.videos_pruned;
  point.candidates_pruned = planned.candidates_pruned;
  if (!exact.top.empty()) {
    // Achieved recall: exact results matched by video + clip extent.
    std::set<std::string> returned;
    for (const offline::RepositoryRankedSequence& entry : planned.top) {
      returned.insert(entry.video + "|" + entry.sequence.clips.ToString());
    }
    int64_t matched = 0;
    for (const offline::RepositoryRankedSequence& entry : exact.top) {
      matched += returned.count(entry.video + "|" +
                                entry.sequence.clips.ToString());
    }
    point.achieved_recall = static_cast<double>(matched) /
                            static_cast<double>(exact.top.size());
  }
  return point;
}

synth::ScenarioSpec BaiDemoScenarioSpec(int index) {
  // The demo shapes at triple length: exact top-k cost grows with the
  // clip count (the bound loop's reverse sorted access touches every
  // row), identification cost does not, so the savings the demo reports
  // are the honest long-video regime rather than a toy margin.
  synth::ScenarioSpec spec = DemoScenarioSpec(index);
  spec.name = index == 0 ? "bai_demo" : "baivid" + std::to_string(index);
  spec.seed = 515 + 173 * static_cast<uint64_t>(index);
  spec.minutes = 18;
  return spec;
}

synth::Scenario BaiDemoScenario(int index) {
  return synth::Scenario::FromSpec(BaiDemoScenarioSpec(index), "running",
                                   {"dog"});
}

StatusOr<CascadeDemo> MakeBaiDemo(int num_videos, uint64_t seed) {
  CascadeDemo demo;
  for (int i = 0; i < num_videos; ++i) {
    const std::string name = "vid" + std::to_string(i);
    synth::Scenario scenario = BaiDemoScenario(i);
    const uint64_t video_seed = seed + static_cast<uint64_t>(i);
    detect::ModelBundle models =
        detect::ModelBundle::MaskRcnnI3d(scenario.truth(), video_seed);
    offline::PaperScoring scoring;
    offline::Ingestor ingestor(&scenario.vocab(), &scoring,
                               offline::IngestOptions{});
    VAQ_ASSIGN_OR_RETURN(storage::VideoIndex index,
                         ingestor.Ingest(scenario.truth(), models));
    demo.repository.Add(name, std::move(index));
    VAQ_ASSIGN_OR_RETURN(
        cascade::ProxyVideoIndex proxy,
        cascade::LoadOrBuildProxyIndex(/*store=*/nullptr, name, scenario,
                                       detect::ModelProfile::ProxyCnn(),
                                       video_seed));
    demo.proxies.emplace(name, std::move(proxy));
    demo.videos.push_back(name);
  }
  return demo;
}

StatusOr<BaiSweepPoint> RunBaiSweepPoint(const CascadeDemo& demo, double delta,
                                         int64_t k, uint64_t seed) {
  BaiSweepPoint point;
  point.delta = delta;
  const offline::PaperScoring scoring;
  offline::RvaqOptions options;
  options.k = k;
  VAQ_ASSIGN_OR_RETURN(
      const offline::RepositoryTopKResult exact,
      demo.repository.TopK("running", {"dog"}, scoring, options));
  point.exact_invocations =
      exact.accesses.seeks() + exact.accesses.sequential_rows();

  offline::RepositoryTopKResult sampled = exact;
  if (delta > 0.0) {
    const bai::SequenceArms identifier =
        bai::SequenceArms::AtConfidence(delta);
    options.identifier = &identifier;
    options.identifier_seed = seed;
    VAQ_ASSIGN_OR_RETURN(
        sampled, demo.repository.TopK("running", {"dog"}, scoring, options));
  }
  point.sampled_invocations =
      sampled.accesses.seeks() + sampled.accesses.sequential_rows();
  point.pulls = sampled.bai_pulls;
  point.arms_eliminated = sampled.bai_arms_eliminated;
  point.stops = sampled.bai_stops;
  point.savings_x =
      point.sampled_invocations > 0
          ? static_cast<double>(point.exact_invocations) /
                static_cast<double>(point.sampled_invocations)
          : 1.0;
  point.certificate = bai::RenderAggregateCertificate(
      delta, point.pulls, point.arms_eliminated, point.stops);
  // Same match rule as the cascade frontier: video + clip extent.
  std::set<std::string> returned;
  for (const offline::RepositoryRankedSequence& entry : sampled.top) {
    returned.insert(entry.video + "|" + entry.sequence.clips.ToString());
  }
  for (const offline::RepositoryRankedSequence& entry : exact.top) {
    if (returned.count(entry.video + "|" +
                       entry.sequence.clips.ToString()) == 0) {
      point.top_match = false;
    }
  }
  return point;
}

StatusOr<std::unique_ptr<serve::Server>> MakeStandingDemoServer(
    const StandingDemoSpec& spec) {
  serve::ServeOptions options;
  options.threads = 0;  // Standing mode advances inline, clip-lockstep.
  options.share_detection_cache = spec.share_detection_cache;
  options.fault_plan = spec.fault_plan;
  options.checkpoint_store = spec.checkpoint_store;
  options.snapshot_every_clips = spec.snapshot_every_clips;
  options.snapshot_every_ms = spec.snapshot_every_ms;
  auto server = std::make_unique<serve::Server>(options);
  VAQ_RETURN_IF_ERROR(RegisterDemoSources(server.get(), spec.num_streams,
                                          /*with_repository=*/false,
                                          spec.seed));
  return server;
}

Status AdmitStandingDemoWorkload(serve::Server* server,
                                 const StandingDemoSpec& spec) {
  for (const std::string& sql :
       DemoWorkload(spec.num_streams, spec.num_queries,
                    /*with_repository=*/false)) {
    VAQ_RETURN_IF_ERROR(server->AddStandingQuery(sql).status());
  }
  return Status::OK();
}

int64_t StandingDemoMaxAdvances(const StandingDemoSpec& spec) {
  // Every demo scenario has the same duration, so every stream has the
  // same clip count and the round-robin schedule never hits a short one.
  return static_cast<int64_t>(spec.num_streams) *
         DemoScenario(0).layout().NumClips();
}

int64_t StandingDemoAdvancesDone(const serve::Server& server,
                                 const StandingDemoSpec& spec) {
  int64_t done = 0;
  for (int i = 0; i < spec.num_streams; ++i) {
    done += server.StreamPosition("cam" + std::to_string(i));
  }
  return done;
}

Status DriveStandingDemo(serve::Server* server, const StandingDemoSpec& spec,
                         int64_t max_total_advances) {
  // Advance i (0-based, session-wide) feeds clip i/num_streams of stream
  // cam<i % num_streams>. Resuming from recovered positions is exact:
  // with equal-length streams the sum of positions IS the next index.
  const int streams = spec.num_streams > 0 ? spec.num_streams : 1;
  for (int64_t i = StandingDemoAdvancesDone(*server, spec);
       i < max_total_advances; ++i) {
    VAQ_RETURN_IF_ERROR(server->AdvanceStream(
        "cam" + std::to_string(i % streams)));
  }
  return Status::OK();
}

std::vector<std::string> TrafficPresets(int num_presets) {
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(num_presets));
  for (int p = 0; p < num_presets; ++p) {
    out.push_back(
        "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) "
        "FROM (PROCESS " +
        std::string(kDemoRepositoryName) +
        " PRODUCE clipID, obj USING ObjectTracker, "
        "act USING ActionRecognizer) "
        "WHERE act='running' AND obj.include('dog') "
        "ORDER BY RANK(act, obj) LIMIT " +
        std::to_string(2 + p % 5));
  }
  return out;
}

StatusOr<TrafficDemoResult> RunTrafficDemo(const TrafficDemoSpec& spec) {
  TrafficDemoResult out;

  traffic::WorkloadSpec workload;
  workload.num_tenants = spec.num_tenants;
  workload.duration_ms = spec.duration_min * 60'000.0;
  workload.seed = spec.seed;
  workload.base_qps = spec.base_qps;
  workload.abusive_tenant = spec.abusive_tenant;
  workload.num_presets = spec.num_presets;
  workload.queue_quota = spec.queue_quota;
  workload.slo_ms = spec.slo_ms;
  const std::vector<traffic::TenantSpec> tenants =
      traffic::MakeTenants(workload);
  const std::vector<traffic::Arrival> arrivals =
      traffic::GenerateArrivals(workload, &out.truncated);

  // The query-mix presets and their modeled service costs, probed once on
  // the threads = 0 reference schedule. The front door replays millions
  // of arrivals against this table instead of executing each one — same
  // modeled costs, tractable simulation.
  const std::vector<std::string> presets = TrafficPresets(spec.num_presets);
  out.preset_cost_ms.assign(presets.size(), 0.0);
  {
    serve::ServeOptions options;
    options.threads = 0;
    options.queue_capacity = static_cast<int>(presets.size()) + 1;
    serve::Server probe(options);
    VAQ_RETURN_IF_ERROR(RegisterDemoSources(&probe, /*num_streams=*/0,
                                            /*with_repository=*/true,
                                            spec.seed));
    std::vector<int64_t> ids;
    ids.reserve(presets.size());
    for (const std::string& sql : presets) {
      VAQ_ASSIGN_OR_RETURN(const int64_t id, probe.Submit(sql));
      ids.push_back(id);
    }
    for (const serve::ServedQuery& q : probe.Drain()) {
      for (size_t p = 0; p < ids.size(); ++p) {
        if (ids[p] != q.id) continue;
        VAQ_RETURN_IF_ERROR(q.status);
        out.preset_cost_ms[p] = q.simulated_ms;
      }
    }
  }

  // The tenant-tagged serve path: every tenant executes its preset pool
  // (rotated by tenant index, so neighbors run distinct orders) under
  // ServeOptions::tenant_quotas. The abusive tenant offers its quota plus
  // a full extra pool and is shed with kResourceExhausted for the
  // overflow; at threads = 0 nothing drains between submissions, so the
  // shed count is exact and deterministic.
  {
    const int per_tenant = static_cast<int>(presets.size());
    serve::ServeOptions options;
    options.threads = 0;
    options.queue_capacity =
        spec.num_tenants * std::max(per_tenant, spec.queue_quota) +
        spec.queue_quota + 8;
    for (const traffic::TenantSpec& tenant : tenants) {
      options.tenant_quotas[tenant.name] = tenant.queue_quota;
    }
    serve::Server server(options);
    VAQ_RETURN_IF_ERROR(RegisterDemoSources(&server, /*num_streams=*/0,
                                            /*with_repository=*/true,
                                            spec.seed));
    for (int i = 0; i < spec.num_tenants; ++i) {
      const traffic::TenantSpec& tenant = tenants[static_cast<size_t>(i)];
      const int submissions =
          tenant.abusive ? tenant.queue_quota + per_tenant : per_tenant;
      for (int s = 0; s < submissions; ++s) {
        const StatusOr<int64_t> id =
            server.Submit(presets[static_cast<size_t>((s + i) % per_tenant)],
                          tenant.name);
        if (id.ok()) continue;
        if (id.status().code() == StatusCode::kResourceExhausted) {
          ++out.tenant_quota_sheds;
          continue;
        }
        return id.status();
      }
    }
    std::vector<serve::ServedQuery> drained = server.Drain();
    std::sort(drained.begin(), drained.end(),
              [](const serve::ServedQuery& a, const serve::ServedQuery& b) {
                return a.id < b.id;
              });
    out.tenant_results.assign(static_cast<size_t>(spec.num_tenants), "");
    for (const serve::ServedQuery& q : drained) {
      for (size_t i = 0; i < tenants.size(); ++i) {
        if (tenants[i].name != q.tenant) continue;
        // Drop the "#<id>" prefix: admission ids shift when *another*
        // tenant changes its submission count, and the witness must
        // compare equal across exactly that change.
        const std::string desc = serve::DescribeServedQuery(q);
        out.tenant_results[i] += desc.substr(desc.find(' ') + 1) + "\n";
      }
    }
  }

  traffic::FrontDoorOptions door;
  door.num_workers = spec.num_workers;
  door.record_metrics = spec.record_metrics;
  out.report = traffic::RunFrontDoor(tenants, arrivals, out.preset_cost_ms,
                                     door);
  return out;
}

std::vector<std::string> RankedDemoStatements(const std::string& source) {
  static const std::vector<std::vector<std::string>> kObjects = {
      {"dog"}, {"car"}, {"dog", "car"}};
  static const char* const kClauses[] = {"", " WITH RECALL 0.9",
                                         " WITH CONFIDENCE 0.05"};
  std::vector<std::string> out;
  for (const std::vector<std::string>& objects : kObjects) {
    std::string include;
    for (const std::string& object : objects) {
      include += (include.empty() ? "'" : ", '") + object + "'";
    }
    for (int64_t limit = 1; limit <= 8; ++limit) {
      for (const char* clause : kClauses) {
        out.push_back(std::string("SELECT MERGE(clipID) AS Sequence, "
                                  "RANK(act, obj) FROM (PROCESS ")
                          .append(source)
                          .append(" PRODUCE clipID, obj USING ObjectTracker, "
                                  "act USING ActionRecognizer) "
                                  "WHERE act='running' AND obj.include(")
                          .append(include)
                          .append(") ORDER BY RANK(act, obj) LIMIT ")
                          .append(std::to_string(limit))
                          .append(clause));
      }
    }
  }
  return out;
}

StatusOr<RankedLookups> CountRankedRegistryLookups(int num_videos,
                                                   uint64_t seed) {
  VAQ_ASSIGN_OR_RETURN(CascadeDemo demo, MakeBaiDemo(num_videos, seed));
  cluster::ClusterOptions options;
  options.num_shards = 4;
  options.proxy = &demo.proxies;
  cluster::Coordinator coordinator(&demo.repository, options);
  query::Session session;
  session.RegisterRankedBackend("corpus", &coordinator);
  const std::vector<std::string> statements = RankedDemoStatements("corpus");
  const obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  RankedLookups out;
  for (double* per_query :
       {&out.first_pass_per_query, &out.second_pass_per_query}) {
    const int64_t before = registry.lookups_for_testing();
    for (const std::string& sql : statements) {
      VAQ_RETURN_IF_ERROR(session.Execute(sql).status());
    }
    *per_query = static_cast<double>(registry.lookups_for_testing() - before) /
                 static_cast<double>(statements.size());
  }
  return out;
}

}  // namespace tools
}  // namespace vaq
