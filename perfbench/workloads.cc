#include "perfbench/workloads.h"

#include <cstdio>
#include <memory>
#include <random>
#include <utility>

#include "cascade/store.h"
#include "ckpt/store.h"
#include "cluster/coordinator.h"
#include "detect/model_profile.h"
#include "detect/models.h"
#include "fault/fault_plan.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "offline/ingest.h"
#include "offline/repository.h"
#include "offline/scoring.h"
#include "query/parser.h"
#include "query/session.h"
#include "serve/server.h"
#include "synth/scenario.h"
#include "tools/pipeline_setup.h"

namespace vaq {
namespace perfbench {
namespace {

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

// The process's resident-set high-water mark (VmHWM). getrusage's
// ru_maxrss is not used: Linux carries it across exec, so it would report
// the launching interpreter's peak when that was larger.
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  long long kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
  }
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;
}

void Fail(RunResult* r, int64_t ops, const std::string& message) {
  r->failed += ops;
  if (r->errors.size() < 8) r->errors.push_back(message);
}

// --- Registry counters --------------------------------------------------
// Each key sums every series of `metric` whose labels include
// `label`=`value` (any series when `label` is empty).
struct CounterKey {
  const char* key;
  const char* metric;
  const char* label;
  const char* value;
};

constexpr CounterKey kCounterKeys[] = {
    {"serve.cache_hits", "vaq_serve_cache_hits_total", "", ""},
    {"serve.cache_misses", "vaq_serve_cache_misses_total", "", ""},
    {"detect.model_calls", "vaq_model_calls_total", "", ""},
    {"detect.model_calls_ok", "vaq_model_calls_total", "outcome", "ok"},
    {"detect.retries", "vaq_model_retries_total", "", ""},
    {"online.clip_evals", "vaq_clips_processed_total", "", ""},
    {"online.degraded", "vaq_clips_degraded_total", "", ""},
    {"scanstat.rejections", "vaq_scanstat_rejections_total", "", ""},
    {"ckpt.snapshots", "vaq_ckpt_snapshots_total", "", ""},
    {"ckpt.snapshot_bytes", "vaq_ckpt_snapshot_bytes_total", "", ""},
    {"ckpt.wal_records", "vaq_ckpt_wal_records_total", "", ""},
    {"cluster.batches", "vaq_cluster_batches_total", "", ""},
    {"cluster.batches_pruned", "vaq_cluster_batches_total", "result",
     "pruned"},
    {"cluster.net_bytes", "vaq_cluster_net_bytes_total", "", ""},
    {"offline.rvaq_iterations", "vaq_rvaq_iterations_total", "", ""},
    {"offline.tables_built", "vaq_ingest_tables_built_total", "", ""},
    {"storage.seeks", "vaq_storage_accesses_total", "kind", "random"},
    {"storage.seeks", "vaq_storage_accesses_total", "kind", "range_scan"},
    {"storage.rows", "vaq_storage_accesses_total", "kind", "sorted"},
    {"storage.rows", "vaq_storage_accesses_total", "kind", "reverse"},
    {"storage.rows", "vaq_storage_accesses_total", "kind", "range_row"},
    {"cascade.candidates_pruned", "vaq_cascade_candidates_pruned_total", "",
     ""},
    {"bai.pulls", "vaq_bai_pulls_total", "", ""},
    {"bai.stops", "vaq_bai_stops_total", "", ""},
    // The program's own span counter: one per video the identifier ran on.
    {"bai.identify_runs", "vaq_span_total", "span", "rvaq/bai_identify"},
};

std::map<std::string, double> ReadCounters() {
  std::map<std::string, double> out;
  for (const CounterKey& k : kCounterKeys) out[k.key] += 0.0;
  const obs::Snapshot snap = obs::MetricRegistry::Global().TakeSnapshot();
  for (const obs::Snapshot::Entry& entry : snap.entries) {
    if (entry.kind != obs::Snapshot::Kind::kCounter) continue;
    for (const CounterKey& k : kCounterKeys) {
      if (entry.name != k.metric) continue;
      bool match = k.label[0] == '\0';
      for (const auto& [label, value] : entry.labels) {
        if (label == k.label && value == k.value) match = true;
      }
      if (match) out[k.key] += static_cast<double>(entry.counter_value);
    }
  }
  return out;
}

// The counter movement since `before`.
std::map<std::string, double> CounterDelta(
    const std::map<std::string, double>& before) {
  std::map<std::string, double> delta = ReadCounters();
  for (auto& [key, value] : delta) value -= before.at(key);
  return delta;
}

void AddCounts(const std::map<std::string, double>& counts, RunResult* r) {
  for (const auto& [key, value] : counts) r->counts[key] += value;
}

// Text rendering of a ranked answer, for byte comparisons.
std::string RenderRanked(const std::vector<offline::RankedSequence>& ranked,
                         const storage::AccessCounter& accesses) {
  std::string out;
  char buf[96];
  for (const offline::RankedSequence& seq : ranked) {
    std::snprintf(buf, sizeof(buf), " lb=%.17g ub=%.17g;", seq.lower_bound,
                  seq.upper_bound);
    out += seq.clips.ToString() + buf;
  }
  return out + " accesses=" + accesses.ToString();
}

std::string RenderTopK(const offline::RepositoryTopKResult& topk) {
  std::vector<offline::RankedSequence> ranked;
  for (const offline::RepositoryRankedSequence& entry : topk.top) {
    ranked.push_back(entry.sequence);
  }
  return RenderRanked(ranked, topk.accesses);
}

// The exact path has no plan and no certificate, so its rendering is
// comparable with RenderTopK.
std::string RenderResult(const query::QueryResult& result) {
  std::string out = RenderRanked(result.ranked, result.accesses);
  if (!result.cascade_plan.empty()) out += " plan=" + result.cascade_plan;
  if (!result.bai_certificate.empty()) {
    out += " bai=" + result.bai_certificate;
  }
  return out;
}

}  // namespace

// --- standing -------------------------------------------------------------
// tools::DemoWorkload's standing statements over the demo streams, durable
// to a MemStore, the streams advanced round-robin one clip per call.
namespace {

// A pass runs one fault plan: whether a long model outage falls inside
// the 108 clips moves a pass's cost by up to 40%, so a run cycles through
// kStandingPlans plans drawn from its seed and reports their mix. Odd, so
// that traced (odd) passes see every plan too.
constexpr int kStandingPlans = 5;

// One fault plan of a standing run, with its reference answers.
struct StandingPlan {
  std::unique_ptr<fault::FaultPlan> faults;
  tools::StandingDemoSpec spec;
  std::vector<std::string> want_results;
  std::string want_metrics;
};

// The reference: the same spec without durability, through the tools
// path.
Status RunStandingReference(int64_t advances, StandingPlan* plan) {
  obs::MetricRegistry::Global().Reset();
  VAQ_ASSIGN_OR_RETURN(std::unique_ptr<serve::Server> server,
                       tools::MakeStandingDemoServer(plan->spec));
  VAQ_RETURN_IF_ERROR(
      tools::AdmitStandingDemoWorkload(server.get(), plan->spec));
  VAQ_RETURN_IF_ERROR(
      tools::DriveStandingDemo(server.get(), plan->spec, advances));
  for (const serve::ServedQuery& q : server->FinishStanding()) {
    plan->want_results.push_back(serve::DescribeServedQuery(q));
  }
  plan->want_metrics = obs::ExportPrometheus(
      obs::FilterSnapshot(obs::MetricRegistry::Global().TakeSnapshot(),
                          serve::LogicalMetricPrefixes()));
  return Status::OK();
}

}  // namespace

RunResult RunStanding(const RunOptions& options) {
  RunResult r;
  std::vector<StandingPlan> plans(kStandingPlans);
  for (int j = 0; j < kStandingPlans; ++j) {
    StandingPlan& plan = plans[static_cast<size_t>(j)];
    plan.spec.num_streams = options.tiny ? 2 : 8;
    plan.spec.num_queries = options.tiny ? 16 : 64;
    plan.spec.seed = options.seed * kStandingPlans + j;
    plan.faults = std::make_unique<fault::FaultPlan>(tools::DemoFaultSpec(),
                                                     plan.spec.seed);
    plan.spec.fault_plan = plan.faults.get();
  }
  const tools::StandingDemoSpec& shape = plans[0].spec;

  // Inputs, generated before any timer.
  std::vector<std::string> names;
  std::vector<synth::Scenario> scenarios;
  for (int i = 0; i < shape.num_streams; ++i) {
    names.push_back("cam" + std::to_string(i));
    scenarios.push_back(tools::DemoScenario(i));
  }
  const std::vector<std::string> statements =
      tools::DemoWorkload(shape.num_streams, shape.num_queries, false);
  const int64_t advances = tools::StandingDemoMaxAdvances(shape);
  // One op is one tick: the next clip of every stream, in stream order
  // (tools::DriveStandingDemo's round-robin). A single advance's latency
  // is multimodal (cache hit or inference, snapshot or not) and its
  // median sits in a gap between modes; a tick's is unimodal.
  const int64_t ticks = advances / shape.num_streams;

  for (StandingPlan& plan : plans) {
    const Status status = RunStandingReference(advances, &plan);
    if (!status.ok()) {
      Fail(&r, 1, "standing reference: " + status.ToString());
      r.attempted = 1;
      return r;
    }
  }

  double measured_s = 0.0;
  const int min_passes = options.trace ? 2 : 1;
  for (int pass = 0; pass < min_passes || measured_s < options.seconds;
       ++pass) {
    const bool traced = options.trace && pass % 2 == 1;
    const StandingPlan& plan = plans[static_cast<size_t>(pass) % plans.size()];
    const tools::StandingDemoSpec& spec = plan.spec;
    r.spans.set_enabled(traced);
    r.spans.set_op(-1);
    obs::MetricRegistry::Global().Reset();
    ckpt::MemStore memstore;
    TimedStore store(&memstore, &r.spans);

    const int64_t setup_start = NowNs();
    serve::ServeOptions so;
    so.threads = 0;
    so.share_detection_cache = spec.share_detection_cache;
    so.fault_plan = spec.fault_plan;
    so.checkpoint_store = &store;
    so.snapshot_every_clips = spec.snapshot_every_clips;
    auto server = std::make_unique<serve::Server>(so);
    Status status;
    {
      ScopedSpan span(&r.spans, "serve.setup");
      for (int i = 0; i < spec.num_streams; ++i) {
        server->RegisterStream(names[static_cast<size_t>(i)],
                               scenarios[static_cast<size_t>(i)],
                               spec.seed + static_cast<uint64_t>(i));
      }
      for (const std::string& sql : statements) {
        const StatusOr<int64_t> id = server->AddStandingQuery(sql);
        if (!id.ok() && status.ok()) status = id.status();
      }
    }
    const double setup_ms = MsSince(setup_start);
    r.setup_s.push_back(setup_ms / 1e3);
    measured_s += setup_ms / 1e3;
    if (!status.ok()) {
      r.attempted += ticks;
      Fail(&r, ticks, "standing admission: " + status.ToString());
      break;
    }

    const auto before = ReadCounters();
    std::vector<double>& latencies = traced ? r.traced_op_ms : r.op_ms;
    int64_t failed = 0;
    for (int64_t tick = 0; tick < ticks; ++tick) {
      r.spans.set_op(r.attempted + tick);
      bool tick_ok = true;
      const int64_t start = NowNs();
      for (const std::string& source : names) {
        ScopedSpan span(&r.spans, "serve.AdvanceStream");
        status = server->AdvanceStream(source);
        if (!status.ok() && tick_ok) {
          tick_ok = false;
          Fail(&r, 0, "advance " + source + ": " + status.ToString());
        }
      }
      const double ms = MsSince(start);
      latencies.push_back(ms);
      measured_s += ms / 1e3;
      if (!tick_ok) ++failed;
    }
    r.spans.set_op(-1);
    std::vector<serve::ServedQuery> finished;
    {
      ScopedSpan span(&r.spans, "serve.FinishStanding");
      finished = server->FinishStanding();
    }
    const serve::ServeStats stats = server->stats();
    r.counts["detect.inferences"] += static_cast<double>(
        stats.detector_stats.inferences + stats.recognizer_stats.inferences);
    r.counts["ckpt.bytes_written"] +=
        static_cast<double>(store.bytes_written());
    std::map<std::string, double> delta = CounterDelta(before);
    // The streaming engines publish neither a degraded-clip nor a
    // scan-statistic rejection counter; their answers carry both. A clip
    // is in an answer's sequences exactly when its scan-statistic tests
    // rejected the null, which is what the batch engines count.
    delta["online.degraded"] = 0.0;
    delta["scanstat.rejections"] = 0.0;
    std::vector<std::string> got;
    for (const serve::ServedQuery& q : finished) {
      delta["online.degraded"] += static_cast<double>(q.result.degraded_clips);
      delta["scanstat.rejections"] +=
          static_cast<double>(q.result.sequences.TotalLength());
      got.push_back(serve::DescribeServedQuery(q));
    }
    AddCounts(delta, &r);
    r.attempted += ticks;

    // Check: results and logical metrics equal the non-durable reference.
    const std::string metrics = obs::ExportPrometheus(
        obs::FilterSnapshot(obs::MetricRegistry::Global().TakeSnapshot(),
                            serve::LogicalMetricPrefixes()));
    if (got != plan.want_results || metrics != plan.want_metrics) {
      Fail(&r, ticks - failed,
           "standing pass " + std::to_string(pass) +
               (got != plan.want_results ? ": results"
                                         : ": logical metrics") +
               " differ from the non-durable reference");
    }
    r.failed += failed;
    if (pass == 0) r.peak_rss_mb = PeakRssMb();
  }
  r.spans.set_enabled(false);
  return r;
}

// --- ranked ---------------------------------------------------------------
namespace {

constexpr char kCorpusName[] = "corpus";

struct Statement {
  std::string sql;
  std::vector<std::string> objects;
  int64_t limit = 5;
  const char* kind = "exact";  // "exact" | "recall" | "confidence".
};

// Every (objects, LIMIT, form) combination once, in a seeded order: the
// seed varies the corpus and the order, never the mix.
std::vector<Statement> MakeStatements(uint64_t seed) {
  static const std::vector<std::vector<std::string>> kObjects = {
      {"dog"}, {"car"}, {"dog", "car"}};
  static const char* const kKinds[] = {"exact", "recall", "confidence"};
  std::vector<Statement> out;
  for (const std::vector<std::string>& objects : kObjects) {
    for (int64_t limit = 1; limit <= 8; ++limit) {
      for (const char* kind : kKinds) {
        Statement s;
        s.objects = objects;
        s.limit = limit;
        s.kind = kind;
        std::string include;
        for (const std::string& object : objects) {
          include += (include.empty() ? "'" : ", '") + object + "'";
        }
        s.sql = std::string("SELECT MERGE(clipID) AS Sequence, "
                            "RANK(act, obj) FROM (PROCESS ") +
                kCorpusName +
                " PRODUCE clipID, obj USING ObjectTracker, "
                "act USING ActionRecognizer) "
                "WHERE act='running' AND obj.include(" +
                include + ") ORDER BY RANK(act, obj) LIMIT " +
                std::to_string(limit);
        if (std::string(kind) == "recall") s.sql += " WITH RECALL 0.9";
        if (std::string(kind) == "confidence") {
          s.sql += " WITH CONFIDENCE 0.05";
        }
        out.push_back(std::move(s));
      }
    }
  }
  // Fisher-Yates on the raw engine output, so the order is the same on
  // every standard library.
  std::mt19937_64 rng(seed);
  for (size_t i = out.size() - 1; i > 0; --i) {
    std::swap(out[i], out[static_cast<size_t>(rng() % (i + 1))]);
  }
  return out;
}

// The ranked corpus: tools::MakeBaiDemo's ingest loop over scenarios
// generated ahead of time, so the timed set-up holds no input synthesis.
struct Corpus {
  offline::Repository repository;
  cascade::ProxySet proxies;
};

Status BuildCorpus(const std::vector<synth::Scenario>& scenarios,
                   uint64_t seed, SpanRecorder* spans, Corpus* corpus) {
  const offline::PaperScoring scoring;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const std::string name = "vid" + std::to_string(i);
    const synth::Scenario& scenario = scenarios[i];
    const uint64_t video_seed = seed + i;
    {
      ScopedSpan span(spans, "offline.Ingest");
      const detect::ModelBundle models =
          detect::ModelBundle::MaskRcnnI3d(scenario.truth(), video_seed);
      const offline::Ingestor ingestor(&scenario.vocab(), &scoring,
                                       offline::IngestOptions{});
      VAQ_ASSIGN_OR_RETURN(storage::VideoIndex index,
                           ingestor.Ingest(scenario.truth(), models));
      corpus->repository.Add(name, std::move(index));
    }
    ScopedSpan span(spans, "cascade.LoadOrBuildProxyIndex");
    VAQ_ASSIGN_OR_RETURN(
        cascade::ProxyVideoIndex proxy,
        cascade::LoadOrBuildProxyIndex(nullptr, name, scenario,
                                       detect::ModelProfile::ProxyCnn(),
                                       video_seed));
    corpus->proxies.emplace(name, std::move(proxy));
  }
  return Status::OK();
}

}  // namespace

RunResult RunRanked(const RunOptions& options) {
  RunResult r;
  // Tiny runs use four videos: with two, the cascade prunes nothing.
  const int num_videos = options.tiny ? 4 : 8;
  // setup_s is the median of the set-ups, spread over the run.
  const int setups = options.tiny ? 1 : 9;
  std::vector<synth::Scenario> scenarios;
  for (int i = 0; i < num_videos; ++i) {
    scenarios.push_back(tools::BaiDemoScenario(i));
  }
  const std::vector<Statement> statements = MakeStatements(options.seed);

  // Reference: every exact statement's answer from the single-node
  // repository built by tools::MakeBaiDemo.
  std::map<std::string, std::string> want;
  {
    auto demo = tools::MakeBaiDemo(num_videos, options.seed);
    if (!demo.ok()) {
      r.attempted = 1;
      Fail(&r, 1, "ranked reference corpus: " + demo.status().ToString());
      return r;
    }
    const offline::PaperScoring scoring;
    for (const Statement& s : statements) {
      if (std::string(s.kind) != "exact") continue;
      offline::RvaqOptions rvaq;
      rvaq.k = s.limit;
      auto topk = demo.value().repository.TopK("running", s.objects, scoring,
                                               rvaq);
      want[s.sql] = topk.ok() ? RenderTopK(topk.value())
                              : "error " + topk.status().ToString();
    }
  }
  // Approximate answers: the first one seen is what every repeat must be.
  std::map<std::string, std::string> seen;

  // The run's time budget covers set-ups and statements; set-up i starts
  // once i / setups of it is spent. A block is one pass over the mix.
  double measured_s = 0.0;
  int64_t block = 0;
  for (int setup = 0; setup < setups; ++setup) {
    r.spans.set_enabled(options.trace);
    r.spans.set_op(-1);
    obs::MetricRegistry::Global().Reset();
    const int64_t setup_start = NowNs();
    Corpus corpus;
    Status status = BuildCorpus(scenarios, options.seed, &r.spans, &corpus);
    cluster::ClusterOptions co;
    co.num_shards = 4;
    co.proxy = &corpus.proxies;
    cluster::Coordinator coordinator(&corpus.repository, co);
    TimedBackend backend(&coordinator, &r.spans);
    query::Session session;
    session.RegisterRankedBackend(kCorpusName, &backend);
    r.setup_s.push_back(MsSince(setup_start) / 1e3);
    measured_s += r.setup_s.back();
    // The set-up's ingest work, per video, for the per-layer metrics.
    r.counts["setup.offline.tables_built"] +=
        ReadCounters().at("offline.tables_built");
    if (!status.ok()) {
      r.attempted += 1;
      Fail(&r, 1, "ranked corpus: " + status.ToString());
      continue;
    }

    const auto before = ReadCounters();
    const double budget_s = options.seconds * (setup + 1) / setups;
    for (int64_t in_setup = 0;
         measured_s < budget_s || in_setup < (options.trace ? 2 : 1);
         ++block, ++in_setup) {
      const bool traced = options.trace && block % 2 == 1;
      r.spans.set_enabled(traced);
      std::vector<double>& latencies = traced ? r.traced_op_ms : r.op_ms;
      for (const Statement& s : statements) {
        r.spans.set_op(r.attempted);
        const int64_t start = NowNs();
        StatusOr<query::QueryResult> result = Status::OK();
        {
          ScopedSpan span(&r.spans, "query.Execute", s.kind);
          StatusOr<query::QueryStatement> stmt = Status::OK();
          {
            ScopedSpan parse(&r.spans, "query.Parse");
            stmt = query::Parse(s.sql);
          }
          result = stmt.ok() ? session.Execute(stmt.value())
                             : StatusOr<query::QueryResult>(stmt.status());
        }
        const double ms = MsSince(start);
        latencies.push_back(ms);
        measured_s += ms / 1e3;
        ++r.attempted;

        // Check, outside the timed region.
        if (!result.ok()) {
          Fail(&r, 1, s.sql + ": " + result.status().ToString());
          continue;
        }
        r.counts["storage.results"] +=
            static_cast<double>(result.value().ranked.size());
        const std::string got = RenderResult(result.value());
        if (std::string(s.kind) == "exact") {
          if (got != want[s.sql]) {
            Fail(&r, 1, "exact answer differs from Repository::TopK: " +
                            s.sql);
          }
          continue;
        }
        const auto [it, inserted] = seen.emplace(s.sql, got);
        if (!inserted && it->second != got) {
          Fail(&r, 1, "approximate answer changed between runs: " + s.sql);
        }
      }
      if (block == 0) r.peak_rss_mb = PeakRssMb();
    }
    r.spans.set_enabled(false);
    AddCounts(CounterDelta(before), &r);
  }
  r.spans.set_enabled(false);
  return r;
}

}  // namespace perfbench
}  // namespace vaq
