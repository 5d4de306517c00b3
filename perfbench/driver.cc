// perfbench_driver: one run of one wall-clock benchmark workload.
//
//   perfbench_driver --workload standing|ranked --seed N
//                    --seconds S --trace 0|1 [--tiny] [--rev REV]
//                    [--spans-out PATH]
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced units and prints the per-layer metrics (span self times and
// registry counter deltas, each ratio next to its base). The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// perfbench/run.py builds this binary and is the command to run.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/spans.h"
#include "perfbench/workloads.h"

namespace vaq {
namespace perfbench {
namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;  // Required: run.py passes BENCHMARK.json's.
  bool trace = false;
  bool tiny = false;
  std::string rev = "unknown";
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--rev") {
      args->rev = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return (args->workload == "standing" || args->workload == "ranked") &&
         args->seconds > 0.0;
}

// Nearest-rank percentile; 0 for an empty sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(p * n - 1e-9)), 1, v.size());
  return v[rank - 1];
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string base;  // Human-readable base of a ratio; "" when none.
};

// Per-name span aggregates. Spans outside any op (set-up, FinishStanding)
// are keyed "setup:<name>".
struct SpanStats {
  std::map<std::string, double> total_ms;
  std::map<std::string, double> self_ms;
  std::map<std::string, int64_t> count;
  std::map<std::string, std::vector<double>> by_detail_ms;  // name/detail.
};

SpanStats Aggregate(const SpanRecorder& spans) {
  SpanStats out;
  const std::vector<int64_t> self = spans.SelfNs();
  for (size_t i = 0; i < spans.spans().size(); ++i) {
    const Span& s = spans.spans()[i];
    std::string name = s.name;
    if (name.rfind("ckpt.", 0) == 0) name = "ckpt.*";
    if (s.op < 0) name = "setup:" + name;
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    out.total_ms[name] += ms;
    out.self_ms[name] += static_cast<double>(self[i]) / 1e6;
    ++out.count[name];
    out.by_detail_ms[name + "/" + s.detail].push_back(ms);
  }
  return out;
}

std::vector<Metric> EndToEnd(const RunResult& r) {
  return {
      {"setup_s", Percentile(r.setup_s, 0.5), "s",
       std::to_string(r.setup_s.size()) + " set-ups"},
      {"ops_per_s", Ratio(static_cast<double>(r.op_ms.size()),
                          Sum(r.op_ms) / 1e3),
       "1/s", std::to_string(r.op_ms.size()) + " ops"},
      {"latency_p50_ms", Percentile(r.op_ms, 0.5), "ms",
       std::to_string(r.op_ms.size()) + " ops"},
      {"latency_p99_ms", Percentile(r.op_ms, 0.99), "ms",
       std::to_string(r.op_ms.size()) + " ops"},
      {"peak_rss_mb", r.peak_rss_mb, "MB", "after the first unit"},
  };
}

std::vector<Metric> PerLayer(const RunResult& r) {
  const SpanStats spans = Aggregate(r.spans);
  const auto count = [&](const char* key) {
    const auto it = r.counts.find(key);
    return it == r.counts.end() ? 0.0 : it->second;
  };
  const auto total = [&](const char* name) {
    const auto it = spans.total_ms.find(name);
    return it == spans.total_ms.end() ? 0.0 : it->second;
  };
  const auto self = [&](const char* name) {
    const auto it = spans.self_ms.find(name);
    return it == spans.self_ms.end() ? 0.0 : it->second;
  };
  const auto p50 = [&](const char* key) {
    const auto it = spans.by_detail_ms.find(key);
    return it == spans.by_detail_ms.end() ? 0.0 : Percentile(it->second, 0.5);
  };
  const auto spans_named = [&](const char* name) {
    const auto it = spans.count.find(name);
    return it == spans.count.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double ops = static_cast<double>(r.attempted);
  const double traced = static_cast<double>(r.traced_op_ms.size());
  const std::string per_op = std::to_string(r.attempted) + " ops";
  const std::string per_traced = std::to_string(r.traced_op_ms.size()) +
                                 " traced ops";

  const double lookups =
      count("serve.cache_hits") + count("serve.cache_misses");
  const double calls = count("detect.model_calls");
  const double clips = count("online.clip_evals");
  const double snapshots = count("ckpt.snapshots");
  const double batches = count("cluster.batches");
  const double results = count("storage.results");
  const double identified = count("bai.identify_runs");
  const double untraced_rate =
      Ratio(static_cast<double>(r.op_ms.size()), Sum(r.op_ms));
  const double traced_rate = Ratio(traced, Sum(r.traced_op_ms));

  const auto n = [](double v) {
    return std::to_string(static_cast<long long>(v));
  };
  // Only ranked's set-ups ingest, and a traced run traces every set-up.
  const double videos = spans_named("setup:offline.Ingest");
  const std::string per_video = n(videos) + " videos ingested in set-ups";
  return {
      {"serve.advance_self_ms",
       Ratio(self("serve.AdvanceStream"), spans_named("serve.AdvanceStream")),
       "ms", n(spans_named("serve.AdvanceStream")) + " advances"},
      {"serve.cache_hit_ratio", Ratio(count("serve.cache_hits"), lookups),
       "ratio", n(lookups) + " lookups"},
      {"detect.inferences_per_op", Ratio(count("detect.inferences"), ops),
       "count/op", per_op},
      {"detect.failed_call_ratio",
       Ratio(calls - count("detect.model_calls_ok"), calls), "ratio",
       n(calls) + " model calls"},
      {"detect.retries_per_op", Ratio(count("detect.retries"), ops),
       "count/op", per_op},
      {"online.clip_evals_per_op", Ratio(clips, ops), "count/op", per_op},
      {"online.degraded_ratio", Ratio(count("online.degraded"), clips),
       "ratio", n(clips) + " clip evals"},
      {"scanstat.rejections_per_op", Ratio(count("scanstat.rejections"), ops),
       "count/op", per_op},
      {"ckpt.store_ms_per_op", Ratio(total("ckpt.*"), traced), "ms/op",
       per_traced},
      {"ckpt.bytes_per_op", Ratio(count("ckpt.bytes_written"), ops), "B/op",
       per_op},
      {"ckpt.snapshot_bytes_per_snapshot",
       Ratio(count("ckpt.snapshot_bytes"), snapshots), "B",
       n(snapshots) + " snapshots"},
      {"ckpt.wal_records_per_op", Ratio(count("ckpt.wal_records"), ops),
       "count/op", per_op},
      {"query.parse_ms_per_op", Ratio(total("query.Parse"), traced), "ms/op",
       per_traced},
      {"query.session_self_ms_per_op", Ratio(self("query.Execute"), traced),
       "ms/op", per_traced},
      {"cluster.execute_ms_per_op",
       Ratio(total("cluster.ExecuteRanked"), traced), "ms/op", per_traced},
      {"cluster.batches_per_op", Ratio(batches, ops), "count/op", per_op},
      {"cluster.batches_pruned_ratio",
       Ratio(count("cluster.batches_pruned"), batches), "ratio",
       n(batches) + " batches"},
      {"cluster.net_bytes_per_op", Ratio(count("cluster.net_bytes"), ops),
       "B/op", per_op},
      {"offline.rvaq_iterations_per_op",
       Ratio(count("offline.rvaq_iterations"), ops), "count/op", per_op},
      {"offline.exact_query_p50_ms", p50("query.Execute/exact"), "ms",
       "traced exact statements"},
      {"offline.ingest_ms_per_video",
       Ratio(total("setup:offline.Ingest"), videos), "ms/video", per_video},
      {"offline.tables_built_per_video",
       Ratio(count("setup.offline.tables_built"), videos), "count/video",
       per_video},
      {"storage.seeks_per_op", Ratio(count("storage.seeks"), ops), "count/op",
       per_op},
      {"storage.rows_per_op", Ratio(count("storage.rows"), ops), "count/op",
       per_op},
      {"storage.rows_per_result", Ratio(count("storage.rows"), results),
       "count", n(results) + " results"},
      {"cascade.proxy_build_ms_per_video",
       Ratio(total("setup:cascade.LoadOrBuildProxyIndex"), videos),
       "ms/video", per_video},
      {"cascade.candidates_pruned_per_op",
       Ratio(count("cascade.candidates_pruned"), ops), "count/op", per_op},
      {"cascade.recall_query_p50_ms", p50("query.Execute/recall"), "ms",
       "traced recall statements"},
      {"bai.pulls_per_op", Ratio(count("bai.pulls"), ops), "count/op",
       per_op},
      {"bai.stop_ratio", Ratio(count("bai.stops"), identified), "ratio",
       n(identified) + " videos identified (rvaq/bai_identify spans)"},
      {"bai.confidence_query_p50_ms", p50("query.Execute/confidence"), "ms",
       "traced confidence statements"},
      {"trace_overhead_ratio", Ratio(traced_rate, untraced_rate), "ratio",
       "traced vs untraced ops/s, " + per_traced},
  };
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench
}  // namespace vaq

int main(int argc, char** argv) {
  using namespace vaq::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload standing|ranked "
                 "--seed N --seconds S --trace 0|1 [--tiny] [--rev REV] "
                 "[--spans-out PATH]\n");
    return 2;
  }
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
  const std::string meta =
      "{\"workload\": " + JsonString(args.workload) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"git_rev\": " + JsonString(args.rev) +
      ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
      ", \"optimized\": " + (kOptimized ? "true" : "false") +
      ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"host\": " + JsonString(host) + "}";
  std::printf("meta %s\n", meta.c_str());
  if (!kOptimized) {
    std::fprintf(stderr,
                 "\n*** WARNING: perfbench was built WITHOUT optimization "
                 "(build type '%s'); wall-clock numbers are meaningless. "
                 "***\n\n",
                 PERFBENCH_BUILD_TYPE);
  }

  RunOptions options;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.trace = args.trace;
  options.tiny = args.tiny;
  const RunResult r = args.workload == "standing" ? RunStanding(options)
                                                  : RunRanked(options);

  if (args.trace && !args.spans_out.empty() &&
      !r.spans.WriteJsonLines(args.spans_out)) {
    std::fprintf(stderr, "cannot write spans to %s\n", args.spans_out.c_str());
  }
  for (const std::string& error : r.errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }

  const std::vector<Metric> metrics = args.trace ? PerLayer(r) : EndToEnd(r);
  std::printf("%s seed=%llu %s: attempted=%lld failed=%lld error_ratio=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? "per-layer (traced)" : "end-to-end",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed),
              Number(Ratio(static_cast<double>(r.failed),
                           static_cast<double>(r.attempted)))
                  .c_str());
  std::string json_metrics;
  for (const Metric& m : metrics) {
    const std::string base = m.base.empty() ? "" : "base: " + m.base;
    std::printf("  %-34s %14.6g %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), base.c_str());
    if (!json_metrics.empty()) json_metrics += ", ";
    json_metrics += JsonString(m.name) + ": {\"value\": " + Number(m.value) +
                    ", \"unit\": " + JsonString(m.unit) + "}";
  }
  const bool correct = r.failed == 0 && r.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), json_metrics.c_str());
  return correct ? 0 : 1;
}
