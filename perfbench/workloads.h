// The two workloads of the wall-clock benchmark (perfbench/README.md):
//
//   standing — durable standing queries advanced clip by clip (serve);
//   ranked   — top-k statements over a sharded corpus (query → cluster),
//              whose set-up ingests the corpus and builds its proxy tier.
//
// Each runs single-threaded and closed-loop: the next call starts when
// the previous one returned. Inputs are generated from the seed before
// any timer starts; correctness checks run outside the timed regions.
#ifndef VAQ_PERFBENCH_WORKLOADS_H_
#define VAQ_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/spans.h"

namespace vaq {
namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 0.0;
  // Alternate untraced and traced units (passes or statement blocks);
  // per-layer numbers come from the traced ones only.
  bool trace = false;
  // Smoke size: a handful of streams/videos, for the benchmark's own test.
  bool tiny = false;
};

struct RunResult {
  std::vector<double> setup_s;        // One sample per set-up.
  std::vector<double> op_ms;          // Untraced ops.
  std::vector<double> traced_op_ms;   // Traced ops (trace mode).
  // Resident-set high-water mark (VmHWM) after set-up and the first unit
  // of work, before the samples above grow with the run's length.
  double peak_rss_mb = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;                 // Failed or mis-verified ops.
  std::vector<std::string> errors;    // First few failure messages.
  // Registry counter deltas over the op windows, plus counts the driver
  // keeps itself; keys are listed in workloads.cc. Keys that start with
  // "setup." are deltas over the set-ups instead.
  std::map<std::string, double> counts;
  SpanRecorder spans;
};

RunResult RunStanding(const RunOptions& options);
RunResult RunRanked(const RunOptions& options);

}  // namespace perfbench
}  // namespace vaq

#endif  // VAQ_PERFBENCH_WORKLOADS_H_
