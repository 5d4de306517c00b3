// Algorithm SVAQ (§3.1): streaming video action queries with static
// critical values derived from a fixed background probability via scan
// statistics (Eq. 5).
#ifndef VAQ_ONLINE_SVAQ_H_
#define VAQ_ONLINE_SVAQ_H_

#include <cstdint>
#include <vector>

#include "common/interval.h"
#include "detect/models.h"
#include "scanstat/critical_value.h"
#include "video/layout.h"
#include "video/query_spec.h"

namespace vaq {
namespace online {

// Options shared by SVAQ and SVAQD.
struct SvaqOptions {
  // Significance level of Eq. 5.
  double alpha = 0.01;
  // Initial background probability of positive object predictions per
  // frame (one value for all object predicates; §3.2 allows per-predicate
  // values — use `p0_per_object` to override).
  double p0_object = 1e-3;
  // Initial background probability of positive action predictions per shot.
  double p0_action = 1e-3;
  // Optional per-object-predicate overrides (empty = use p0_object).
  std::vector<double> p0_per_object;
  // Design horizon in frames for the scan-statistic length L = N/w; 0
  // means "use the video length" (streaming callers should set their
  // expected stream length).
  int64_t horizon_frames = 0;
  // Evaluate predicates sequentially and skip the rest of a clip after the
  // first negative predicate (Algorithm 2 lines 6-8).
  bool short_circuit = true;
};

// Result of running an online algorithm over a (finite prefix of a)
// stream.
struct OnlineResult {
  // The result sequences P_q = {(c_l, c_r)} of Eq. 4, clip granularity.
  IntervalSet sequences;
  // Per-clip query indicator 1_q^(c).
  std::vector<bool> clip_indicator;
  int64_t clips_processed = 0;
  // Final critical values (SVAQD mutates them as the stream evolves).
  std::vector<int64_t> kcrit_objects;
  int64_t kcrit_action = 0;
  // Model invocation accounting for the §5.2 runtime analysis.
  detect::ModelStats detector_stats;
  detect::ModelStats recognizer_stats;
  // Degradation accounting (nonzero only under fault injection): clips
  // with at least one missing observation, and clips lost wholesale.
  int64_t degraded_clips = 0;
  int64_t dropped_clips = 0;
  // Wall-clock time spent in the algorithm itself (excludes the simulated
  // inference cost, which is detector_stats/recognizer_stats.simulated_ms).
  double algorithm_wall_ms = 0.0;
};

// SVAQ: static critical values from the initial background probabilities
// (Algorithm 1): a driver that pushes every clip of the video through a
// non-adaptive, non-probing conjunctive CnfStream.
class Svaq {
 public:
  Svaq(QuerySpec query, VideoLayout layout, SvaqOptions options);

  // Processes every clip of the bound video in stream order.
  OnlineResult Run(detect::ObjectDetector* detector,
                   detect::ActionRecognizer* recognizer) const;

  const SvaqOptions& options() const { return options_; }

  // Critical values implied by the options (computed once, before the
  // stream starts). Exposed for tests and diagnostics.
  std::vector<int64_t> InitialObjectCriticalValues() const;
  int64_t InitialActionCriticalValue() const;

 private:
  QuerySpec query_;
  VideoLayout layout_;
  SvaqOptions options_;
};

// Scan-statistic configuration for an object predicate of a query over
// `layout` (window = frames per clip, horizon in frames).
scanstat::ScanConfig ObjectScanConfig(const VideoLayout& layout,
                                      const SvaqOptions& options);
// Scan-statistic configuration for the action predicate (window = shots
// per clip, horizon in shots).
scanstat::ScanConfig ActionScanConfig(const VideoLayout& layout,
                                      const SvaqOptions& options);

}  // namespace online
}  // namespace vaq

#endif  // VAQ_ONLINE_SVAQ_H_
