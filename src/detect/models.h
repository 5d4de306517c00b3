// Simulated perception models: object detector, action recognizer, object
// tracker.
//
// Each model is a *pure deterministic function* of (seed, type, occurrence
// unit): any OU can be queried in any order and always yields the same
// score, which makes online processing, offline ingestion and re-runs
// reproducible. Randomness comes from hashing the coordinates into an RNG
// stream; bursty errors are realised by drawing the error decision once per
// `fp_block`/`fn_block`-sized block of OUs.
//
// All models count their invocations: the number of distinct inference
// calls (frames for the detector/tracker, shots for the recognizer) and the
// simulated inference cost, reproducing the paper's §5.2 runtime analysis.
//
// Because scores are pure, the detector and the recognizer also memoize
// them (ScoreMemo): a repeated (type, unit) lookup returns the stored
// double instead of redrawing it, the way a deployment reuses the network
// output of a frame it has already run. The memo is a pure cache: every
// lookup is still counted, it is never checkpointed, and a hit is
// bit-identical to a fresh draw.
#ifndef VAQ_DETECT_MODELS_H_
#define VAQ_DETECT_MODELS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "detect/model_profile.h"
#include "obs/metrics.h"
#include "synth/ground_truth.h"
#include "video/layout.h"
#include "video/vocabulary.h"

namespace vaq {
namespace detect {

// Invocation statistics of one model.
//
// Not thread-safe: a ModelStats (and the model that owns it) must only be
// mutated from one thread at a time. Concurrent runtimes (src/serve/)
// therefore keep one accumulator per worker and combine them with
// Merge() once the workers have drained — stats are never shared hot.
struct ModelStats {
  int64_t inferences = 0;    // Distinct OUs run through the network.
  int64_t type_queries = 0;  // (type, OU) score lookups served.
  double simulated_ms = 0;   // inferences × profile.inference_ms.

  // Resilience accounting, populated by the detect::Resilient* wrappers
  // and the engines' degradation policies (all zero when fault injection
  // is off; see src/fault/).
  int64_t faults_injected = 0;  // Attempts that failed or returned garbage.
  int64_t retries = 0;          // Extra attempts after a failed one.
  int64_t failures = 0;         // Observations abandoned after the budget.
  int64_t fallbacks = 0;        // Observations filled by a missing-obs policy.
  int64_t breaker_trips = 0;    // Circuit-breaker open transitions.

  // Checkpoint body (ckpt::Archive, DESIGN.md §10).
  template <typename Archive>
  void Persist(Archive& ar) {
    ar.I64(inferences);
    ar.I64(type_queries);
    ar.F64(simulated_ms);
    ar.I64(faults_injected);
    ar.I64(retries);
    ar.I64(failures);
    ar.I64(fallbacks);
    ar.I64(breaker_trips);
  }

  // Aggregation across models of a bundle or runs of a sweep; replaces
  // field-by-field hand summing at the call sites.
  ModelStats& operator+=(const ModelStats& other) {
    inferences += other.inferences;
    type_queries += other.type_queries;
    simulated_ms += other.simulated_ms;
    faults_injected += other.faults_injected;
    retries += other.retries;
    failures += other.failures;
    fallbacks += other.fallbacks;
    breaker_trips += other.breaker_trips;
    return *this;
  }

  // Merge-at-drain spelling of operator+= for worker-local accumulators:
  // N accumulators filled on N threads and merged on one thread afterwards
  // total exactly what a single-thread run would have counted.
  ModelStats& Merge(const ModelStats& other) { return *this += other; }

  // Delta between two cumulative snapshots of the same model: the engines
  // report per-run stats as stats_after - stats_before, which stays
  // correct when a model instance is shared across successive runs (the
  // serving layer's shared detection cache).
  ModelStats& operator-=(const ModelStats& other) {
    inferences -= other.inferences;
    type_queries -= other.type_queries;
    simulated_ms -= other.simulated_ms;
    faults_injected -= other.faults_injected;
    retries -= other.retries;
    failures -= other.failures;
    fallbacks -= other.fallbacks;
    breaker_trips -= other.breaker_trips;
    return *this;
  }
  friend ModelStats operator-(ModelStats a, const ModelStats& b) {
    a -= b;
    return a;
  }

  // Same shape as storage::AccessCounter::ToString().
  std::string ToString() const {
    std::string out = "{inferences=" + std::to_string(inferences) +
                      ", type_queries=" + std::to_string(type_queries) +
                      ", simulated_ms=" + std::to_string(simulated_ms);
    if (faults_injected > 0 || retries > 0 || failures > 0 ||
        fallbacks > 0 || breaker_trips > 0) {
      out += ", faults=" + std::to_string(faults_injected) +
             ", retries=" + std::to_string(retries) +
             ", failures=" + std::to_string(failures) +
             ", fallbacks=" + std::to_string(fallbacks) +
             ", breaker_trips=" + std::to_string(breaker_trips);
    }
    return out + "}";
  }
};

// Fixed-size memo of drawn scores keyed by (type, unit), shared by the
// detector and the recognizer. Set-associative on the unit: consecutive
// units map to distinct sets, and each set keeps the last kWays pairs
// inserted into it, so up to kWays types of every unit in a window of
// kSets consecutive units (one clip and then some) stay resident together.
// Follows the owning model's one-thread-at-a-time contract.
class ScoreMemo {
 public:
  static constexpr int64_t kSets = 128;
  static constexpr int64_t kWays = 4;

  // True (and `*score` set) when (type, unit) is resident.
  bool Lookup(int32_t type, int64_t unit, double* score) const {
    const Slot* set = &slots_[SetOf(unit) * kWays];
    for (int64_t way = 0; way < kWays; ++way) {
      if (set[way].unit == unit && set[way].type == type) {
        *score = set[way].score;
        return true;
      }
    }
    return false;
  }

  // Stores a score for a non-negative unit, evicting the oldest entry of
  // its set.
  void Insert(int32_t type, int64_t unit, double score) {
    const size_t set = SetOf(unit);
    uint8_t& next = next_way_[set];
    slots_[set * kWays + next] = Slot{unit, type, score};
    next = static_cast<uint8_t>((next + 1) % kWays);
  }

 private:
  struct Slot {
    int64_t unit = -1;  // -1 marks an empty slot; units are >= 0.
    int32_t type = 0;
    double score = 0.0;
  };
  static size_t SetOf(int64_t unit) {
    return static_cast<size_t>(unit) & static_cast<size_t>(kSets - 1);
  }

  std::array<Slot, kSets * kWays> slots_{};
  std::array<uint8_t, kSets> next_way_{};
};
static_assert((ScoreMemo::kSets & (ScoreMemo::kSets - 1)) == 0,
              "set index is a mask");
static_assert(sizeof(ScoreMemo) <= 16 * 1024, "memo stays small");

// Simulated object detector. Reports max S_o^(v): the maximum detection
// score of an object type on a frame (§2).
class ObjectDetector {
 public:
  // `truth` must outlive the detector.
  ObjectDetector(const synth::GroundTruth* truth, ModelProfile profile,
                 uint64_t seed);

  // Maximum detection score of `type` on `frame`; compare against
  // profile().threshold for the prediction indicator 1_o^(v). `frame`
  // must lie in [0, num_frames).
  double MaxScore(ObjectTypeId type, FrameIndex frame) const;

  // The indicator 1_o^(v) = 1[maxScore >= T_obj].
  bool IsPositive(ObjectTypeId type, FrameIndex frame) const {
    return MaxScore(type, frame) >= profile_.threshold;
  }

  const ModelProfile& profile() const { return profile_; }
  const ModelStats& stats() const { return stats_; }
  // Resilience wrappers account their fault/retry counters here so the
  // existing stats plumbing surfaces them unchanged.
  ModelStats& mutable_stats() { return stats_; }
  void ResetStats() {
    stats_ = ModelStats();
    std::fill(frame_seen_.begin(), frame_seen_.end(), false);
  }

 private:
  const synth::GroundTruth* truth_;
  ModelProfile profile_;
  uint64_t seed_;
  mutable ModelStats stats_;
  mutable std::vector<bool> frame_seen_;  // Per-frame inference cache.
  mutable ScoreMemo memo_;                // (type, frame) score cache.
  // Registry mirror of `inferences`, labeled by model (resolved once).
  obs::Counter* metric_inferences_ = nullptr;
};

// Simulated action recognizer operating on shots (§2).
class ActionRecognizer {
 public:
  ActionRecognizer(const synth::GroundTruth* truth, ModelProfile profile,
                   uint64_t seed);

  // Score S_a^(s) of action `type` on shot `shot`, which must lie in
  // [0, NumShots).
  double Score(ActionTypeId type, ShotIndex shot) const;

  bool IsPositive(ActionTypeId type, ShotIndex shot) const {
    return Score(type, shot) >= profile_.threshold;
  }

  const ModelProfile& profile() const { return profile_; }
  const ModelStats& stats() const { return stats_; }
  ModelStats& mutable_stats() { return stats_; }
  void ResetStats() {
    stats_ = ModelStats();
    std::fill(shot_seen_.begin(), shot_seen_.end(), false);
  }

 private:
  const synth::GroundTruth* truth_;
  ModelProfile profile_;
  uint64_t seed_;
  mutable ModelStats stats_;
  mutable std::vector<bool> shot_seen_;  // Per-shot inference cache.
  mutable ScoreMemo memo_;               // (type, shot) score cache.
  obs::Counter* metric_inferences_ = nullptr;
};

// One tracked detection on a frame: a stable track id plus the tracker's
// confidence score S_o^{t,(v)} (§2).
struct TrackDetection {
  int64_t track_id = 0;
  double score = 0.0;
};

// Simulated multi-object tracker (CenterTrack-style): assigns stable ids
// to ground-truth instances, with occasional id switches and spurious
// tracks according to the profile.
class ObjectTracker {
 public:
  ObjectTracker(const synth::GroundTruth* truth, ModelProfile profile,
                uint64_t seed);

  // Tracked detections of `type` on `frame`.
  std::vector<TrackDetection> Detect(ObjectTypeId type,
                                     FrameIndex frame) const;

  // Batched variant over an inclusive frame range; appends (frame,
  // detection) pairs to `out`. Much faster than per-frame Detect() for
  // clip-major ingestion scans.
  void DetectRange(ObjectTypeId type, const Interval& frames,
                   std::vector<std::pair<FrameIndex, TrackDetection>>* out)
      const;

  const ModelProfile& profile() const { return profile_; }
  const ModelStats& stats() const { return stats_; }
  void ResetStats() {
    stats_ = ModelStats();
    std::fill(frame_seen_.begin(), frame_seen_.end(), false);
  }

 private:
  void AppendDetectionsAt(
      ObjectTypeId type, FrameIndex frame,
      const std::vector<const synth::TruthInstance*>& active,
      std::vector<std::pair<FrameIndex, TrackDetection>>* out) const;

  const synth::GroundTruth* truth_;
  ModelProfile profile_;
  uint64_t seed_;
  mutable ModelStats stats_;
  mutable std::vector<bool> frame_seen_;  // Per-frame inference cache.
  obs::Counter* metric_inferences_ = nullptr;
};

// The set of models one experiment deploys, bound to a single video.
struct ModelBundle {
  std::unique_ptr<ObjectDetector> detector;
  std::unique_ptr<ActionRecognizer> recognizer;
  std::unique_ptr<ObjectTracker> tracker;

  static ModelBundle Make(const synth::GroundTruth& truth,
                          const ModelProfile& object_profile,
                          const ModelProfile& action_profile,
                          const ModelProfile& tracker_profile, uint64_t seed);

  // The paper's default stack: Mask R-CNN + I3D + CenterTrack.
  static ModelBundle MaskRcnnI3d(const synth::GroundTruth& truth,
                                 uint64_t seed);
  // Table 4's alternative stack: YOLOv3 + I3D.
  static ModelBundle YoloI3d(const synth::GroundTruth& truth, uint64_t seed);
  // Ground-truth oracles.
  static ModelBundle Ideal(const synth::GroundTruth& truth, uint64_t seed);

  // Total simulated inference time across all models.
  double TotalSimulatedMs() const;
  void ResetStats();
};

}  // namespace detect
}  // namespace vaq

#endif  // VAQ_DETECT_MODELS_H_
