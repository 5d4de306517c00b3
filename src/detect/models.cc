#include "detect/models.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"

namespace vaq {
namespace detect {
namespace {

// Salts separating the independent randomness streams of a model.
constexpr uint64_t kFalseNegativeSalt = 0x1f4a11;
constexpr uint64_t kFalsePositiveSalt = 0x2f9b22;
constexpr uint64_t kScoreSalt = 0x3c8d33;
constexpr uint64_t kTrackSalt = 0x4e7f44;
constexpr uint64_t kSwitchSalt = 0x5d6a55;

// Deterministic per-coordinate generator.
Rng MakeRng(uint64_t seed, uint64_t salt, int64_t type, int64_t unit) {
  return Rng(MixSeed(MixSeed(seed, salt ^ static_cast<uint64_t>(type)),
                     static_cast<uint64_t>(unit)));
}

// One Bernoulli decision per `block`-sized run of occurrence units: makes
// errors bursty while preserving the per-OU marginal probability `p`.
bool BlockBernoulli(uint64_t seed, uint64_t salt, int64_t type, int64_t unit,
                    int32_t block, double p) {
  const int64_t block_index = unit / std::max(block, 1);
  return MakeRng(seed, salt, type, block_index).Bernoulli(p);
}

// Confidence score for a prediction. Positive predictions land above the
// threshold (true positives high, false positives just above); negative
// predictions land below it.
double DrawScore(Rng& rng, const ModelProfile& profile, bool positive,
                 bool truth_present) {
  const double thr = profile.threshold;
  if (!positive) {
    return thr * rng.Beta(1.5, 3.0);
  }
  if (truth_present) {
    return thr + (1.0 - thr) * rng.Beta(profile.pos_alpha, profile.pos_beta);
  }
  return thr + (1.0 - thr) * rng.Beta(profile.fp_alpha, profile.fp_beta);
}

// Every lookup indexes the per-unit inference flags (and may fill a memo
// slot), so a unit outside the video is a caller bug, not a score.
void CheckUnit(const char* what, int64_t unit, size_t num_units) {
  VAQ_CHECK(unit >= 0 && static_cast<size_t>(unit) < num_units)
      << what << " " << unit << " outside [0, " << num_units << ")";
}

// One inference counter per (kind, model) family member, resolved once
// per model instance; the per-frame hot path is a single relaxed add.
obs::Counter* InferenceCounter(const char* kind, const ModelProfile& profile) {
  return obs::MetricRegistry::Global().GetCounter(
      std::string("vaq_") + kind + "_inferences_total",
      {{"model", profile.name}});
}

}  // namespace

// ---------------------------------------------------------------------------
// ObjectDetector
// ---------------------------------------------------------------------------

ObjectDetector::ObjectDetector(const synth::GroundTruth* truth,
                               ModelProfile profile, uint64_t seed)
    : truth_(truth), profile_(std::move(profile)), seed_(seed) {
  VAQ_CHECK(truth != nullptr);
  frame_seen_.assign(static_cast<size_t>(truth->layout().num_frames()),
                     false);
  metric_inferences_ = InferenceCounter("detector", profile_);
}

double ObjectDetector::MaxScore(ObjectTypeId type, FrameIndex frame) const {
  CheckUnit("frame", frame, frame_seen_.size());
  ++stats_.type_queries;
  if (!frame_seen_[static_cast<size_t>(frame)]) {
    // A real deployment runs the network once per frame and caches its
    // output for every type; only the first visit costs an inference.
    frame_seen_[static_cast<size_t>(frame)] = true;
    ++stats_.inferences;
    stats_.simulated_ms += profile_.inference_ms;
    metric_inferences_->Increment();
  }
  double score;
  if (memo_.Lookup(type, frame, &score)) return score;
  const bool present = truth_->ObjectFrames(type).Contains(frame);
  bool positive;
  if (present) {
    positive = BlockBernoulli(seed_, kFalseNegativeSalt, type, frame,
                              profile_.fn_block, profile_.tpr);
  } else {
    positive = BlockBernoulli(seed_, kFalsePositiveSalt, type, frame,
                              profile_.fp_block, profile_.fpr);
  }
  Rng rng = MakeRng(seed_, kScoreSalt, type, frame);
  score = DrawScore(rng, profile_, positive, present);
  memo_.Insert(type, frame, score);
  return score;
}

// ---------------------------------------------------------------------------
// ActionRecognizer
// ---------------------------------------------------------------------------

ActionRecognizer::ActionRecognizer(const synth::GroundTruth* truth,
                                   ModelProfile profile, uint64_t seed)
    : truth_(truth), profile_(std::move(profile)), seed_(MixSeed(seed, 0xa)) {
  VAQ_CHECK(truth != nullptr);
  shot_seen_.assign(static_cast<size_t>(truth->layout().NumShots()), false);
  metric_inferences_ = InferenceCounter("recognizer", profile_);
}

double ActionRecognizer::Score(ActionTypeId type, ShotIndex shot) const {
  CheckUnit("shot", shot, shot_seen_.size());
  ++stats_.type_queries;
  if (!shot_seen_[static_cast<size_t>(shot)]) {
    shot_seen_[static_cast<size_t>(shot)] = true;
    ++stats_.inferences;
    stats_.simulated_ms += profile_.inference_ms;
    metric_inferences_->Increment();
  }
  double score;
  if (memo_.Lookup(type, shot, &score)) return score;
  // A shot "contains" the action when at least half of its frames lie in a
  // truth interval — the recognizer's training-time labelling convention.
  const Interval range = truth_->layout().ShotFrameRange(shot);
  const IntervalSet& frames = truth_->ActionFrames(type);
  int64_t covered = 0;
  for (const Interval& iv : frames.intervals()) {
    const int64_t lo = std::max(iv.lo, range.lo);
    const int64_t hi = std::min(iv.hi, range.hi);
    if (lo <= hi) covered += hi - lo + 1;
  }
  const bool present = covered * 2 >= range.length();
  bool positive;
  if (present) {
    positive = BlockBernoulli(seed_, kFalseNegativeSalt, type, shot,
                              profile_.fn_block, profile_.tpr);
  } else {
    positive = BlockBernoulli(seed_, kFalsePositiveSalt, type, shot,
                              profile_.fp_block, profile_.fpr);
  }
  Rng rng = MakeRng(seed_, kScoreSalt, type, shot);
  score = DrawScore(rng, profile_, positive, present);
  memo_.Insert(type, shot, score);
  return score;
}

// ---------------------------------------------------------------------------
// ObjectTracker
// ---------------------------------------------------------------------------

ObjectTracker::ObjectTracker(const synth::GroundTruth* truth,
                             ModelProfile profile, uint64_t seed)
    : truth_(truth), profile_(std::move(profile)), seed_(MixSeed(seed, 0xb)) {
  VAQ_CHECK(truth != nullptr);
  frame_seen_.assign(static_cast<size_t>(truth->layout().num_frames()),
                     false);
  metric_inferences_ = InferenceCounter("tracker", profile_);
}

void ObjectTracker::AppendDetectionsAt(
    ObjectTypeId type, FrameIndex frame,
    const std::vector<const synth::TruthInstance*>& active,
    std::vector<std::pair<FrameIndex, TrackDetection>>* out) const {
  CheckUnit("frame", frame, frame_seen_.size());
  ++stats_.type_queries;
  if (!frame_seen_[static_cast<size_t>(frame)]) {
    frame_seen_[static_cast<size_t>(frame)] = true;
    ++stats_.inferences;
    stats_.simulated_ms += profile_.inference_ms;
    metric_inferences_->Increment();
  }
  for (const synth::TruthInstance* inst : active) {
    if (!inst->frames.Contains(frame)) continue;
    // Per-instance detection noise: key the error stream by the instance id
    // so each track flickers independently.
    const int64_t noise_key = type * 100003 + inst->instance_id;
    const bool detected =
        BlockBernoulli(seed_, kFalseNegativeSalt, noise_key, frame,
                       profile_.fn_block, profile_.tpr);
    if (!detected) continue;
    TrackDetection det;
    det.track_id = inst->instance_id;
    if (profile_.id_switch_prob > 0.0 &&
        BlockBernoulli(seed_, kSwitchSalt, noise_key, frame,
                       std::max(profile_.fn_block, 8), profile_.id_switch_prob)) {
      // Identity switch: the tracker re-assigns a fresh id for this block.
      det.track_id = inst->instance_id + 1000000 +
                     frame / std::max<int64_t>(profile_.fn_block, 8);
    }
    Rng rng = MakeRng(seed_, kScoreSalt ^ kTrackSalt, noise_key, frame);
    det.score = DrawScore(rng, profile_, /*positive=*/true,
                          /*truth_present=*/true);
    out->emplace_back(frame, det);
  }
  // Spurious track: a hallucinated object of this type.
  if (BlockBernoulli(seed_, kFalsePositiveSalt ^ kTrackSalt, type, frame,
                     profile_.fp_block, profile_.fpr)) {
    TrackDetection det;
    det.track_id = 2000000 + type * 10000 +
                   frame / std::max<int32_t>(profile_.fp_block, 1);
    Rng rng = MakeRng(seed_, kScoreSalt ^ kFalsePositiveSalt, type, frame);
    det.score = DrawScore(rng, profile_, /*positive=*/true,
                          /*truth_present=*/false);
    out->emplace_back(frame, det);
  }
}

std::vector<TrackDetection> ObjectTracker::Detect(ObjectTypeId type,
                                                  FrameIndex frame) const {
  std::vector<std::pair<FrameIndex, TrackDetection>> buffer;
  DetectRange(type, Interval(frame, frame), &buffer);
  std::vector<TrackDetection> out;
  out.reserve(buffer.size());
  for (auto& [f, det] : buffer) out.push_back(det);
  return out;
}

void ObjectTracker::DetectRange(
    ObjectTypeId type, const Interval& frames,
    std::vector<std::pair<FrameIndex, TrackDetection>>* out) const {
  if (frames.empty()) return;
  // Collect the instances overlapping the range once.
  std::vector<const synth::TruthInstance*> active;
  for (const synth::ObjectTruth& truth : truth_->objects()) {
    if (truth.type != type) continue;
    for (const synth::TruthInstance& inst : truth.instances) {
      if (inst.frames.Overlaps(frames)) active.push_back(&inst);
    }
  }
  for (FrameIndex f = frames.lo; f <= frames.hi; ++f) {
    AppendDetectionsAt(type, f, active, out);
  }
}

// ---------------------------------------------------------------------------
// ModelBundle
// ---------------------------------------------------------------------------

ModelBundle ModelBundle::Make(const synth::GroundTruth& truth,
                              const ModelProfile& object_profile,
                              const ModelProfile& action_profile,
                              const ModelProfile& tracker_profile,
                              uint64_t seed) {
  ModelBundle bundle;
  bundle.detector =
      std::make_unique<ObjectDetector>(&truth, object_profile, seed);
  bundle.recognizer =
      std::make_unique<ActionRecognizer>(&truth, action_profile, seed);
  bundle.tracker =
      std::make_unique<ObjectTracker>(&truth, tracker_profile, seed);
  return bundle;
}

ModelBundle ModelBundle::MaskRcnnI3d(const synth::GroundTruth& truth,
                                     uint64_t seed) {
  return Make(truth, ModelProfile::MaskRcnn(), ModelProfile::I3d(),
              ModelProfile::CenterTrack(), seed);
}

ModelBundle ModelBundle::YoloI3d(const synth::GroundTruth& truth,
                                 uint64_t seed) {
  return Make(truth, ModelProfile::YoloV3(), ModelProfile::I3d(),
              ModelProfile::CenterTrack(), seed);
}

ModelBundle ModelBundle::Ideal(const synth::GroundTruth& truth,
                               uint64_t seed) {
  return Make(truth, ModelProfile::IdealObject(), ModelProfile::IdealAction(),
              ModelProfile::IdealTracker(), seed);
}

double ModelBundle::TotalSimulatedMs() const {
  return detector->stats().simulated_ms + recognizer->stats().simulated_ms +
         tracker->stats().simulated_ms;
}

void ModelBundle::ResetStats() {
  detector->ResetStats();
  recognizer->ResetStats();
  tracker->ResetStats();
}

}  // namespace detect
}  // namespace vaq
