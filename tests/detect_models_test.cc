#include "detect/models.h"

#include <algorithm>
#include <cstring>
#include <gtest/gtest.h>
#include <utility>
#include <vector>

#include "synth/generator.h"

namespace vaq {
namespace detect {
namespace {

synth::GroundTruth MakeTruth(uint64_t seed = 3) {
  synth::ScenarioSpec spec;
  spec.minutes = 8;
  spec.fps = 30;
  spec.seed = seed;
  synth::ActionTrackSpec action;
  action.name = "jumping";
  action.duty = 0.3;
  action.mean_len_frames = 900;
  spec.actions.push_back(action);
  synth::ObjectTrackSpec obj;
  obj.name = "car";
  obj.background_duty = 0.2;
  obj.mean_len_frames = 700;
  obj.mean_instances = 1.5;
  spec.objects.push_back(obj);
  static Vocabulary vocab;  // Shared across calls; ids stay stable.
  return synth::Generate(spec, vocab);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// (type, unit) lookups in orders chosen to stress the score memo: repeats,
// interleaved types, pairs sharing a set, evicting a set and returning to
// its first entry, and a far jump and back. `num_units` is the video's
// frame or shot count.
std::vector<std::pair<int32_t, int64_t>> AdversarialOrder(int64_t num_units) {
  constexpr int64_t kSets = ScoreMemo::kSets;
  constexpr int64_t kWays = ScoreMemo::kWays;
  std::vector<std::pair<int32_t, int64_t>> order;
  for (int rep = 0; rep < 3; ++rep) order.emplace_back(0, 40);
  for (int64_t u = 100; u < 200; ++u) {
    order.emplace_back(0, u);
    order.emplace_back(1, u);
  }
  for (int64_t u = 100; u < 200; ++u) order.emplace_back(1, u);
  // Same set, different unit and type.
  order.emplace_back(0, 7);
  order.emplace_back(1, 7 + kSets);
  order.emplace_back(0, 7 + kSets);
  order.emplace_back(1, 7);
  // One more pair than the set holds, then back to the evicted first one.
  for (int64_t i = 0; i <= kWays; ++i) order.emplace_back(0, 9 + i * kSets);
  order.emplace_back(0, 9);
  order.emplace_back(0, 9 + kWays * kSets);
  // Far jump and return.
  order.emplace_back(0, 150);
  order.emplace_back(1, num_units - 1);
  order.emplace_back(0, num_units - 1 - kSets * 3);
  order.emplace_back(0, 150);
  order.emplace_back(1, 150);
  return order;
}

TEST(ObjectDetectorTest, PureFunctionOfCoordinates) {
  const synth::GroundTruth truth = MakeTruth();
  const ObjectDetector det(&truth, ModelProfile::MaskRcnn(), 99);
  for (FrameIndex f : {0L, 100L, 5555L}) {
    const double first = det.MaxScore(0, f);
    const double again = det.MaxScore(0, f);
    EXPECT_DOUBLE_EQ(first, again);
  }
  // Out-of-order access equals in-order access.
  const double at_10 = det.MaxScore(0, 10);
  det.MaxScore(0, 9999);
  EXPECT_DOUBLE_EQ(det.MaxScore(0, 10), at_10);
}

TEST(ObjectDetectorTest, EmpiricalRatesMatchProfile) {
  const synth::GroundTruth truth = MakeTruth();
  const ModelProfile profile = ModelProfile::MaskRcnn();
  const ObjectDetector det(&truth, profile, 7);
  int64_t tp = 0;
  int64_t fp = 0;
  int64_t pos = 0;
  int64_t neg = 0;
  for (FrameIndex f = 0; f < truth.layout().num_frames(); ++f) {
    const bool present = truth.ObjectFrames(0).Contains(f);
    const bool fired = det.IsPositive(0, f);
    if (present) {
      ++pos;
      tp += fired;
    } else {
      ++neg;
      fp += fired;
    }
  }
  ASSERT_GT(pos, 1000);
  ASSERT_GT(neg, 1000);
  EXPECT_NEAR(static_cast<double>(tp) / pos, profile.tpr, 0.05);
  EXPECT_NEAR(static_cast<double>(fp) / neg, profile.fpr, 0.01);
}

TEST(ObjectDetectorTest, ScoreThresholdConsistency) {
  const synth::GroundTruth truth = MakeTruth();
  const ObjectDetector det(&truth, ModelProfile::MaskRcnn(), 7);
  for (FrameIndex f = 0; f < 2000; ++f) {
    const double score = det.MaxScore(0, f);
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0);
    EXPECT_EQ(det.IsPositive(0, f), score >= det.profile().threshold);
  }
}

TEST(ObjectDetectorTest, IdealMatchesGroundTruthExactly) {
  const synth::GroundTruth truth = MakeTruth();
  const ObjectDetector det(&truth, ModelProfile::IdealObject(), 7);
  for (FrameIndex f = 0; f < truth.layout().num_frames(); ++f) {
    EXPECT_EQ(det.IsPositive(0, f), truth.ObjectFrames(0).Contains(f));
  }
}

TEST(ObjectDetectorTest, CountsInferencesPerFrameNotPerType) {
  const synth::GroundTruth truth = MakeTruth();
  const ObjectDetector det(&truth, ModelProfile::MaskRcnn(), 7);
  det.MaxScore(0, 5);
  det.MaxScore(0, 5);  // Same frame: one inference, two queries.
  det.MaxScore(0, 6);
  EXPECT_EQ(det.stats().inferences, 2);
  EXPECT_EQ(det.stats().type_queries, 3);
  EXPECT_DOUBLE_EQ(det.stats().simulated_ms,
                   2 * det.profile().inference_ms);
  // Memo hits are lookups like any other: each counts a type query, and
  // a frame still costs exactly one inference whatever its types.
  for (int rep = 0; rep < 4; ++rep) {
    det.MaxScore(0, 5);
    det.MaxScore(1, 5);
    det.MaxScore(0, 6);
  }
  EXPECT_EQ(det.stats().inferences, 2);
  EXPECT_EQ(det.stats().type_queries, 3 + 4 * 3);
  EXPECT_DOUBLE_EQ(det.stats().simulated_ms,
                   2 * det.profile().inference_ms);
  det.MaxScore(1, 7);
  EXPECT_EQ(det.stats().inferences, 3);
}

TEST(ObjectDetectorTest, MemoHitsAreBitIdenticalToFreshDraws) {
  const synth::GroundTruth truth = MakeTruth();
  const ModelProfile profile = ModelProfile::MaskRcnn();
  ObjectDetector det(&truth, profile, 21);
  const int64_t frames = truth.layout().num_frames();
  const auto order = AdversarialOrder(frames);
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& [type, frame] : order) {
      const double fresh =
          ObjectDetector(&truth, profile, 21).MaxScore(type, frame);
      EXPECT_TRUE(SameBits(det.MaxScore(type, frame), fresh))
          << "type " << type << " frame " << frame << " pass " << pass;
    }
    // The memo survives a stats reset, and what it holds stays exact.
    if (pass == 0) det.ResetStats();
  }
  EXPECT_EQ(det.stats().type_queries, static_cast<int64_t>(order.size()));
}

TEST(ActionRecognizerTest, IdealMatchesShotTruth) {
  const synth::GroundTruth truth = MakeTruth();
  const ActionRecognizer rec(&truth, ModelProfile::IdealAction(), 7);
  const IntervalSet shots = truth.ActionShots(0);
  for (ShotIndex s = 0; s < truth.layout().NumShots(); ++s) {
    EXPECT_EQ(rec.IsPositive(0, s), shots.Contains(s)) << "shot " << s;
  }
}

TEST(ActionRecognizerTest, EmpiricalRatesMatchProfile) {
  const synth::GroundTruth truth = MakeTruth();
  const ModelProfile profile = ModelProfile::I3d();
  const ActionRecognizer rec(&truth, profile, 11);
  const IntervalSet shots = truth.ActionShots(0);
  int64_t tp = 0;
  int64_t pos = 0;
  int64_t fp = 0;
  int64_t neg = 0;
  for (ShotIndex s = 0; s < truth.layout().NumShots(); ++s) {
    const bool present = shots.Contains(s);
    const bool fired = rec.IsPositive(0, s);
    if (present) {
      ++pos;
      tp += fired;
    } else {
      ++neg;
      fp += fired;
    }
  }
  ASSERT_GT(pos, 100);
  EXPECT_NEAR(static_cast<double>(tp) / pos, profile.tpr, 0.08);
  EXPECT_LT(static_cast<double>(fp) / std::max<int64_t>(neg, 1), 0.02);
}

TEST(ActionRecognizerTest, MemoHitsAreBitIdenticalToFreshDraws) {
  const synth::GroundTruth truth = MakeTruth();
  const ModelProfile profile = ModelProfile::I3d();
  ActionRecognizer rec(&truth, profile, 23);
  const int64_t shots = truth.layout().NumShots();
  const auto order = AdversarialOrder(shots);
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& [type, shot] : order) {
      const double fresh =
          ActionRecognizer(&truth, profile, 23).Score(type, shot);
      EXPECT_TRUE(SameBits(rec.Score(type, shot), fresh))
          << "type " << type << " shot " << shot << " pass " << pass;
    }
    if (pass == 0) rec.ResetStats();
  }
  EXPECT_EQ(rec.stats().type_queries, static_cast<int64_t>(order.size()));
}

TEST(ActionRecognizerTest, CountsInferencesPerShotNotPerType) {
  const synth::GroundTruth truth = MakeTruth();
  const ActionRecognizer rec(&truth, ModelProfile::I3d(), 7);
  for (int rep = 0; rep < 3; ++rep) {
    rec.Score(0, 4);
    rec.Score(1, 4);
  }
  EXPECT_EQ(rec.stats().inferences, 1);
  EXPECT_EQ(rec.stats().type_queries, 6);
}

TEST(ObjectDetectorDeathTest, RejectsFramesOutsideTheVideo) {
  const synth::GroundTruth truth = MakeTruth();
  const ObjectDetector det(&truth, ModelProfile::MaskRcnn(), 7);
  const FrameIndex frames = truth.layout().num_frames();
  EXPECT_DEATH(det.MaxScore(0, -1), "frame -1 outside");
  EXPECT_DEATH(det.MaxScore(0, frames), "outside \\[0, ");
}

TEST(ActionRecognizerDeathTest, RejectsShotsOutsideTheVideo) {
  const synth::GroundTruth truth = MakeTruth();
  const ActionRecognizer rec(&truth, ModelProfile::I3d(), 7);
  const ShotIndex shots = truth.layout().NumShots();
  EXPECT_DEATH(rec.Score(0, -1), "shot -1 outside");
  EXPECT_DEATH(rec.Score(0, shots), "outside \\[0, ");
}

TEST(TrackerDeathTest, RejectsFramesOutsideTheVideo) {
  const synth::GroundTruth truth = MakeTruth();
  const ObjectTracker tracker(&truth, ModelProfile::CenterTrack(), 7);
  const FrameIndex frames = truth.layout().num_frames();
  EXPECT_DEATH(tracker.Detect(0, -1), "frame -1 outside");
  EXPECT_DEATH(tracker.Detect(0, frames), "outside \\[0, ");
}

TEST(TrackerTest, DetectionsReferenceRealInstancesMostly) {
  const synth::GroundTruth truth = MakeTruth();
  const ObjectTracker tracker(&truth, ModelProfile::CenterTrack(), 13);
  int64_t real = 0;
  int64_t spurious = 0;
  for (FrameIndex f = 0; f < 5000; ++f) {
    for (const TrackDetection& det : tracker.Detect(0, f)) {
      EXPECT_GE(det.score, tracker.profile().threshold);
      if (det.track_id >= 2000000) {
        ++spurious;
      } else {
        ++real;
        EXPECT_TRUE(truth.ObjectFrames(0).Contains(f));
      }
    }
  }
  EXPECT_GT(real, 100);
  EXPECT_LT(spurious, real);
}

TEST(TrackerTest, DetectRangeMatchesPerFrame) {
  const synth::GroundTruth truth = MakeTruth();
  const ObjectTracker tracker(&truth, ModelProfile::CenterTrack(), 13);
  std::vector<std::pair<FrameIndex, TrackDetection>> range;
  tracker.DetectRange(0, Interval(1000, 1099), &range);
  std::vector<std::pair<FrameIndex, TrackDetection>> single;
  for (FrameIndex f = 1000; f <= 1099; ++f) {
    for (const TrackDetection& det : tracker.Detect(0, f)) {
      single.emplace_back(f, det);
    }
  }
  ASSERT_EQ(range.size(), single.size());
  for (size_t i = 0; i < range.size(); ++i) {
    EXPECT_EQ(range[i].first, single[i].first);
    EXPECT_EQ(range[i].second.track_id, single[i].second.track_id);
    EXPECT_DOUBLE_EQ(range[i].second.score, single[i].second.score);
  }
}

TEST(TrackerTest, IdealTrackerTracksAllInstances) {
  const synth::GroundTruth truth = MakeTruth();
  const ObjectTracker tracker(&truth, ModelProfile::IdealTracker(), 13);
  for (FrameIndex f = 0; f < 3000; ++f) {
    const size_t expected = truth.InstancesAt(0, f).size();
    EXPECT_EQ(tracker.Detect(0, f).size(), expected) << "frame " << f;
  }
}

TEST(ModelBundleTest, FactoriesAndStats) {
  const synth::GroundTruth truth = MakeTruth();
  ModelBundle bundle = ModelBundle::MaskRcnnI3d(truth, 1);
  EXPECT_EQ(bundle.detector->profile().name, "MaskRCNN");
  EXPECT_EQ(bundle.recognizer->profile().name, "I3D");
  EXPECT_EQ(bundle.tracker->profile().name, "CenterTrack");
  bundle.detector->MaxScore(0, 0);
  bundle.recognizer->Score(0, 0);
  EXPECT_GT(bundle.TotalSimulatedMs(), 0.0);
  bundle.ResetStats();
  EXPECT_DOUBLE_EQ(bundle.TotalSimulatedMs(), 0.0);

  ModelBundle yolo = ModelBundle::YoloI3d(truth, 1);
  EXPECT_EQ(yolo.detector->profile().name, "YOLOv3");
  ModelBundle ideal = ModelBundle::Ideal(truth, 1);
  EXPECT_EQ(ideal.detector->profile().tpr, 1.0);
}

TEST(ModelProfileTest, AccuracyOrderingAcrossPresets) {
  // The presets encode the paper's relative accuracies (Table 4).
  EXPECT_GT(ModelProfile::MaskRcnn().tpr, ModelProfile::YoloV3().tpr);
  EXPECT_LT(ModelProfile::MaskRcnn().fpr, ModelProfile::YoloV3().fpr);
  EXPECT_LT(ModelProfile::MaskRcnn().inference_ms,
            ModelProfile::I3d().inference_ms);
  EXPECT_GT(ModelProfile::MaskRcnn().inference_ms,
            ModelProfile::YoloV3().inference_ms);
}

}  // namespace
}  // namespace detect
}  // namespace vaq
