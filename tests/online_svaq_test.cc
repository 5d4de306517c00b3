#include "online/cnf_engine.h"
#include "online/svaq.h"
#include "online/svaqd.h"

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "synth/scenario.h"

namespace vaq {
namespace online {
namespace {

// A small scenario shared by the tests (2.5k clips would be slow to build
// per test; the YouTube presets are generated once).
const synth::Scenario& SmallScenario() {
  static const synth::Scenario* scenario = [] {
    synth::ScenarioSpec spec;
    spec.name = "small";
    spec.minutes = 6;
    spec.fps = 30;
    spec.seed = 77;
    synth::ActionTrackSpec action;
    action.name = "jumping";
    action.duty = 0.3;
    action.mean_len_frames = 1200;
    spec.actions.push_back(action);
    synth::ObjectTrackSpec car;
    car.name = "car";
    car.background_duty = 0.05;
    car.mean_len_frames = 700;
    car.coupled_action = "jumping";
    car.cover_action_prob = 0.9;
    spec.objects.push_back(car);
    return new synth::Scenario(
        synth::Scenario::FromSpec(spec, "jumping", {"car"}));
  }();
  return *scenario;
}

// A static, non-probing engine over the scenario's conjunctive query, so
// every clip is evaluated with the initial critical values.
CnfEngineOptions StaticOptions(bool short_circuit) {
  CnfEngineOptions options;
  options.svaqd.base.short_circuit = short_circuit;
  options.svaqd.probe_period = 0;
  options.adaptive = false;
  return options;
}

TEST(OnlineEngineTest, CountsMatchDirectModelScan) {
  const synth::Scenario& sc = SmallScenario();
  detect::ModelBundle models = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 5);
  detect::ModelBundle direct = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 5);
  CnfStream engine(sc.query(), sc.layout(), StaticOptions(false));
  for (ClipIndex c = 0; c <= 33; ++c) {
    const int64_t frames_before = models.detector->stats().type_queries;
    const int64_t shots_before = models.recognizer->stats().type_queries;
    ASSERT_TRUE(
        engine.PushClip(models.detector.get(), models.recognizer.get()).ok());
    if (c != 0 && c != 7 && c != 33) continue;
    const std::vector<int64_t> counts = engine.clip_counts();
    ASSERT_EQ(counts.size(), 2u);  // The object, then the action.
    int64_t object_count = 0;
    const Interval frames = sc.layout().ClipFrameRange(c);
    for (FrameIndex v = frames.lo; v <= frames.hi; ++v) {
      object_count +=
          direct.detector->IsPositive(sc.query().objects[0], v) ? 1 : 0;
    }
    int64_t action_count = 0;
    const Interval shots = sc.layout().ClipShotRange(c);
    for (ShotIndex s = shots.lo; s <= shots.hi; ++s) {
      action_count +=
          direct.recognizer->IsPositive(sc.query().action, s) ? 1 : 0;
    }
    EXPECT_EQ(counts[0], object_count);
    EXPECT_EQ(counts[1], action_count);
    // The engine scanned exactly the clip's frames and shots.
    EXPECT_EQ(models.detector->stats().type_queries - frames_before,
              frames.length());
    EXPECT_EQ(models.recognizer->stats().type_queries - shots_before,
              shots.length());
  }
}

TEST(OnlineEngineTest, ShortCircuitSkipsLaterPredicates) {
  const synth::Scenario& sc = SmallScenario();
  // A hostile p0 puts the object's critical value above the clip's frame
  // count: the object predicate fails on every clip, so with
  // short-circuiting the action is never evaluated.
  CnfEngineOptions options = StaticOptions(true);
  options.svaqd.base.p0_object = 0.9;
  detect::ModelBundle models = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 5);
  CnfStream engine(sc.query(), sc.layout(), options);
  ASSERT_GT(engine.kcrit()[0], sc.layout().frames_per_clip());
  const StatusOr<bool> positive =
      engine.PushClip(models.detector.get(), models.recognizer.get());
  ASSERT_TRUE(positive.ok());
  EXPECT_FALSE(*positive);
  EXPECT_GE(engine.clip_counts()[0], 0);  // The object was evaluated,
  EXPECT_EQ(engine.clip_counts()[1], -1);  // the action skipped.
  EXPECT_EQ(models.recognizer->stats().type_queries, 0);
  // Without short-circuiting everything is evaluated.
  options.svaqd.base.short_circuit = false;
  CnfStream full(sc.query(), sc.layout(), options);
  ASSERT_TRUE(
      full.PushClip(models.detector.get(), models.recognizer.get()).ok());
  EXPECT_GE(full.clip_counts()[1], 0);
}

TEST(OnlineEngineTest, ShortCircuitSavesInferences) {
  const synth::Scenario& sc = SmallScenario();
  detect::ModelBundle with = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 5);
  detect::ModelBundle without =
      detect::ModelBundle::MaskRcnnI3d(sc.truth(), 5);
  SvaqOptions options;
  options.p0_object = 0.015;
  options.p0_action = 0.0015;
  Svaq engine(sc.query(), sc.layout(), options);
  engine.Run(with.detector.get(), with.recognizer.get());
  SvaqOptions no_skip = options;
  no_skip.short_circuit = false;
  Svaq full(sc.query(), sc.layout(), no_skip);
  full.Run(without.detector.get(), without.recognizer.get());
  EXPECT_LT(with.recognizer->stats().inferences,
            without.recognizer->stats().inferences);
  EXPECT_EQ(without.recognizer->stats().inferences,
            sc.layout().NumShots());
}

TEST(SvaqTest, IdealModelsRecoverGroundTruthExactly) {
  const synth::Scenario& sc = SmallScenario();
  detect::ModelBundle models = detect::ModelBundle::Ideal(sc.truth(), 5);
  SvaqOptions options;
  options.p0_object = 1e-4;
  options.p0_action = 1e-4;
  Svaq engine(sc.query(), sc.layout(), options);
  const OnlineResult result =
      engine.Run(models.detector.get(), models.recognizer.get());
  const auto f1 = eval::SequenceF1(result.sequences, sc.TruthClips(), 0.5);
  EXPECT_DOUBLE_EQ(f1.f1, 1.0) << f1.ToString();
}

TEST(SvaqdTest, IdealModelsRecoverGroundTruthExactly) {
  const synth::Scenario& sc = SmallScenario();
  detect::ModelBundle models = detect::ModelBundle::Ideal(sc.truth(), 5);
  Svaqd engine(sc.query(), sc.layout(), SvaqdOptions{});
  const OnlineResult result =
      engine.Run(models.detector.get(), models.recognizer.get());
  const auto f1 = eval::SequenceF1(result.sequences, sc.TruthClips(), 0.5);
  EXPECT_DOUBLE_EQ(f1.f1, 1.0) << f1.ToString();
}

TEST(SvaqTest, ResultSequencesAreWithinClipRange) {
  const synth::Scenario& sc = SmallScenario();
  detect::ModelBundle models = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 9);
  SvaqOptions options;
  options.p0_object = 0.015;
  options.p0_action = 0.0015;
  Svaq engine(sc.query(), sc.layout(), options);
  const OnlineResult result =
      engine.Run(models.detector.get(), models.recognizer.get());
  for (const Interval& iv : result.sequences.intervals()) {
    EXPECT_GE(iv.lo, 0);
    EXPECT_LT(iv.hi, sc.layout().NumClips());
  }
  EXPECT_EQ(result.clips_processed, sc.layout().NumClips());
  // Indicator vector and merged sequences agree.
  EXPECT_EQ(IntervalSet::FromIndicators(result.clip_indicator),
            result.sequences);
}

TEST(SvaqTest, CriticalValuesRespondToP0) {
  const synth::Scenario& sc = SmallScenario();
  SvaqOptions low;
  low.p0_object = 1e-5;
  low.p0_action = 1e-5;
  SvaqOptions high;
  high.p0_object = 0.2;
  high.p0_action = 0.2;
  Svaq a(sc.query(), sc.layout(), low);
  Svaq b(sc.query(), sc.layout(), high);
  EXPECT_LT(a.InitialObjectCriticalValues()[0],
            b.InitialObjectCriticalValues()[0]);
  EXPECT_LT(a.InitialActionCriticalValue(),
            b.InitialActionCriticalValue());
}

TEST(SvaqTest, PerObjectP0Override) {
  const synth::Scenario& sc = SmallScenario();
  SvaqOptions options;
  options.p0_object = 0.3;
  options.p0_per_object = {1e-5};
  Svaq engine(sc.query(), sc.layout(), options);
  // The override (1e-5) wins over p0_object.
  EXPECT_LE(engine.InitialObjectCriticalValues()[0], 4);
}

// SVAQD's headline property (Figure 2): wildly different initial
// probabilities converge to (nearly) the same answer.
class SvaqdP0Insensitivity : public ::testing::TestWithParam<double> {};

TEST_P(SvaqdP0Insensitivity, F1StableAcrossP0) {
  const synth::Scenario& sc = SmallScenario();
  detect::ModelBundle models =
      detect::ModelBundle::MaskRcnnI3d(sc.truth(), 21);
  SvaqdOptions options;
  options.base.p0_object = GetParam();
  options.base.p0_action = GetParam();
  Svaqd engine(sc.query(), sc.layout(), options);
  const OnlineResult result =
      engine.Run(models.detector.get(), models.recognizer.get());
  const auto f1 = eval::FrameLevelF1Frames(
      result.sequences, sc.truth().QueryTruthFrames(sc.query()), sc.layout());
  EXPECT_GT(f1.f1, 0.8) << "p0=" << GetParam() << " " << f1.ToString();
}

INSTANTIATE_TEST_SUITE_P(P0Sweep, SvaqdP0Insensitivity,
                         ::testing::Values(1e-6, 1e-4, 1e-2, 0.1));

TEST(SvaqdTest, UpdatePoliciesAllRun) {
  const synth::Scenario& sc = SmallScenario();
  for (UpdatePolicy policy :
       {UpdatePolicy::kSelfExcluding, UpdatePolicy::kNegativeClipsOnly,
        UpdatePolicy::kAllClips, UpdatePolicy::kPositiveClipsOnly}) {
    detect::ModelBundle models =
        detect::ModelBundle::MaskRcnnI3d(sc.truth(), 3);
    SvaqdOptions options;
    options.update_policy = policy;
    Svaqd engine(sc.query(), sc.layout(), options);
    const OnlineResult result =
        engine.Run(models.detector.get(), models.recognizer.get());
    EXPECT_EQ(result.clips_processed, sc.layout().NumClips());
  }
}

TEST(SvaqdTest, ProbingKeepsActionEstimatorFed) {
  // Without probing and with short-circuiting, a starved action estimator
  // keeps its (bad) initial p0 and the query returns nothing; probing
  // fixes it.
  const synth::Scenario& sc = SmallScenario();
  SvaqdOptions no_probe;
  no_probe.probe_period = 0;
  no_probe.base.p0_action = 0.4;  // Hostile init: k_crit = never.
  no_probe.base.p0_object = 0.015;
  detect::ModelBundle m1 = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 31);
  const OnlineResult starved =
      Svaqd(sc.query(), sc.layout(), no_probe)
          .Run(m1.detector.get(), m1.recognizer.get());

  SvaqdOptions probed = no_probe;
  probed.probe_period = 8;
  detect::ModelBundle m2 = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 31);
  const OnlineResult fed =
      Svaqd(sc.query(), sc.layout(), probed)
          .Run(m2.detector.get(), m2.recognizer.get());
  const auto f1_starved = eval::FrameLevelF1Frames(
      starved.sequences, sc.truth().QueryTruthFrames(sc.query()),
      sc.layout());
  const auto f1_fed = eval::FrameLevelF1Frames(
      fed.sequences, sc.truth().QueryTruthFrames(sc.query()), sc.layout());
  EXPECT_GT(f1_fed.f1, f1_starved.f1);
  // Recovery from the hostile init costs the pre-convergence prefix of the
  // stream, so demand substantial but not near-perfect accuracy.
  EXPECT_GT(f1_fed.f1, 0.55);
  EXPECT_LT(f1_starved.f1, 0.35);
}

TEST(SvaqTest, ObjectOnlyAndActionOnlyQueries) {
  const synth::Scenario& sc = SmallScenario();
  // Object-only query.
  QuerySpec object_only;
  object_only.objects = {sc.query().objects[0]};
  detect::ModelBundle m1 = detect::ModelBundle::Ideal(sc.truth(), 1);
  SvaqOptions options;
  options.p0_object = 1e-4;
  const OnlineResult obj_result =
      Svaq(object_only, sc.layout(), options)
          .Run(m1.detector.get(), /*recognizer=*/nullptr);
  EXPECT_GT(obj_result.sequences.TotalLength(), 0);
  // Action-only query.
  QuerySpec action_only;
  action_only.action = sc.query().action;
  detect::ModelBundle m2 = detect::ModelBundle::Ideal(sc.truth(), 1);
  const OnlineResult act_result =
      Svaq(action_only, sc.layout(), options)
          .Run(/*detector=*/nullptr, m2.recognizer.get());
  EXPECT_GT(act_result.sequences.TotalLength(), 0);
}

}  // namespace
}  // namespace online
}  // namespace vaq
