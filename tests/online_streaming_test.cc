#include "online/streaming.h"

#include <gtest/gtest.h>

#include "ckpt/serializer.h"
#include "detect/models.h"
#include "fault/fault_plan.h"
#include "synth/scenario.h"

namespace vaq {
namespace online {
namespace {

const synth::Scenario& StreamScenario() {
  static const synth::Scenario* scenario = [] {
    synth::ScenarioSpec spec;
    spec.name = "streaming_test";
    spec.minutes = 6;
    spec.fps = 30;
    spec.seed = 404;
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
    return new synth::Scenario(
        synth::Scenario::FromSpec(spec, "running", {"dog"}));
  }();
  return *scenario;
}

TEST(StreamingSvaqdTest, ReproducesBatchSvaqdExactly) {
  const synth::Scenario& sc = StreamScenario();
  detect::ModelBundle m1 = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 3);
  Svaqd batch(sc.query(), sc.layout(), SvaqdOptions{});
  const OnlineResult expected =
      batch.Run(m1.detector.get(), m1.recognizer.get());

  detect::ModelBundle m2 = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 3);
  StreamingSvaqd stream(sc.query(), sc.layout(), SvaqdOptions{}, nullptr);
  std::vector<bool> indicators;
  for (ClipIndex c = 0; c < sc.layout().NumClips(); ++c) {
    indicators.push_back(
        *stream.PushClip(m2.detector.get(), m2.recognizer.get()));
  }
  stream.Finish();
  EXPECT_EQ(stream.sequences(), expected.sequences);
  EXPECT_EQ(indicators, expected.clip_indicator);
}

TEST(StreamingSvaqdTest, PushClipFailsCleanlyAfterFinishAndPastHorizon) {
  const synth::Scenario& sc = StreamScenario();
  detect::ModelBundle models = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 3);
  // Past the design horizon: every in-range push succeeds, the next one
  // reports kOutOfRange and leaves the stream usable (Finish still works).
  StreamingSvaqd stream(sc.query(), sc.layout(), SvaqdOptions{}, nullptr);
  for (ClipIndex c = 0; c < sc.layout().NumClips(); ++c) {
    ASSERT_TRUE(
        stream.PushClip(models.detector.get(), models.recognizer.get()).ok())
        << c;
  }
  const auto past =
      stream.PushClip(models.detector.get(), models.recognizer.get());
  ASSERT_FALSE(past.ok());
  EXPECT_EQ(past.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(stream.next_clip(), sc.layout().NumClips());  // State untouched.
  stream.Finish();
  // After Finish: kFailedPrecondition, again without state damage.
  const auto after =
      stream.PushClip(models.detector.get(), models.recognizer.get());
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(stream.finished());
}

// Under a fault plan the resilience wrappers bind to the first push's
// models. A push with a different instance is rejected before anything
// moves: it consumes no clip and no virtual time, so the stream goes on
// exactly like one that never saw the bad call.
TEST(StreamingSvaqdTest, MismatchedModelPushConsumesNoClip) {
  const synth::Scenario& sc = StreamScenario();
  fault::FaultSpec spec;
  spec.timeout_rate = 0.05;
  spec.crash_rate = 0.1;
  spec.crash_len_units = 600;
  spec.drop_clip_rate = 0.02;
  const fault::FaultPlan plan(spec, 21);
  SvaqdOptions options;
  options.fault_plan = &plan;
  detect::ModelBundle m1 = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 3);
  detect::ModelBundle m2 = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 3);
  detect::ModelBundle other = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 3);
  std::vector<SequenceEvent> events;
  StreamingSvaqd stream(sc.query(), sc.layout(), options,
                        [&](const SequenceEvent& e) { events.push_back(e); });
  std::vector<SequenceEvent> clean_events;
  StreamingSvaqd clean(
      sc.query(), sc.layout(), options,
      [&](const SequenceEvent& e) { clean_events.push_back(e); });
  std::vector<bool> indicators;
  std::vector<bool> clean_indicators;
  for (ClipIndex c = 0; c < sc.layout().NumClips(); ++c) {
    if (c == 5) {
      const auto bad_detector =
          stream.PushClip(other.detector.get(), m1.recognizer.get());
      EXPECT_EQ(bad_detector.status().code(), StatusCode::kInvalidArgument);
      const auto bad_recognizer =
          stream.PushClip(m1.detector.get(), other.recognizer.get());
      EXPECT_EQ(bad_recognizer.status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(stream.next_clip(), 5);
    }
    indicators.push_back(
        *stream.PushClip(m1.detector.get(), m1.recognizer.get()));
    clean_indicators.push_back(
        *clean.PushClip(m2.detector.get(), m2.recognizer.get()));
  }
  stream.Finish();
  clean.Finish();
  EXPECT_EQ(indicators, clean_indicators);
  EXPECT_EQ(stream.sequences(), clean.sequences());
  EXPECT_EQ(stream.degraded_clips(), clean.degraded_clips());
  ASSERT_EQ(events.size(), clean_events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].kind, clean_events[i].kind) << i;
    EXPECT_EQ(events[i].sequence, clean_events[i].sequence) << i;
    EXPECT_EQ(events[i].clip, clean_events[i].clip) << i;
  }
  // Retry nonces, breaker state and the clock match too.
  const auto save = [](StreamingSvaqd& engine) {
    return ckpt::SaveBlob([&](ckpt::Archive& ar) { engine.Persist(ar); });
  };
  EXPECT_EQ(save(stream), save(clean));
  EXPECT_EQ(other.detector->stats().type_queries, 0);
  EXPECT_EQ(other.recognizer->stats().type_queries, 0);
}

TEST(StreamingSvaqdTest, EventsAreConsistentAndTimely) {
  const synth::Scenario& sc = StreamScenario();
  detect::ModelBundle models = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 3);
  std::vector<SequenceEvent> events;
  StreamingSvaqd stream(sc.query(), sc.layout(), SvaqdOptions{},
                        [&](const SequenceEvent& event) {
                          events.push_back(event);
                        });
  for (ClipIndex c = 0; c < sc.layout().NumClips(); ++c) {
    ASSERT_TRUE(
        stream.PushClip(models.detector.get(), models.recognizer.get()).ok());
  }
  stream.Finish();

  // Event grammar: (opened, extended*, closed)*, with closures arriving
  // exactly one clip after the sequence's last clip (or at Finish).
  bool open = false;
  Interval current;
  IntervalSet from_events;
  for (const SequenceEvent& event : events) {
    switch (event.kind) {
      case SequenceEvent::Kind::kOpened:
        ASSERT_FALSE(open);
        open = true;
        current = event.sequence;
        EXPECT_EQ(event.sequence.lo, event.clip);
        break;
      case SequenceEvent::Kind::kExtended:
        ASSERT_TRUE(open);
        EXPECT_EQ(event.sequence.lo, current.lo);
        EXPECT_EQ(event.sequence.hi, event.clip);
        current = event.sequence;
        break;
      case SequenceEvent::Kind::kClosed:
        ASSERT_TRUE(open);
        open = false;
        EXPECT_EQ(event.sequence.lo, current.lo);
        EXPECT_GE(event.clip, event.sequence.hi);
        EXPECT_LE(event.clip, event.sequence.hi + 1);  // One-clip latency.
        from_events.Add(event.sequence);
        break;
      case SequenceEvent::Kind::kGap:
        ADD_FAILURE() << "gap event without fault injection";
        break;
    }
  }
  EXPECT_FALSE(open);  // Finish closed everything.
  EXPECT_EQ(from_events, stream.sequences());
  EXPECT_GE(stream.sequences().size(), 3u);
}

TEST(StreamingSvaqdTest, FinishClosesOpenSequence) {
  const synth::Scenario& sc = StreamScenario();
  detect::ModelBundle models = detect::ModelBundle::Ideal(sc.truth(), 3);
  StreamingSvaqd stream(sc.query(), sc.layout(), SvaqdOptions{}, nullptr);
  // Push until we are inside a positive run, then stop mid-stream.
  ClipIndex pushed = 0;
  bool in_run = false;
  for (; pushed < sc.layout().NumClips(); ++pushed) {
    in_run = *stream.PushClip(models.detector.get(), models.recognizer.get());
    if (in_run && pushed > 5) break;
  }
  ASSERT_TRUE(in_run);
  const size_t before = stream.sequences().size();
  stream.Finish();
  EXPECT_EQ(stream.sequences().size(), before + 1);
  EXPECT_EQ(stream.sequences().intervals().back().hi, pushed);
  EXPECT_TRUE(stream.finished());
}

TEST(StreamingSvaqdTest, PartialStreamMatchesPrefixSemantics) {
  // Processing only a prefix yields exactly the sequences fully contained
  // in that prefix (plus the open tail closed by Finish).
  const synth::Scenario& sc = StreamScenario();
  const ClipIndex prefix = sc.layout().NumClips() / 2;
  detect::ModelBundle m1 = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 9);
  StreamingSvaqd full(sc.query(), sc.layout(), SvaqdOptions{}, nullptr);
  std::vector<bool> full_indicators;
  for (ClipIndex c = 0; c < prefix; ++c) {
    full_indicators.push_back(
        *full.PushClip(m1.detector.get(), m1.recognizer.get()));
  }
  full.Finish();
  // Same prefix re-fed to a fresh engine gives the same answer
  // (estimators only ever see the past: the engine is causal).
  detect::ModelBundle m2 = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 9);
  StreamingSvaqd again(sc.query(), sc.layout(), SvaqdOptions{}, nullptr);
  for (ClipIndex c = 0; c < prefix; ++c) {
    const bool indicator =
        *again.PushClip(m2.detector.get(), m2.recognizer.get());
    EXPECT_EQ(indicator, full_indicators[static_cast<size_t>(c)]) << c;
  }
}

}  // namespace
}  // namespace online
}  // namespace vaq
