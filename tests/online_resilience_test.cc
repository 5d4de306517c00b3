// Graceful degradation of the online engines under injected faults: the
// resilient path must stay bit-compatible with the raw path when the plan
// injects nothing, batch and streaming must agree fault for fault, and
// every missing-observation policy must keep event streams well-formed.
#include <gtest/gtest.h>

#include <vector>

#include "detect/resilient.h"
#include "eval/metrics.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "online/cnf_engine.h"
#include "online/streaming.h"
#include "online/svaqd.h"
#include "synth/scenario.h"
#include "tools/pipeline_setup.h"
#include "video/cnf_query.h"

namespace vaq {
namespace online {
namespace {

const synth::Scenario& FaultScenario() {
  static const synth::Scenario* scenario = [] {
    synth::ScenarioSpec spec;
    spec.name = "resilience_test";
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
    return new synth::Scenario(
        synth::Scenario::FromSpec(spec, "running", {"dog"}));
  }();
  return *scenario;
}

fault::FaultSpec OutageSpec() {
  fault::FaultSpec spec;
  spec.crash_rate = 0.1;
  spec.crash_len_units = 600;
  spec.timeout_rate = 0.02;
  spec.nan_score_rate = 0.01;
  spec.drop_clip_rate = 0.02;
  return spec;
}

TEST(ResilienceTest, ZeroRatePlanMatchesRawPathBitForBit) {
  const synth::Scenario& sc = FaultScenario();
  detect::ModelBundle m1 = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 5);
  const OnlineResult raw = Svaqd(sc.query(), sc.layout(), SvaqdOptions{})
                               .Run(m1.detector.get(), m1.recognizer.get());

  const fault::FaultPlan inert(fault::FaultSpec{}, 123);
  SvaqdOptions options;
  options.fault_plan = &inert;
  detect::ModelBundle m2 = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 5);
  const OnlineResult wrapped = Svaqd(sc.query(), sc.layout(), options)
                                   .Run(m2.detector.get(), m2.recognizer.get());

  EXPECT_EQ(wrapped.clip_indicator, raw.clip_indicator);
  EXPECT_EQ(wrapped.sequences, raw.sequences);
  EXPECT_EQ(wrapped.kcrit_objects, raw.kcrit_objects);
  EXPECT_EQ(wrapped.kcrit_action, raw.kcrit_action);
  EXPECT_EQ(wrapped.detector_stats.inferences, raw.detector_stats.inferences);
  EXPECT_EQ(wrapped.degraded_clips, 0);
  EXPECT_EQ(wrapped.detector_stats.faults_injected, 0);
  EXPECT_EQ(wrapped.detector_stats.fallbacks, 0);
}

TEST(ResilienceTest, StreamingMatchesBatchUnderFaults) {
  const synth::Scenario& sc = FaultScenario();
  const fault::FaultPlan plan(OutageSpec(), 21);
  SvaqdOptions options;
  options.fault_plan = &plan;

  detect::ModelBundle m1 = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 5);
  const OnlineResult batch = Svaqd(sc.query(), sc.layout(), options)
                                 .Run(m1.detector.get(), m1.recognizer.get());

  detect::ModelBundle m2 = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 5);
  StreamingSvaqd stream(sc.query(), sc.layout(), options, nullptr);
  std::vector<bool> indicators;
  for (ClipIndex c = 0; c < sc.layout().NumClips(); ++c) {
    indicators.push_back(
        *stream.PushClip(m2.detector.get(), m2.recognizer.get()));
  }
  stream.Finish();

  EXPECT_EQ(indicators, batch.clip_indicator);
  EXPECT_EQ(stream.sequences(), batch.sequences);
  EXPECT_EQ(stream.degraded_clips(), batch.degraded_clips);
  EXPECT_EQ(stream.dropped_clips(), batch.dropped_clips);
  EXPECT_GT(batch.degraded_clips, 0);  // The spec really injected faults.
}

TEST(ResilienceTest, FaultCountersSurfaceInModelStats) {
  const synth::Scenario& sc = FaultScenario();
  fault::FaultSpec spec = OutageSpec();
  spec.timeout_rate = 0.1;   // Enough per-attempt faults to force retries.
  spec.drop_clip_rate = 0.1;  // The stream is short (~108 clips); make
                              // drops likely enough to observe.
  const fault::FaultPlan plan(spec, 77);
  SvaqdOptions options;
  options.fault_plan = &plan;
  options.missing_policy = MissingObsPolicy::kBackgroundPrior;

  detect::ModelBundle models = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 5);
  const OnlineResult result =
      Svaqd(sc.query(), sc.layout(), options)
          .Run(models.detector.get(), models.recognizer.get());

  EXPECT_GT(result.detector_stats.faults_injected, 0);
  EXPECT_GT(result.detector_stats.retries, 0);
  EXPECT_GT(result.detector_stats.failures, 0);
  EXPECT_GT(result.detector_stats.fallbacks, 0);
  // Sustained outage windows (600 frames at breaker threshold 4) must
  // trip the breaker at least once.
  EXPECT_GT(result.detector_stats.breaker_trips, 0);
  EXPECT_GT(result.degraded_clips, 0);
  EXPECT_GT(result.dropped_clips, 0);
}

// Satellite: every missing-observation policy keeps the event stream
// well-formed — (gap* opened (gap|extended)* closed)* with every opened
// sequence eventually closed and no overlaps between closed sequences.
TEST(ResilienceTest, EventStreamsStayWellFormedUnderEveryPolicy) {
  const synth::Scenario& sc = FaultScenario();
  for (const MissingObsPolicy policy :
       {MissingObsPolicy::kAssumeNegative, MissingObsPolicy::kCarryLast,
        MissingObsPolicy::kBackgroundPrior}) {
    for (const uint64_t seed : {3u, 11u}) {
      const fault::FaultPlan plan(OutageSpec(), seed);
      SvaqdOptions options;
      options.fault_plan = &plan;
      options.missing_policy = policy;

      detect::ModelBundle models =
          detect::ModelBundle::MaskRcnnI3d(sc.truth(), 5);
      std::vector<SequenceEvent> events;
      StreamingSvaqd stream(
          sc.query(), sc.layout(), options,
          [&](const SequenceEvent& event) { events.push_back(event); });
      for (ClipIndex c = 0; c < sc.layout().NumClips(); ++c) {
        ASSERT_TRUE(
            stream.PushClip(models.detector.get(), models.recognizer.get())
                .ok());
      }
      stream.Finish();

      bool open = false;
      Interval current;
      int64_t gap_events = 0;
      ClipIndex last_closed_hi = -1;
      for (const SequenceEvent& event : events) {
        switch (event.kind) {
          case SequenceEvent::Kind::kOpened:
            ASSERT_FALSE(open);
            open = true;
            current = event.sequence;
            EXPECT_GT(event.sequence.lo, last_closed_hi);  // No overlap.
            break;
          case SequenceEvent::Kind::kExtended:
            ASSERT_TRUE(open);
            EXPECT_EQ(event.sequence.lo, current.lo);
            EXPECT_EQ(event.sequence.hi, current.hi + 1);
            current = event.sequence;
            break;
          case SequenceEvent::Kind::kClosed:
            ASSERT_TRUE(open);
            open = false;
            EXPECT_EQ(event.sequence.lo, current.lo);
            EXPECT_EQ(event.sequence.hi, current.hi);
            last_closed_hi = event.sequence.hi;
            break;
          case SequenceEvent::Kind::kGap:
            ++gap_events;
            EXPECT_GE(event.clip, 0);
            EXPECT_LT(event.clip, sc.layout().NumClips());
            break;
        }
      }
      EXPECT_FALSE(open);  // Every kOpened eventually kClosed.
      EXPECT_EQ(gap_events, stream.degraded_clips());
    }
  }
}

TEST(ResilienceTest, AssumeNegativeIsMostConservativePolicy) {
  // Under a heavy outage, assume-negative can only lose positives
  // relative to background-prior; its result sequences cover no more
  // clips. (Coupled fault schedules make this deterministic.)
  const synth::Scenario& sc = FaultScenario();
  fault::FaultSpec spec;
  spec.crash_rate = 0.25;
  spec.crash_len_units = 900;
  const fault::FaultPlan plan(spec, 4);

  auto run = [&](MissingObsPolicy policy) {
    SvaqdOptions options;
    options.fault_plan = &plan;
    options.missing_policy = policy;
    detect::ModelBundle models =
        detect::ModelBundle::MaskRcnnI3d(sc.truth(), 5);
    return Svaqd(sc.query(), sc.layout(), options)
        .Run(models.detector.get(), models.recognizer.get());
  };
  const OnlineResult negative = run(MissingObsPolicy::kAssumeNegative);
  const OnlineResult prior = run(MissingObsPolicy::kBackgroundPrior);
  EXPECT_LE(negative.sequences.TotalLength(), prior.sequences.TotalLength());
}

// "(dog OR car) AND running" on the second demo stream, which carries an
// uncoupled car track.
CnfQuery DogOrCarAndRunning(const synth::Scenario& sc) {
  auto query = CnfQuery::FromNames(sc.vocab(),
                                   {{"obj:dog", "obj:car"}, {"act:running"}});
  VAQ_CHECK(query.ok()) << query.status();
  return std::move(query).value();
}

int64_t ModelCallsTotal() {
  int64_t total = 0;
  for (const obs::Snapshot::Entry& entry :
       obs::MetricRegistry::Global().TakeSnapshot().entries) {
    if (entry.name == "vaq_model_calls_total") total += entry.counter_value;
  }
  return total;
}

TEST(ResilienceTest, CnfZeroRatePlanMatchesRawPathBitForBit) {
  const synth::Scenario sc = tools::DemoScenario(1);
  detect::ModelBundle m1 = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 5);
  CnfStream raw_engine(DogOrCarAndRunning(sc), sc.layout(),
                       CnfEngineOptions{});
  const OnlineResult raw =
      RunToEnd(raw_engine, m1.detector.get(), m1.recognizer.get());

  const fault::FaultPlan inert(fault::FaultSpec{}, 123);
  CnfEngineOptions options;
  options.svaqd.fault_plan = &inert;
  detect::ModelBundle m2 = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 5);
  CnfStream wrapped_engine(DogOrCarAndRunning(sc), sc.layout(), options);
  const OnlineResult wrapped =
      RunToEnd(wrapped_engine, m2.detector.get(), m2.recognizer.get());

  EXPECT_EQ(wrapped.clip_indicator, raw.clip_indicator);
  EXPECT_EQ(wrapped.sequences, raw.sequences);
  EXPECT_EQ(wrapped_engine.kcrit(), raw_engine.kcrit());
  EXPECT_EQ(wrapped.detector_stats.inferences, raw.detector_stats.inferences);
  EXPECT_EQ(wrapped.recognizer_stats.inferences,
            raw.recognizer_stats.inferences);
  EXPECT_EQ(wrapped.degraded_clips, 0);
  EXPECT_EQ(wrapped.detector_stats.faults_injected, 0);
  EXPECT_EQ(wrapped.detector_stats.fallbacks, 0);
}

TEST(ResilienceTest, CnfUnderDemoFaultsReportsDegradedClips) {
  const synth::Scenario sc = tools::DemoScenario(1);
  const fault::FaultPlan plan(tools::DemoFaultSpec(), 21);
  CnfEngineOptions options{tools::DemoSvaqdOptions(&plan)};
  detect::ModelBundle models = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 5);
  CnfStream engine(DogOrCarAndRunning(sc), sc.layout(), options);
  const int64_t calls_before = ModelCallsTotal();
  const OnlineResult result =
      RunToEnd(engine, models.detector.get(), models.recognizer.get());

  EXPECT_GT(ModelCallsTotal(), calls_before);  // The wrappers ran.
  EXPECT_GT(result.degraded_clips, 0);
  EXPECT_GT(result.dropped_clips, 0);
  EXPECT_GT(result.detector_stats.faults_injected, 0);
  EXPECT_GT(result.detector_stats.fallbacks, 0);
  EXPECT_GT(result.recognizer_stats.fallbacks, 0);
}

}  // namespace
}  // namespace online
}  // namespace vaq
