#include "online/streaming.h"

#include <optional>

#include "ckpt/serializer.h"
#include "common/logging.h"
#include "fault/sim_clock.h"
#include "obs/metrics.h"
#include "online/clip_evaluator.h"
#include "online/predicate_state.h"

namespace vaq {
namespace online {

using internal_online::PredicateState;

// All per-predicate adaptive state, mirroring Svaqd::Run's locals, plus
// the resilience state (clock, wrappers) which must persist across
// PushClip calls so retries/breaker/backoff evolve exactly as in a batch
// run.
struct StreamingSvaqd::State {
  std::vector<PredicateState> objects;
  std::unique_ptr<PredicateState> action;

  fault::SimClock clock;
  // The wrappers' retry/breaker state. A slot is filled when its wrapper
  // binds (lazily, to the model instances of the first PushClip) or when
  // a checkpoint loads it; the wrapper mutates it in place and Persist
  // reads it, so a loaded slot survives into the next snapshot whether
  // or not a wrapper has bound to it yet.
  std::optional<detect::ResilienceState> detector_state;
  std::optional<detect::ResilienceState> recognizer_state;
  std::unique_ptr<detect::ResilientObjectDetector> rdetector;
  std::unique_ptr<detect::ResilientActionRecognizer> rrecognizer;

  // Registry mirrors, resolved once per engine instance. Events are
  // counted where they logically occur, whether or not a callback is
  // installed.
  obs::Counter* metric_clips = nullptr;
  obs::Counter* metric_event_opened = nullptr;
  obs::Counter* metric_event_extended = nullptr;
  obs::Counter* metric_event_closed = nullptr;
  obs::Counter* metric_event_gap = nullptr;
  obs::Gauge* metric_open_len = nullptr;  // Open-sequence backlog, clips.
};

StreamingSvaqd::StreamingSvaqd(QuerySpec query, VideoLayout layout,
                               SvaqdOptions options, Callback callback)
    : query_(std::move(query)),
      layout_(layout),
      options_(std::move(options)),
      callback_(std::move(callback)),
      state_(std::make_unique<State>()) {
  const SvaqOptions& base = options_.base;
  if (!base.p0_per_object.empty()) {
    VAQ_CHECK_EQ(base.p0_per_object.size(), query_.objects.size());
  }
  const scanstat::ScanConfig object_config = ObjectScanConfig(layout_, base);
  for (size_t i = 0; i < query_.objects.size(); ++i) {
    const double p0 =
        base.p0_per_object.empty() ? base.p0_object : base.p0_per_object[i];
    state_->objects.emplace_back(options_.bandwidth_frames, p0,
                                 options_.prior_weight, object_config,
                                 options_.burst_aware);
  }
  if (query_.has_action()) {
    state_->action = std::make_unique<PredicateState>(
        options_.bandwidth_shots, base.p0_action, options_.prior_weight,
        ActionScanConfig(layout_, base), options_.burst_aware);
  }

  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  state_->metric_clips = registry.GetCounter("vaq_clips_processed_total",
                                             {{"engine", "streaming_svaqd"}});
  const auto event_counter = [&](const char* kind) {
    return registry.GetCounter("vaq_stream_events_total", {{"kind", kind}});
  };
  state_->metric_event_opened = event_counter("opened");
  state_->metric_event_extended = event_counter("extended");
  state_->metric_event_closed = event_counter("closed");
  state_->metric_event_gap = event_counter("gap");
  state_->metric_open_len =
      registry.GetGauge("vaq_stream_open_sequence_clips");
}

StreamingSvaqd::~StreamingSvaqd() = default;

StatusOr<bool> StreamingSvaqd::PushClip(detect::ObjectDetector* detector,
                                        detect::ActionRecognizer* recognizer) {
  if (finished_) {
    return Status::FailedPrecondition("PushClip after Finish");
  }
  if (next_clip_ >= layout_.NumClips()) {
    return Status::OutOfRange(
        "stream exceeds the layout's design horizon of " +
        std::to_string(layout_.NumClips()) + " clips");
  }
  const ClipIndex clip = next_clip_++;
  const SvaqOptions& base = options_.base;
  const fault::FaultPlan* plan = options_.fault_plan;

  ClipEvaluator evaluator(query_, layout_, detector, recognizer);
  std::vector<int64_t> kcrit_objects(state_->objects.size());
  for (size_t i = 0; i < state_->objects.size(); ++i) {
    kcrit_objects[i] = state_->objects[i].kcrit;
  }
  const int64_t kcrit_action =
      state_->action != nullptr ? state_->action->kcrit : 0;
  const bool probe =
      options_.probe_period > 0 && clip % options_.probe_period == 0;

  ClipEvaluation eval;
  if (plan != nullptr) {
    state_->clock.Advance(options_.resilience.clip_interval_ms);
    // The wrappers are bound to the models seen on the first push; the
    // retry nonces and breaker state are meaningless across instances.
    if (detector != nullptr) {
      if (state_->rdetector == nullptr) {
        if (!state_->detector_state) state_->detector_state.emplace();
        state_->rdetector = std::make_unique<detect::ResilientObjectDetector>(
            detector, plan, options_.resilience, &state_->clock,
            &*state_->detector_state);
      } else if (state_->rdetector->inner() != detector) {
        return Status::InvalidArgument(
            "PushClip called with a different detector instance");
      }
    }
    if (recognizer != nullptr) {
      if (state_->rrecognizer == nullptr) {
        if (!state_->recognizer_state) state_->recognizer_state.emplace();
        state_->rrecognizer =
            std::make_unique<detect::ResilientActionRecognizer>(
                recognizer, plan, options_.resilience, &state_->clock,
                &*state_->recognizer_state);
      } else if (state_->rrecognizer->inner() != recognizer) {
        return Status::InvalidArgument(
            "PushClip called with a different recognizer instance");
      }
    }
    std::vector<double> object_fallback(state_->objects.size(), 0.0);
    for (size_t i = 0; i < state_->objects.size(); ++i) {
      object_fallback[i] = internal_online::FallbackRate(
          options_.missing_policy, state_->objects[i]);
    }
    const double action_fallback =
        state_->action != nullptr
            ? internal_online::FallbackRate(options_.missing_policy,
                                            *state_->action)
            : 0.0;
    eval = evaluator.EvaluateResilient(
        clip, kcrit_objects, kcrit_action, base.short_circuit && !probe,
        state_->rdetector.get(), state_->rrecognizer.get(), plan,
        object_fallback, action_fallback);
  } else {
    eval = evaluator.Evaluate(clip, kcrit_objects, kcrit_action,
                              base.short_circuit && !probe);
  }
  state_->metric_clips->Increment();
  if (eval.Degraded()) {
    ++degraded_clips_;
    state_->metric_event_gap->Increment();
    if (callback_) {
      callback_({SequenceEvent::Kind::kGap, Interval(clip, clip), clip});
    }
  }
  if (eval.dropped) ++dropped_clips_;

  // Background updates, identical to Svaqd::Run.
  internal_online::UpdateAdaptiveState(options_, eval, &state_->objects,
                                       state_->action.get());

  // Incremental sequence maintenance + events.
  if (eval.positive) {
    if (open_start_ < 0) {
      open_start_ = clip;
      state_->metric_event_opened->Increment();
      if (callback_) {
        callback_({SequenceEvent::Kind::kOpened, Interval(clip, clip), clip});
      }
    } else {
      state_->metric_event_extended->Increment();
      if (callback_) {
        callback_({SequenceEvent::Kind::kExtended, Interval(open_start_, clip),
                   clip});
      }
    }
  } else if (open_start_ >= 0) {
    const Interval closed(open_start_, clip - 1);
    sequences_.Add(closed);
    open_start_ = -1;
    state_->metric_event_closed->Increment();
    if (callback_) {
      callback_({SequenceEvent::Kind::kClosed, closed, clip});
    }
  }
  state_->metric_open_len->Set(
      open_start_ >= 0 ? static_cast<double>(clip - open_start_ + 1) : 0.0);
  return eval.positive;
}

StatusOr<bool> StreamingSvaqd::PushPrunedClip() {
  if (finished_) {
    return Status::FailedPrecondition("PushClip after Finish");
  }
  if (next_clip_ >= layout_.NumClips()) {
    return Status::OutOfRange(
        "stream exceeds the layout's design horizon of " +
        std::to_string(layout_.NumClips()) + " clips");
  }
  const ClipIndex clip = next_clip_++;
  if (options_.fault_plan != nullptr) {
    // Keep virtual time on the clip cadence so the resilience wrappers'
    // breaker/backoff windows line up with the clips that DO run models.
    state_->clock.Advance(options_.resilience.clip_interval_ms);
  }
  if (open_start_ >= 0) {
    const Interval closed(open_start_, clip - 1);
    sequences_.Add(closed);
    open_start_ = -1;
    state_->metric_event_closed->Increment();
    if (callback_) {
      callback_({SequenceEvent::Kind::kClosed, closed, clip});
    }
  }
  state_->metric_open_len->Set(0.0);
  return false;
}

namespace {

// Record tags of the StreamingSvaqd snapshot blob, in format order
// (append-only within a ckpt::kFormatVersion).
enum StreamingTag : uint32_t {
  kTagMeta = 1,
  kTagSequences = 2,
  kTagObjectPredicate = 3,
  kTagActionPredicate = 4,
  kTagDetectorCore = 5,
  kTagRecognizerCore = 6,
};

}  // namespace

void StreamingSvaqd::Persist(ckpt::Archive& ar) {
  if (ar.loading() && (next_clip_ != 0 || finished_)) {
    ar.Fail(Status::FailedPrecondition(
        "a checkpoint loads only into a fresh StreamingSvaqd"));
    return;
  }
  State& s = *state_;
  const bool meta = ar.Record(kTagMeta, [&] {
    ar.I64(next_clip_);
    ar.I64(open_start_);
    ar.Bool(finished_);
    ar.I64(degraded_clips_);
    ar.I64(dropped_clips_);
    s.clock.Persist(ar);
    uint32_t n_objects = static_cast<uint32_t>(s.objects.size());
    bool has_action = s.action != nullptr;
    ar.U32(n_objects);
    ar.Bool(has_action);
    if (n_objects != s.objects.size() || has_action != (s.action != nullptr)) {
      ar.Fail(Status::InvalidArgument(
          "checkpoint does not match this engine's query shape"));
    }
  });
  if (!meta) {
    ar.Fail(Status::Corruption("streaming checkpoint missing meta record"));
  }
  ar.Record(kTagSequences, [&] { sequences_.Persist(ar); });
  for (uint32_t i = 0; i < s.objects.size(); ++i) {
    ar.Record(kTagObjectPredicate, [&] {
      uint32_t index = i;
      ar.U32(index);
      if (index != i) {
        ar.Fail(Status::Corruption("object predicate records out of order"));
        return;
      }
      s.objects[i].Persist(ar);
    });
  }
  if (s.action != nullptr) {
    ar.Record(kTagActionPredicate, [&] { s.action->Persist(ar); });
  }
  ar.Optional(kTagDetectorCore, s.detector_state);
  ar.Optional(kTagRecognizerCore, s.recognizer_state);
}

void StreamingSvaqd::Finish() {
  if (finished_) return;
  finished_ = true;
  if (open_start_ >= 0) {
    const Interval closed(open_start_, next_clip_ - 1);
    sequences_.Add(closed);
    open_start_ = -1;
    state_->metric_event_closed->Increment();
    state_->metric_open_len->Set(0.0);
    if (callback_) {
      callback_({SequenceEvent::Kind::kClosed, closed, next_clip_ - 1});
    }
  }
}

}  // namespace online
}  // namespace vaq
