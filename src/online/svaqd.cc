#include "online/svaqd.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "fault/sim_clock.h"

#include "common/logging.h"
#include "obs/metrics.h"
#include "online/predicate_state.h"
#include "scanstat/critical_value.h"
#include "scanstat/markov.h"

namespace vaq {
namespace online {

using internal_online::PredicateState;

namespace {

const char* PolicyName(MissingObsPolicy policy) {
  switch (policy) {
    case MissingObsPolicy::kAssumeNegative:
      return "assume_negative";
    case MissingObsPolicy::kCarryLast:
      return "carry_last";
    case MissingObsPolicy::kBackgroundPrior:
      return "background_prior";
  }
  return "?";
}

}  // namespace

namespace internal_online {

double FallbackRate(MissingObsPolicy policy, const PredicateState& state) {
  switch (policy) {
    case MissingObsPolicy::kAssumeNegative:
      return 0.0;
    case MissingObsPolicy::kCarryLast:
      return state.last_observed_rate;
    case MissingObsPolicy::kBackgroundPrior:
      return state.estimator.rate();
  }
  return 0.0;
}

void UpdateAdaptiveState(const SvaqdOptions& options,
                         const ClipEvaluation& eval,
                         std::vector<PredicateState>* objects,
                         PredicateState* action) {
  // Carry-last tracking: each predicate's most recent observed rate.
  for (size_t i = 0; i < objects->size(); ++i) {
    if (!eval.ObjectEvaluated(i)) continue;
    const int64_t observed = eval.frames_in_clip - eval.object_missing[i];
    if (observed > 0) {
      (*objects)[i].last_observed_rate =
          static_cast<double>(eval.object_counts[i]) /
          static_cast<double>(observed);
    }
  }
  if (action != nullptr && eval.ActionEvaluated()) {
    const int64_t observed = eval.shots_in_clip - eval.action_missing;
    if (observed > 0) {
      action->last_observed_rate = static_cast<double>(eval.action_count) /
                                   static_cast<double>(observed);
    }
  }

  // Feed the background estimators according to the update policy; only
  // successfully observed units count.
  const bool clip_gate =
      options.update_policy == UpdatePolicy::kAllClips ||
      options.update_policy == UpdatePolicy::kSelfExcluding ||
      (options.update_policy == UpdatePolicy::kNegativeClipsOnly &&
       !eval.positive) ||
      (options.update_policy == UpdatePolicy::kPositiveClipsOnly &&
       eval.positive);
  if (!clip_gate) return;
  const bool self_excluding =
      options.update_policy == UpdatePolicy::kSelfExcluding;
  for (size_t i = 0; i < objects->size(); ++i) {
    if (!eval.ObjectEvaluated(i)) continue;
    const int64_t observed = eval.frames_in_clip - eval.object_missing[i];
    if (observed <= 0) continue;
    if (self_excluding && 8 * eval.object_counts[i] >= observed) {
      continue;  // Predicate plainly satisfied: not background.
    }
    PredicateState& state = (*objects)[i];
    state.estimator.ObserveBatch(observed, eval.object_counts[i]);
    state.ObserveCount(eval.object_counts[i], observed);
    state.MaybeRecompute(options.recompute_rel_tol);
  }
  if (action != nullptr && eval.ActionEvaluated()) {
    const int64_t observed = eval.shots_in_clip - eval.action_missing;
    if (observed > 0 &&
        !(self_excluding && 8 * eval.action_count >= observed)) {
      action->estimator.ObserveBatch(observed, eval.action_count);
      action->ObserveCount(eval.action_count, observed);
      action->MaybeRecompute(options.recompute_rel_tol);
    }
  }
}

}  // namespace internal_online

Svaqd::Svaqd(QuerySpec query, VideoLayout layout, SvaqdOptions options)
    : query_(std::move(query)),
      layout_(layout),
      options_(std::move(options)) {
  if (!options_.base.p0_per_object.empty()) {
    VAQ_CHECK_EQ(options_.base.p0_per_object.size(), query_.objects.size());
  }
}

OnlineResult Svaqd::Run(detect::ObjectDetector* detector,
                        detect::ActionRecognizer* recognizer) const {
  obs::CountSpan("svaqd/run");
  const auto start = std::chrono::steady_clock::now();
  const SvaqOptions& base = options_.base;
  const detect::ModelStats detector_stats_before =
      detector != nullptr ? detector->stats() : detect::ModelStats();
  const detect::ModelStats recognizer_stats_before =
      recognizer != nullptr ? recognizer->stats() : detect::ModelStats();

  // Registry mirrors. Only logical quantities are recorded (clip counts
  // and *simulated* model milliseconds), so a seeded run — with or
  // without fault injection — exports a byte-identical snapshot.
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  obs::Counter* metric_clips =
      registry.GetCounter("vaq_clips_processed_total", {{"engine", "svaqd"}});
  obs::Counter* metric_rejections = registry.GetCounter(
      "vaq_scanstat_rejections_total", {{"engine", "svaqd"}});
  obs::Counter* metric_degraded =
      registry.GetCounter("vaq_clips_degraded_total", {{"engine", "svaqd"}});
  obs::Counter* metric_dropped =
      registry.GetCounter("vaq_clips_dropped_total", {{"engine", "svaqd"}});
  obs::Counter* metric_gap_policy = registry.GetCounter(
      "vaq_gap_policy_activations_total",
      {{"engine", "svaqd"}, {"policy", PolicyName(options_.missing_policy)}});
  obs::Histogram* metric_clip_ms =
      registry.GetHistogram("vaq_clip_eval_simulated_ms",
                            obs::DefaultLatencyBucketsMs(),
                            {{"engine", "svaqd"}});
  const auto simulated_ms = [&] {
    double ms = 0.0;
    if (detector != nullptr) ms += detector->stats().simulated_ms;
    if (recognizer != nullptr) ms += recognizer->stats().simulated_ms;
    return ms;
  };

  // One estimator per object predicate plus one for the action.
  std::vector<PredicateState> objects;
  objects.reserve(query_.objects.size());
  const scanstat::ScanConfig object_config = ObjectScanConfig(layout_, base);
  for (size_t i = 0; i < query_.objects.size(); ++i) {
    const double p0 =
        base.p0_per_object.empty() ? base.p0_object : base.p0_per_object[i];
    objects.emplace_back(options_.bandwidth_frames, p0,
                         options_.prior_weight, object_config,
                         options_.burst_aware);
  }
  std::unique_ptr<PredicateState> action;
  if (query_.has_action()) {
    action = std::make_unique<PredicateState>(
        options_.bandwidth_shots, base.p0_action, options_.prior_weight,
        ActionScanConfig(layout_, base), options_.burst_aware);
  }

  ClipEvaluator evaluator(query_, layout_, detector, recognizer);
  OnlineResult result;
  const int64_t num_clips = layout_.NumClips();
  result.clip_indicator.resize(static_cast<size_t>(num_clips), false);

  // Fault injection: wrap the models once for the whole run. The wrapper
  // state (retry nonces, breaker, simulated clock) evolves clip by clip in
  // push order, exactly as StreamingSvaqd's does.
  const fault::FaultPlan* plan = options_.fault_plan;
  fault::SimClock clock;
  detect::ResilienceState detector_state;
  detect::ResilienceState recognizer_state;
  std::unique_ptr<detect::ResilientObjectDetector> rdetector;
  std::unique_ptr<detect::ResilientActionRecognizer> rrecognizer;
  if (plan != nullptr) {
    if (detector != nullptr) {
      rdetector = std::make_unique<detect::ResilientObjectDetector>(
          detector, plan, options_.resilience, &clock, &detector_state);
    }
    if (recognizer != nullptr) {
      rrecognizer = std::make_unique<detect::ResilientActionRecognizer>(
          recognizer, plan, options_.resilience, &clock, &recognizer_state);
    }
  }
  std::vector<double> object_fallback(objects.size(), 0.0);

  for (ClipIndex c = 0; c < num_clips; ++c) {
    obs::CountSpan("svaqd/clip_eval");
    std::vector<int64_t> kcrit_objects(objects.size());
    for (size_t i = 0; i < objects.size(); ++i) {
      kcrit_objects[i] = objects[i].kcrit;
    }
    const int64_t kcrit_action = action != nullptr ? action->kcrit : 0;
    const bool probe =
        options_.probe_period > 0 && c % options_.probe_period == 0;
    const double clip_start_ms = simulated_ms();
    ClipEvaluation eval;
    if (plan != nullptr) {
      clock.Advance(options_.resilience.clip_interval_ms);
      for (size_t i = 0; i < objects.size(); ++i) {
        object_fallback[i] =
            internal_online::FallbackRate(options_.missing_policy, objects[i]);
      }
      const double action_fallback =
          action != nullptr
              ? internal_online::FallbackRate(options_.missing_policy, *action)
              : 0.0;
      eval = evaluator.EvaluateResilient(
          c, kcrit_objects, kcrit_action, base.short_circuit && !probe,
          rdetector.get(), rrecognizer.get(), plan, object_fallback,
          action_fallback);
    } else {
      eval = evaluator.Evaluate(c, kcrit_objects, kcrit_action,
                                base.short_circuit && !probe);
    }
    result.clip_indicator[static_cast<size_t>(c)] = eval.positive;
    ++result.clips_processed;
    metric_clips->Increment();
    if (eval.positive) metric_rejections->Increment();
    if (eval.Degraded()) {
      ++result.degraded_clips;
      metric_degraded->Increment();
      // A degraded clip is exactly one where the missing-observation
      // (gap) policy had to fill in for abandoned model calls.
      metric_gap_policy->Increment();
    }
    if (eval.dropped) {
      ++result.dropped_clips;
      metric_dropped->Increment();
    }
    metric_clip_ms->Observe(simulated_ms() - clip_start_ms);

    internal_online::UpdateAdaptiveState(options_, eval, &objects,
                                         action.get());
  }

  result.sequences = IntervalSet::FromIndicators(result.clip_indicator);
  result.kcrit_objects.resize(objects.size());
  for (size_t i = 0; i < objects.size(); ++i) {
    result.kcrit_objects[i] = objects[i].kcrit;
  }
  result.kcrit_action = action != nullptr ? action->kcrit : 0;
  // Per-run deltas, so stats stay per-query when a model bundle is shared
  // across successive runs (the serving layer's shared detection cache).
  if (detector != nullptr) {
    result.detector_stats = detector->stats() - detector_stats_before;
  }
  if (recognizer != nullptr) {
    result.recognizer_stats = recognizer->stats() - recognizer_stats_before;
  }
  result.algorithm_wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace online
}  // namespace vaq
