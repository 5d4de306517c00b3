#include "online/svaqd.h"

#include "common/logging.h"
#include "obs/metrics.h"
#include "online/cnf_engine.h"

namespace vaq {
namespace online {
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
  // Registry mirrors. Only logical quantities are recorded (clip counts
  // and *simulated* model milliseconds), so a seeded run — with or
  // without fault injection — exports a byte-identical snapshot.
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  internal_online::EngineSeries series = internal_online::BatchSeries("svaqd");
  series.degraded =
      registry.GetCounter("vaq_clips_degraded_total", {{"engine", "svaqd"}});
  series.dropped =
      registry.GetCounter("vaq_clips_dropped_total", {{"engine", "svaqd"}});
  series.gap_policy = registry.GetCounter(
      "vaq_gap_policy_activations_total",
      {{"engine", "svaqd"}, {"policy", PolicyName(options_.missing_policy)}});
  CnfStream engine(query_, layout_, CnfEngineOptions{options_}, series);
  return RunToEnd(engine, detector, recognizer, "svaqd/clip_eval");
}

}  // namespace online
}  // namespace vaq
