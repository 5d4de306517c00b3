#include "online/svaq.h"

#include <chrono>

#include "common/logging.h"
#include "obs/metrics.h"

namespace vaq {
namespace online {

scanstat::ScanConfig ObjectScanConfig(const VideoLayout& layout,
                                      const SvaqOptions& options) {
  scanstat::ScanConfig config;
  config.window = layout.frames_per_clip();
  config.horizon = options.horizon_frames > 0 ? options.horizon_frames
                                              : layout.num_frames();
  config.horizon = std::max(config.horizon, config.window);
  config.alpha = options.alpha;
  return config;
}

scanstat::ScanConfig ActionScanConfig(const VideoLayout& layout,
                                      const SvaqOptions& options) {
  scanstat::ScanConfig config;
  config.window = layout.shots_per_clip();
  const int64_t horizon_frames = options.horizon_frames > 0
                                     ? options.horizon_frames
                                     : layout.num_frames();
  config.horizon =
      std::max<int64_t>(horizon_frames / layout.frames_per_shot(),
                        config.window);
  config.alpha = options.alpha;
  return config;
}

Svaq::Svaq(QuerySpec query, VideoLayout layout, SvaqOptions options)
    : query_(std::move(query)),
      layout_(layout),
      options_(std::move(options)) {
  if (!options_.p0_per_object.empty()) {
    VAQ_CHECK_EQ(options_.p0_per_object.size(), query_.objects.size());
  }
}

std::vector<int64_t> Svaq::InitialObjectCriticalValues() const {
  const scanstat::ScanConfig config = ObjectScanConfig(layout_, options_);
  std::vector<int64_t> kcrit(query_.objects.size());
  for (size_t i = 0; i < query_.objects.size(); ++i) {
    const double p0 = options_.p0_per_object.empty()
                          ? options_.p0_object
                          : options_.p0_per_object[i];
    kcrit[i] = scanstat::CriticalValue(p0, config);
  }
  return kcrit;
}

int64_t Svaq::InitialActionCriticalValue() const {
  if (!query_.has_action()) return 0;
  return scanstat::CriticalValue(options_.p0_action,
                                 ActionScanConfig(layout_, options_));
}

OnlineResult Svaq::Run(detect::ObjectDetector* detector,
                       detect::ActionRecognizer* recognizer) const {
  obs::CountSpan("svaq/run");
  const auto start = std::chrono::steady_clock::now();
  OnlineResult result;
  const detect::ModelStats detector_stats_before =
      detector != nullptr ? detector->stats() : detect::ModelStats();
  const detect::ModelStats recognizer_stats_before =
      recognizer != nullptr ? recognizer->stats() : detect::ModelStats();
  result.kcrit_objects = InitialObjectCriticalValues();
  result.kcrit_action = InitialActionCriticalValue();

  // Registry mirrors (logical quantities only, so seeded runs stay
  // byte-reproducible): the latency histogram observes *simulated* model
  // milliseconds per clip, never wall time.
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  obs::Counter* metric_clips =
      registry.GetCounter("vaq_clips_processed_total", {{"engine", "svaq"}});
  obs::Counter* metric_rejections = registry.GetCounter(
      "vaq_scanstat_rejections_total", {{"engine", "svaq"}});
  obs::Histogram* metric_clip_ms =
      registry.GetHistogram("vaq_clip_eval_simulated_ms",
                            obs::DefaultLatencyBucketsMs(),
                            {{"engine", "svaq"}});
  const auto simulated_ms = [&] {
    double ms = 0.0;
    if (detector != nullptr) ms += detector->stats().simulated_ms;
    if (recognizer != nullptr) ms += recognizer->stats().simulated_ms;
    return ms;
  };

  ClipEvaluator evaluator(query_, layout_, detector, recognizer);
  const int64_t num_clips = layout_.NumClips();
  result.clip_indicator.resize(static_cast<size_t>(num_clips), false);
  for (ClipIndex c = 0; c < num_clips; ++c) {
    const double clip_start_ms = simulated_ms();
    const ClipEvaluation eval =
        evaluator.Evaluate(c, result.kcrit_objects, result.kcrit_action,
                           options_.short_circuit);
    result.clip_indicator[static_cast<size_t>(c)] = eval.positive;
    ++result.clips_processed;
    metric_clips->Increment();
    if (eval.positive) metric_rejections->Increment();
    metric_clip_ms->Observe(simulated_ms() - clip_start_ms);
  }
  result.sequences = IntervalSet::FromIndicators(result.clip_indicator);
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
