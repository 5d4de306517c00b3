#include "online/svaq.h"

#include "common/logging.h"
#include "obs/metrics.h"
#include "online/cnf_engine.h"

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
  CnfEngineOptions options;
  options.svaqd.base = options_;
  // No pseudo-observations: the estimator's rate is p0 itself, so the
  // critical values are InitialObjectCriticalValues() exactly.
  options.svaqd.prior_weight = 0;
  options.svaqd.probe_period = 0;
  options.adaptive = false;
  CnfStream engine(query_, layout_, std::move(options),
                   internal_online::BatchSeries("svaq"));
  return RunToEnd(engine, detector, recognizer);
}

}  // namespace online
}  // namespace vaq
