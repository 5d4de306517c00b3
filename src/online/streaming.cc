#include "online/streaming.h"

namespace vaq {
namespace online {
namespace {

internal_online::EngineSeries StreamingSeries() {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  internal_online::EngineSeries series;
  series.clips = registry.GetCounter("vaq_clips_processed_total",
                                     {{"engine", "streaming_svaqd"}});
  const auto event_counter = [&](const char* kind) {
    return registry.GetCounter("vaq_stream_events_total", {{"kind", kind}});
  };
  series.opened = event_counter("opened");
  series.extended = event_counter("extended");
  series.closed = event_counter("closed");
  series.gap = event_counter("gap");
  series.open_len = registry.GetGauge("vaq_stream_open_sequence_clips");
  return series;
}

}  // namespace

StreamingSvaqd::StreamingSvaqd(QuerySpec query, VideoLayout layout,
                               SvaqdOptions options, Callback callback)
    : CnfStream(query, layout, CnfEngineOptions{std::move(options)},
                StreamingSeries(), std::move(callback)) {}

}  // namespace online
}  // namespace vaq
