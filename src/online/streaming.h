// Push-based incremental SVAQD.
//
// Svaqd::Run drives a whole (finite) video; a deployed monitoring system
// instead receives the stream clip by clip and must report result
// sequences *as they form* (§1: "query results have to be reported as the
// video streams"). `StreamingSvaqd` exposes exactly that contract:
//
//   StreamingSvaqd stream(query, layout, options, [](const auto& event) {
//     if (event.kind == SequenceEvent::Kind::kClosed) Alert(event.sequence);
//   });
//   while (camera.HasClip()) stream.PushClip(&detector, &recognizer);
//   stream.Finish();
//
// Events fire with one-clip latency for closures (a sequence is known to
// have ended only when the first negative clip after it is seen, per
// Eq. 4's maximality requirement) and immediately for openings and
// extensions. It is the conjunctive CnfStream that Svaqd::Run drives, so
// feeding every clip of a finite video through PushClip reproduces
// Svaqd::Run bit for bit; it adds only the streaming registry series
// (vaq_clips_processed_total{engine="streaming_svaqd"},
// vaq_stream_events_total and vaq_stream_open_sequence_clips).
#ifndef VAQ_ONLINE_STREAMING_H_
#define VAQ_ONLINE_STREAMING_H_

#include "online/cnf_engine.h"

namespace vaq {
namespace online {

class StreamingSvaqd : public CnfStream {
 public:
  // `layout` fixes the segmentation and the design horizon (its
  // num_frames bounds the stream; push at most NumClips() clips).
  StreamingSvaqd(QuerySpec query, VideoLayout layout, SvaqdOptions options,
                 Callback callback);
};

}  // namespace online
}  // namespace vaq

#endif  // VAQ_ONLINE_STREAMING_H_
