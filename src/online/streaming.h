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
// extensions. The adaptive machinery (kernel estimators, burst awareness,
// probing) is identical to Svaqd: feeding every clip of a finite video
// through PushClip reproduces Svaqd::Run bit for bit.
#ifndef VAQ_ONLINE_STREAMING_H_
#define VAQ_ONLINE_STREAMING_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "online/svaqd.h"

namespace vaq {
namespace ckpt {
class Archive;
}  // namespace ckpt

namespace online {

// A change in the set of result sequences.
struct SequenceEvent {
  enum class Kind {
    kOpened,    // A new sequence started at `sequence.lo` (== clip).
    kExtended,  // The open sequence grew to include `clip`.
    kClosed,    // The sequence [sequence.lo, sequence.hi] is final.
    kGap,       // `clip` had missing observations (fault injection):
                // indicators around it are degraded-confidence. Emitted
                // before the clip's open/extend/close event, if any.
  };
  Kind kind = Kind::kOpened;
  Interval sequence;
  ClipIndex clip = 0;  // The clip whose processing triggered the event.
};

class StreamingSvaqd {
 public:
  using Callback = std::function<void(const SequenceEvent&)>;

  // `layout` fixes the segmentation and the design horizon (its
  // num_frames bounds the stream; push at most NumClips() clips).
  StreamingSvaqd(QuerySpec query, VideoLayout layout, SvaqdOptions options,
                 Callback callback);
  ~StreamingSvaqd();

  StreamingSvaqd(const StreamingSvaqd&) = delete;
  StreamingSvaqd& operator=(const StreamingSvaqd&) = delete;

  // Processes the next clip of the stream (clip indices advance
  // implicitly). Returns the clip's query indicator, or
  // kFailedPrecondition after Finish() / kOutOfRange past the layout's
  // clip count (the stream state is untouched in either case). With fault
  // injection enabled, the same model instances must be passed on every
  // call (the resilience state is bound to them).
  StatusOr<bool> PushClip(detect::ObjectDetector* detector,
                          detect::ActionRecognizer* recognizer);

  // Skips the next clip without invoking any model: the caller (e.g. the
  // serving layer's cascade prefilter, src/cascade/) already knows the
  // clip cannot satisfy the query. Behaves like a clip whose query
  // indicator is false — an open sequence closes, the stream cursor and
  // the virtual clock advance — but performs no observation and no
  // adaptive update. Returns false, or the same errors as PushClip.
  StatusOr<bool> PushPrunedClip();

  // Ends the stream, closing any open sequence.
  void Finish();

  // Clips processed with at least one missing observation / lost
  // wholesale (nonzero only under fault injection).
  int64_t degraded_clips() const { return degraded_clips_; }
  int64_t dropped_clips() const { return dropped_clips_; }

  // Clips pushed so far; the next PushClip processes this index.
  ClipIndex next_clip() const { return next_clip_; }
  bool finished() const { return finished_; }
  // All sequences closed so far (plus the open one only after Finish()).
  const IntervalSet& sequences() const { return sequences_; }

  // Checkpoint body (ckpt::Archive, DESIGN.md §10): the engine's
  // complete mutable state — stream cursor, open run, closed sequences,
  // per-predicate kernel estimators and critical values, simulated clock,
  // and the resilience wrappers' retry/breaker state. Loading it into a
  // freshly constructed engine with the identical (query, layout,
  // options) resumes the exact trajectory: pushing the remaining clips
  // yields bit-identical indicators, sequences and stats deltas. Loading
  // fails with kFailedPrecondition unless this engine is fresh (no clips
  // pushed), kCorruption / kInvalidArgument when the records are damaged
  // or shaped for a different query.
  void Persist(ckpt::Archive& ar);

 private:
  struct State;  // Per-predicate adaptive state (internal).

  QuerySpec query_;
  VideoLayout layout_;
  SvaqdOptions options_;
  Callback callback_;
  std::unique_ptr<State> state_;
  IntervalSet sequences_;
  ClipIndex next_clip_ = 0;
  ClipIndex open_start_ = -1;  // Start of the currently open run, or -1.
  bool finished_ = false;
  int64_t degraded_clips_ = 0;
  int64_t dropped_clips_ = 0;
};

}  // namespace online
}  // namespace vaq

#endif  // VAQ_ONLINE_STREAMING_H_
