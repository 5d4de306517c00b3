// The online engine: streaming evaluation of CNF queries (§2, footnotes
// 3-4), and the one clip loop behind every online entry point.
//
// Per clip, a clause's indicator is the OR of its literals' scan-statistic
// indicators (Eq. 1-2), and the clip satisfies the query when every clause
// fires (Eq. 3). Evaluation short-circuits at both levels — within a
// clause, literals are evaluated until one fires; across clauses, a failed
// clause skips the rest of the clip (Algorithm 2) — except on every
// `probe_period`-th clip, which evaluates every literal so that each
// background estimator stays fed.
//
// Each literal carries its own critical value, either static from p0
// (SVAQ, Algorithm 1) or maintained by a kernel background estimator
// (SVAQD, Algorithm 3). A conjunctive query is the CNF of unit clauses in
// Algorithm 2's order (objects, then the action), so:
//   * Svaq::Run and Svaqd::Run push every clip and call Finish;
//   * StreamingSvaqd is this engine, publishing the streaming series;
//   * CnfEngine::Run is the batch form of a CNF query.
// Under a fault plan every model call goes through the detect::Resilient*
// wrappers and a missing observation is filled by the missing-observation
// policy (SvaqdOptions), for conjunctive and CNF queries alike.
#ifndef VAQ_ONLINE_CNF_ENGINE_H_
#define VAQ_ONLINE_CNF_ENGINE_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "detect/models.h"
#include "obs/metrics.h"
#include "online/svaqd.h"
#include "video/cnf_query.h"
#include "video/layout.h"

namespace vaq {
namespace ckpt {
class Archive;
}  // namespace ckpt

namespace online {

struct CnfEngineOptions {
  // Estimation, significance and fault-injection parameters (alpha, p0,
  // bandwidths, update policy, burst awareness, probe period, fault plan,
  // resilience, missing-observation policy), shared with the conjunctive
  // SVAQD. A CNF query reads p0_object for every object literal;
  // p0_per_object applies to conjunctive queries only.
  SvaqdOptions svaqd;
  // false: keep the initial critical values for the whole stream
  // (SVAQ-style); true: adapt them online (SVAQD-style).
  bool adaptive = true;
};

// Result of a CNF run; sequences and indicator as in OnlineResult, plus
// the final critical value per distinct literal.
struct CnfResult {
  IntervalSet sequences;
  std::vector<bool> clip_indicator;
  int64_t clips_processed = 0;
  std::vector<Literal> literals;         // Distinct literals, engine order.
  std::vector<int64_t> kcrit;            // Final k_crit per literal.
  detect::ModelStats detector_stats;
  detect::ModelStats recognizer_stats;
  double algorithm_wall_ms = 0.0;
};

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

namespace internal_online {

// The registry series an entry point publishes through its engine; null
// members are not published. Each entry point registers its own fixed
// set (registration alone puts a zero-valued series into exports), under
// an `engine=` label it picks.
struct EngineSeries {
  obs::Counter* clips = nullptr;       // vaq_clips_processed_total
  obs::Counter* rejections = nullptr;  // vaq_scanstat_rejections_total
  obs::Counter* degraded = nullptr;    // vaq_clips_degraded_total
  obs::Counter* gap_policy = nullptr;  // vaq_gap_policy_activations_total
  obs::Counter* dropped = nullptr;     // vaq_clips_dropped_total
  obs::Histogram* clip_ms = nullptr;   // vaq_clip_eval_simulated_ms
  // vaq_stream_events_total{kind=...} and the open-sequence gauge.
  obs::Counter* opened = nullptr;
  obs::Counter* extended = nullptr;
  obs::Counter* closed = nullptr;
  obs::Counter* gap = nullptr;
  obs::Gauge* open_len = nullptr;
};

// Clips processed, scan-statistic rejections and the per-clip simulated
// model milliseconds, labelled engine=`engine`.
EngineSeries BatchSeries(const char* engine);

}  // namespace internal_online

// Push-based incremental evaluation, one clip per PushClip call,
// maintaining result sequences as open/closed runs and reporting them as
// SequenceEvents. Checkpointable: see Persist.
class CnfStream {
 public:
  using Callback = std::function<void(const SequenceEvent&)>;

  // A CNF query: one literal state per distinct literal, shared by every
  // clause that names it (so a literal is evaluated at most once a clip).
  CnfStream(CnfQuery query, VideoLayout layout, CnfEngineOptions options);
  // A conjunctive query: one literal state per predicate *position*, so a
  // repeated predicate keeps two states and is evaluated twice, with
  // p0_per_object honoured. `series` are the registry series the caller
  // publishes; `callback` (may be empty) receives the sequence events.
  CnfStream(const QuerySpec& query, VideoLayout layout,
            CnfEngineOptions options,
            internal_online::EngineSeries series = {},
            Callback callback = nullptr);
  // Virtual: the server owns StreamingSvaqd engines through CnfStream
  // pointers.
  virtual ~CnfStream();

  CnfStream(const CnfStream&) = delete;
  CnfStream& operator=(const CnfStream&) = delete;

  // Evaluates the next clip and returns its query indicator. `detector`
  // is required when any literal is an object, `recognizer` when any is
  // an action; under a fault plan the same model instances must be
  // passed on every call (the resilience state is bound to them).
  // Errors leave the stream untouched: kFailedPrecondition after
  // Finish(), kOutOfRange past the layout's clip count, kInvalidArgument
  // for a missing or different model.
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
  const VideoLayout& layout() const { return layout_; }
  // True for the conjunctive form (and its snapshot layout).
  bool conjunctive() const { return conjunctive_; }
  // Literals in engine order (per distinct literal for a CNF query, per
  // predicate position for a conjunctive one), their current critical
  // values, and their positive-unit counts in the last pushed clip (-1
  // where short-circuiting skipped the literal).
  std::vector<Literal> literals() const;
  std::vector<int64_t> kcrit() const;
  std::vector<int64_t> clip_counts() const;

  // Checkpoint body (ckpt::Archive, DESIGN.md §10): the engine's
  // complete mutable state — stream cursor, open run, closed sequences,
  // per-literal estimators and critical values, simulated clock, and the
  // resilience wrappers' retry/breaker state. The record layout is the
  // v1 layout of the engine's form (conjunctive: StreamingSvaqd's; CNF:
  // CnfStream's, whose fault and burst state lives in appended records).
  // Loading it into a freshly constructed engine with the identical
  // (query, layout, options) resumes the exact trajectory: pushing the
  // remaining clips yields bit-identical indicators, sequences and stats
  // deltas. Loading fails with kFailedPrecondition unless this engine is
  // fresh (no clips pushed), kCorruption / kInvalidArgument when the
  // records are damaged or shaped for a different query.
  void Persist(ckpt::Archive& ar);

 private:
  struct Impl;  // Literal states, clause map, resilience state (internal).

  CnfStream(CnfQuery query, bool conjunctive, VideoLayout layout,
            CnfEngineOptions options, internal_online::EngineSeries series,
            Callback callback);

  Status CheckPushable() const;
  // Closes the open run at `last` (reporting `clip` as the trigger);
  // false when no run was open.
  bool CloseRun(ClipIndex last, ClipIndex clip);

  VideoLayout layout_;
  CnfEngineOptions options_;
  bool conjunctive_ = false;
  std::unique_ptr<Impl> impl_;
  IntervalSet sequences_;
  ClipIndex next_clip_ = 0;
  ClipIndex open_start_ = -1;  // Start of the currently open run, or -1.
  bool finished_ = false;
  int64_t degraded_clips_ = 0;
  int64_t dropped_clips_ = 0;
};

// Pushes every clip of `engine`'s layout (which must be fresh), finishes
// it and reports the run: the batch form of every online entry point.
// `clip_span`, when set, is counted once per clip (obs::CountSpan).
// kcrit_objects / kcrit_action carry the final critical values of the
// object literals / the last action literal.
OnlineResult RunToEnd(CnfStream& engine, detect::ObjectDetector* detector,
                      detect::ActionRecognizer* recognizer,
                      const char* clip_span = nullptr);

class CnfEngine {
 public:
  CnfEngine(CnfQuery query, VideoLayout layout, CnfEngineOptions options);

  // `detector` is required when any literal is an object, `recognizer`
  // when any literal is an action.
  CnfResult Run(detect::ObjectDetector* detector,
                detect::ActionRecognizer* recognizer) const;

  const CnfQuery& query() const { return query_; }

 private:
  CnfQuery query_;
  VideoLayout layout_;
  CnfEngineOptions options_;
};

}  // namespace online
}  // namespace vaq

#endif  // VAQ_ONLINE_CNF_ENGINE_H_
