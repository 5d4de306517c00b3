// Streaming evaluation of CNF queries (§2, footnotes 3-4).
//
// Generalizes SVAQ/SVAQD from one conjunction to a conjunction of
// disjunctive clauses: per clip, a clause's indicator is the OR of its
// literals' scan-statistic indicators, and the clip satisfies the query
// when every clause fires. Evaluation short-circuits at both levels —
// within a clause, literals are evaluated until one fires; across
// clauses, a failed clause skips the rest of the clip.
//
// Each distinct literal carries its own critical value, either static
// from p0 (SVAQ-style) or maintained by a kernel background estimator
// (SVAQD-style), exactly as in the conjunctive engines.
#ifndef VAQ_ONLINE_CNF_ENGINE_H_
#define VAQ_ONLINE_CNF_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "detect/models.h"
#include "online/svaqd.h"
#include "video/cnf_query.h"
#include "video/layout.h"

namespace vaq {
namespace ckpt {
class Archive;
}  // namespace ckpt

namespace online {

struct CnfEngineOptions {
  // Estimation / significance parameters (alpha, p0, bandwidths, gate,
  // probe period) are shared with the conjunctive SVAQD. The fault-
  // injection fields (fault_plan, resilience, missing_policy) are ignored
  // here: the CNF engine evaluates literals on the raw model path.
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

// Push-based incremental CNF evaluation: the streaming counterpart of
// CnfEngine::Run, one clip per PushClip call, maintaining result
// sequences as open/closed runs exactly like StreamingSvaqd. Feeding
// every clip of the layout through PushClip reproduces Run bit for bit
// (Run is implemented on top of this class). Checkpointable: see
// Persist.
class CnfStream {
 public:
  CnfStream(CnfQuery query, VideoLayout layout, CnfEngineOptions options);
  ~CnfStream();

  CnfStream(const CnfStream&) = delete;
  CnfStream& operator=(const CnfStream&) = delete;

  // Evaluates the next clip; returns its CNF indicator. `detector` is
  // required when any literal is an object, `recognizer` when any is an
  // action. kFailedPrecondition after Finish(), kOutOfRange past the
  // layout's clip count.
  StatusOr<bool> PushClip(detect::ObjectDetector* detector,
                          detect::ActionRecognizer* recognizer);

  // Ends the stream, closing any open sequence.
  void Finish();

  ClipIndex next_clip() const { return next_clip_; }
  bool finished() const { return finished_; }
  // Sequences closed so far (plus the open one only after Finish()).
  const IntervalSet& sequences() const { return sequences_; }
  // Distinct literals in engine order / their current critical values.
  std::vector<Literal> literals() const;
  std::vector<int64_t> kcrit() const;

  // Checkpoint body (ckpt::Archive, DESIGN.md §10): the complete mutable
  // state. Loading it into a freshly constructed stream with identical
  // (query, layout, options) resumes the exact trajectory (see
  // StreamingSvaqd::Persist).
  void Persist(ckpt::Archive& ar);

 private:
  struct Impl;  // Per-literal estimator/critical-value state (internal).

  CnfQuery query_;
  VideoLayout layout_;
  CnfEngineOptions options_;
  std::unique_ptr<Impl> impl_;
  IntervalSet sequences_;
  ClipIndex next_clip_ = 0;
  ClipIndex open_start_ = -1;  // Start of the currently open run, or -1.
  bool finished_ = false;
};

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
