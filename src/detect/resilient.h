// Resilient decorators around the perception models.
//
// Systems like Focus and BlazeIt treat the NN layer as an unreliable,
// budgeted resource. `ResilientObjectDetector` / `ResilientActionRecognizer`
// wrap a simulated model with the production-grade failure handling a
// remote GPU service needs:
//
//  * a per-call deadline budget — a timed-out attempt costs `deadline_ms`
//    on the simulated clock and counts as a failure;
//  * bounded retries with exponential backoff (on the same simulated
//    clock), with score *validation* between attempts: NaN or
//    out-of-range scores injected by the fault plan are detected and
//    retried rather than silently corrupting downstream statistics;
//  * a circuit breaker that marks the model unhealthy after
//    `breaker_threshold` consecutive abandoned calls; while open, calls
//    fail fast (no inner invocations) until `breaker_open_ms` has passed,
//    then a half-open probe decides whether to close it again.
//
// Failed observations surface as `Status` (kUnavailable /
// kDeadlineExceeded); the engines translate them into their configured
// missing-observation policy. All counters accumulate into the wrapped
// model's `ModelStats`, so the existing stats plumbing (OnlineResult,
// QueryResult, benches) reports them unchanged.
//
// With a null fault plan every call forwards straight to the inner model:
// the wrapper is a zero-overhead pass-through and engine outputs are
// bit-identical to the unwrapped run.
#ifndef VAQ_DETECT_RESILIENT_H_
#define VAQ_DETECT_RESILIENT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "detect/models.h"
#include "fault/fault_plan.h"
#include "fault/sim_clock.h"
#include "obs/metrics.h"

namespace vaq {
namespace detect {

struct ResilienceOptions {
  // Per-attempt deadline budget; a timed-out attempt burns this much
  // simulated time.
  double deadline_ms = 40.0;
  // Extra attempts after the first failed one.
  int64_t max_retries = 2;
  // Backoff before retry r (0-based): backoff_base_ms * multiplier^r.
  double backoff_base_ms = 5.0;
  double backoff_multiplier = 2.0;
  // Consecutive abandoned calls before the breaker opens.
  int64_t breaker_threshold = 4;
  // Cool-down before a half-open probe is allowed.
  double breaker_open_ms = 2000.0;
  // Stream time that elapses between clip arrivals: the engines advance
  // the simulated clock by this before each clip, so an open breaker's
  // cool-down expires with the stream (one ~3.3 s clip at the default
  // 100-frame / 30 fps layout outlasts `breaker_open_ms`) instead of
  // extending an outage far past its injected window.
  double clip_interval_ms = 3333.0;
};

// Mutable retry/breaker state of one wrapped model. It lives in a slot
// its owner keeps (an engine checkpoints it with its own state); the
// wrapper mutates it in place. `attempt_nonce` is part of the fault
// schedule: restoring it replays the exact per-attempt fault draws the
// uninterrupted run would see.
struct ResilienceState {
  int64_t attempt_nonce = 0;
  int64_t consecutive_failures = 0;
  bool breaker_open = false;
  double breaker_reopen_ms = 0.0;

  // Checkpoint body (ckpt::Archive, DESIGN.md §10).
  template <typename Archive>
  void Persist(Archive& ar) {
    ar.I64(attempt_nonce);
    ar.I64(consecutive_failures);
    ar.Bool(breaker_open);
    ar.F64(breaker_reopen_ms);
  }
};

namespace internal_detect {

// Shared retry/backoff/breaker state machine; one per wrapped model.
// The inner call is abstracted as a score producer so both wrappers reuse
// the exact same fault-schedule semantics, and so the inner model is only
// invoked on attempts that actually reach it (an outage or an open
// breaker costs no inference).
class ResilientCore {
 public:
  // `model_name` labels this wrapper's registry metrics (families
  // vaq_model_calls_total / vaq_model_retries_total /
  // vaq_breaker_transitions_total). No metrics are registered for a null
  // plan: the pass-through path stays zero-overhead. `state` must outlive
  // the core.
  ResilientCore(const fault::FaultPlan* plan, fault::FaultDomain domain,
                ResilienceOptions options, fault::SimClock* clock,
                ResilienceState* state, const std::string& model_name);

  // Runs the attempt loop for the observation at `unit`; `score_fn()`
  // performs one real inner call and `inference_ms` prices it on the
  // simulated clock. Returns the validated score or the last attempt's
  // error.
  template <typename ScoreFn>
  StatusOr<double> Observe(int64_t unit, double inference_ms,
                           ModelStats* stats, ScoreFn&& score_fn) {
    if (plan_ == nullptr) return score_fn();  // Zero-overhead pass-through.
    if (state_->breaker_open &&
        clock_->now_ms() < state_->breaker_reopen_ms) {
      ++stats->failures;
      CountCall(calls_breaker_open_, "breaker_open");
      return Status::Unavailable("circuit breaker open");
      // (Once the cool-down has passed, the call below is the half-open
      // probe: success closes the breaker, failure re-arms it.)
    }
    Status last_error;
    for (int64_t attempt = 0; attempt <= options_.max_retries; ++attempt) {
      if (attempt > 0) {
        ++stats->retries;
        retries_->Increment();
        clock_->Advance(options_.backoff_base_ms *
                        Pow(options_.backoff_multiplier, attempt - 1));
      }
      const fault::FaultKind kind =
          plan_->ProbeCall(domain_, unit, state_->attempt_nonce++);
      if (kind == fault::FaultKind::kCrash) {
        // The service is down for this whole outage window; retrying
        // within it is futile. Fail fast and let the breaker absorb the
        // outage.
        ++stats->faults_injected;
        CountCall(calls_outage_, "outage");
        last_error = Status::Unavailable("model outage");
        break;
      }
      if (kind == fault::FaultKind::kTimeout) {
        ++stats->faults_injected;
        CountCall(calls_timeout_, "timeout");
        clock_->Advance(options_.deadline_ms);  // The deadline budget burned.
        last_error = Status::DeadlineExceeded("model call timed out");
        continue;
      }
      double score = score_fn();
      clock_->Advance(inference_ms);
      score = Corrupt(score, kind);
      if (!(score >= 0.0 && score <= 1.0)) {  // NaN also fails this test.
        ++stats->faults_injected;
        CountCall(calls_invalid_, "invalid_score");
        last_error = Status::Unavailable("model returned invalid score");
        continue;
      }
      state_->consecutive_failures = 0;
      if (state_->breaker_open) {
        state_->breaker_open = false;
        breaker_closed_->Increment();
      }
      CountCall(calls_ok_, "ok");
      return score;
    }
    ++stats->failures;
    CountCall(calls_failed_, "abandoned");
    if (++state_->consecutive_failures >= options_.breaker_threshold) {
      if (!state_->breaker_open) {
        ++stats->breaker_trips;
        breaker_opened_->Increment();
      }
      state_->breaker_open = true;
      state_->breaker_reopen_ms = clock_->now_ms() + options_.breaker_open_ms;
    }
    return last_error;
  }

  bool healthy() const { return !state_->breaker_open; }

 private:
  // Increments the registry counter and mirrors the outcome into the
  // current thread's per-query trace (obs::CurrentQueryContext) as a
  // `model_calls_<outcome>` stat — per-query outcomes cannot be
  // reconstructed from ModelStats deltas, so they are attributed here at
  // the only site that knows them.
  void CountCall(obs::Counter* counter, const char* outcome);
  // Applies an injected score fault to the true score.
  static double Corrupt(double score, fault::FaultKind kind);
  // Small integer power (avoids pulling <cmath> into every include).
  static double Pow(double base, int64_t exp);

  const fault::FaultPlan* plan_;
  fault::FaultDomain domain_;
  ResilienceOptions options_;
  fault::SimClock* clock_;
  ResilienceState* state_;

  // Registry mirrors, resolved once at construction. All non-null whenever
  // `plan_` is set; the null-plan pass-through returns before touching any
  // of them.
  obs::Counter* calls_ok_ = nullptr;
  obs::Counter* calls_timeout_ = nullptr;
  obs::Counter* calls_outage_ = nullptr;
  obs::Counter* calls_invalid_ = nullptr;
  obs::Counter* calls_breaker_open_ = nullptr;
  obs::Counter* calls_failed_ = nullptr;
  obs::Counter* retries_ = nullptr;
  obs::Counter* breaker_opened_ = nullptr;
  obs::Counter* breaker_closed_ = nullptr;
};

}  // namespace internal_detect

// Object detector with deadline/retry/breaker semantics. `inner`, `plan`,
// `clock` and `state` must outlive the wrapper; `plan` may be null
// (pass-through).
class ResilientObjectDetector {
 public:
  ResilientObjectDetector(ObjectDetector* inner, const fault::FaultPlan* plan,
                          ResilienceOptions options, fault::SimClock* clock,
                          ResilienceState* state);

  // MaxScore with failure handling; kUnavailable / kDeadlineExceeded when
  // the observation was abandoned.
  StatusOr<double> MaxScore(ObjectTypeId type, FrameIndex frame);

  // The indicator 1_o^(v), or the abandonment error.
  StatusOr<bool> IsPositive(ObjectTypeId type, FrameIndex frame) {
    VAQ_ASSIGN_OR_RETURN(const double score, MaxScore(type, frame));
    return score >= inner_->profile().threshold;
  }

  // Charges `n` policy-fallback observations to the model's stats.
  void CountFallbacks(int64_t n) { inner_->mutable_stats().fallbacks += n; }

  bool healthy() const { return core_.healthy(); }
  ObjectDetector* inner() { return inner_; }

 private:
  ObjectDetector* inner_;
  const fault::FaultPlan* plan_;
  internal_detect::ResilientCore core_;
};

// Action recognizer counterpart (shot-granularity units).
class ResilientActionRecognizer {
 public:
  ResilientActionRecognizer(ActionRecognizer* inner,
                            const fault::FaultPlan* plan,
                            ResilienceOptions options, fault::SimClock* clock,
                            ResilienceState* state);

  StatusOr<double> Score(ActionTypeId type, ShotIndex shot);

  StatusOr<bool> IsPositive(ActionTypeId type, ShotIndex shot) {
    VAQ_ASSIGN_OR_RETURN(const double score, Score(type, shot));
    return score >= inner_->profile().threshold;
  }

  void CountFallbacks(int64_t n) { inner_->mutable_stats().fallbacks += n; }

  bool healthy() const { return core_.healthy(); }
  ActionRecognizer* inner() { return inner_; }

 private:
  ActionRecognizer* inner_;
  const fault::FaultPlan* plan_;
  internal_detect::ResilientCore core_;
};

}  // namespace detect
}  // namespace vaq

#endif  // VAQ_DETECT_RESILIENT_H_
