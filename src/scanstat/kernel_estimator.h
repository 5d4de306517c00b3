// Dynamic background-probability estimation (§3.3 of the paper).
//
// SVAQD replaces the fixed Bernoulli background probability p0 of SVAQ with
// an online estimate p̂(t) obtained by smoothing the observed event stream
// with an exponential kernel K(x) = exp(-x) of bandwidth u, including the
// Diggle edge correction for the finite observation window [1, t].
//
// `KernelRateEstimator` maintains the edge-corrected estimate in O(1) per
// occurrence unit as the ratio
//
//   p̂(t) = Σ_{events n} exp(-(t - t_n)/u)  /  Σ_{OUs j<=t} exp(-(t - t_j)/u)
//
// whose denominator is exactly the paper's edge-correction factor
// (1 - exp(-t/u)) / (1 - exp(-1/u)). The ratio form is unbiased for a
// constant background probability (E[numerator] = p * denominator), decays
// sudden rate changes with time constant u, and — as the paper requires —
// is insensitive to gradual drift slower than u. The literal incremental
// recurrence printed as Eq. 6 in the paper carries an extra 1/(N* u)
// normalisation that makes it converge to p/u rather than p; it is kept
// here as `Eq6Reference` for documentation and is unit-tested against the
// ratio form (see DESIGN.md §1 for the rationale).
#ifndef VAQ_SCANSTAT_KERNEL_ESTIMATOR_H_
#define VAQ_SCANSTAT_KERNEL_ESTIMATOR_H_

#include <cstdint>

namespace vaq {
namespace scanstat {

// Online edge-corrected exponential-kernel estimate of a Bernoulli event
// rate over a stream of occurrence units.
class KernelRateEstimator {
 public:
  // `bandwidth_u` is the kernel bandwidth in occurrence units (> 0).
  // `prior_p` seeds the estimate as `prior_weight` pseudo-occurrence-units
  // observed before the stream; the pseudo-data decays under the kernel
  // exactly like real data, so the prior's influence vanishes
  // exponentially (prior_weight may be 0 for a pure estimate).
  KernelRateEstimator(double bandwidth_u, double prior_p,
                      double prior_weight = 0.0);

  // Observes one occurrence unit; `event` is the model's positive/negative
  // prediction for it. O(1).
  void Observe(bool event);

  // Observes `count` consecutive occurrence units of which `events` were
  // positive, assuming the positives are spread uniformly; used to ingest a
  // whole clip at once. Equivalent to `count` Observe() calls up to the
  // within-clip ordering of events. O(1).
  void ObserveBatch(int64_t count, int64_t events);

  // Current estimate p̂(t) in [0, 1].
  double rate() const;

  // Number of occurrence units observed.
  int64_t num_observed() const { return num_observed_; }

  double bandwidth() const { return bandwidth_u_; }

  // Checkpoint body (ckpt::Archive, DESIGN.md §10): the full mutable
  // state. Loading it into a freshly constructed estimator with the same
  // (bandwidth, prior) parameters resumes the identical trajectory.
  template <typename Archive>
  void Persist(Archive& ar) {
    ar.F64(event_weight_);
    ar.F64(total_weight_);
    ar.I64(num_observed_);
  }

 private:
  double bandwidth_u_;
  double prior_p_;
  double prior_weight_;
  double decay_;            // exp(-1/u), per-OU kernel decay.
  double event_weight_ = 0.0;  // Σ_events exp(-(t - t_n)/u).
  double total_weight_ = 0.0;  // Σ_OUs exp(-(t - t_j)/u).
  int64_t num_observed_ = 0;
};

// Literal implementation of the paper's Eq. 6 update (edge-corrected
// exponential kernel with the 1/(N* u) normalisation). For a constant
// background probability p its steady state is *proportional* to p but
// scaled by a bandwidth-dependent constant of order 1/u rather than equal
// to p; provided as a documented reference of the paper's printed
// recurrence (see DESIGN.md §1).
class Eq6Reference {
 public:
  explicit Eq6Reference(double bandwidth_u);

  // Advances the clock by `delta_t` occurrence units to the time of the
  // next event and applies Eq. 6 (decay of the old estimate plus the new
  // event's edge-corrected kernel mass).
  void OnEventAfter(int64_t delta_t);

  // Current p̂(t); multiply by the bandwidth u to compare against the true
  // Bernoulli probability.
  double value() const { return p_hat_; }
  int64_t time() const { return t_; }

 private:
  double bandwidth_u_;
  double p_hat_ = 0.0;
  int64_t t_ = 0;
};

}  // namespace scanstat
}  // namespace vaq

#endif  // VAQ_SCANSTAT_KERNEL_ESTIMATOR_H_
