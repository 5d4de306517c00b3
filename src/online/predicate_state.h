// Per-literal adaptive state of the online engine (CnfStream): kernel
// background estimator, burstiness moments, and the lazily recomputed
// critical value. Internal to vaq_online.
#ifndef VAQ_ONLINE_PREDICATE_STATE_H_
#define VAQ_ONLINE_PREDICATE_STATE_H_

#include <algorithm>
#include <cmath>

#include "scanstat/critical_value.h"
#include "scanstat/kernel_estimator.h"
#include "scanstat/markov.h"

namespace vaq {
namespace online {
namespace internal_online {

// Tracks one predicate's background estimate and critical value.
struct PredicateState {
  scanstat::KernelRateEstimator estimator;
  scanstat::ScanConfig config;
  bool burst_aware = false;
  double p_at_last_compute = -1.0;
  int64_t kcrit = 0;
  // Positive rate in the most recent clip with successful observations;
  // feeds MissingObsPolicy::kCarryLast during detector outages.
  double last_observed_rate = 0.0;
  // Exponentially-weighted moments of background clip counts, used to
  // estimate the burstiness (design effect) when burst_aware is set.
  double count_weight = 0.0;
  double count_sum = 0.0;
  double count_sq_sum = 0.0;
  double window_sum = 0.0;

  PredicateState(double bandwidth, double prior_p, double prior_weight,
                 scanstat::ScanConfig cfg, bool burst_aware_in)
      : estimator(bandwidth, prior_p, prior_weight),
        config(cfg),
        burst_aware(burst_aware_in) {
    Recompute();
  }

  // Records one background clip's count for the overdispersion estimate
  // (decay keeps a horizon of a few hundred clips).
  void ObserveCount(int64_t count, int64_t units) {
    constexpr double kDecay = 0.995;
    count_weight = count_weight * kDecay + 1.0;
    count_sum = count_sum * kDecay + static_cast<double>(count);
    count_sq_sum = count_sq_sum * kDecay +
                   static_cast<double>(count) * static_cast<double>(count);
    window_sum = window_sum * kDecay + static_cast<double>(units);
  }

  // Lag-1 autocorrelation implied by the observed overdispersion of
  // background counts; 0 until enough clips have been seen.
  double EstimatedRho() const {
    if (count_weight < 20.0) return 0.0;
    const double mean = count_sum / count_weight;
    const double var =
        std::max(0.0, count_sq_sum / count_weight - mean * mean);
    const double w = window_sum / count_weight;
    const double p = std::clamp(mean / std::max(w, 1.0), 1e-9, 0.999);
    const double binomial_var = w * p * (1.0 - p);
    if (binomial_var <= 0.0) return 0.0;
    const double design = std::max(1.0, var / binomial_var);
    return std::clamp((design - 1.0) / (design + 1.0), 0.0, 0.95);
  }

  // Checkpoint body (ckpt::Archive, DESIGN.md §10). Doubles travel as
  // bit patterns, so a restored engine continues on the identical
  // floating-point trajectory. The conjunctive snapshot layout writes
  // both halves in one record; the CNF layout writes the estimate in its
  // v1 literal record and the moments in an appended one.
  template <typename Archive>
  void Persist(Archive& ar) {
    PersistEstimate(ar);
    PersistMoments(ar);
  }
  template <typename Archive>
  void PersistEstimate(Archive& ar) {
    estimator.Persist(ar);
    ar.F64(p_at_last_compute);
    ar.I64(kcrit);
  }
  template <typename Archive>
  void PersistMoments(Archive& ar) {
    ar.F64(last_observed_rate);
    ar.F64(count_weight);
    ar.F64(count_sum);
    ar.F64(count_sq_sum);
    ar.F64(window_sum);
  }

  void Recompute() {
    p_at_last_compute = estimator.rate();
    if (burst_aware) {
      kcrit = scanstat::MarkovCriticalValue(
          scanstat::MarkovParams::FromStationaryAndRho(p_at_last_compute,
                                                       EstimatedRho()),
          config);
    } else {
      kcrit = scanstat::CriticalValue(p_at_last_compute, config);
    }
  }

  // Recomputes the critical value if the estimate drifted beyond the
  // relative tolerance.
  void MaybeRecompute(double rel_tol) {
    const double p = estimator.rate();
    const double ref = std::max(p_at_last_compute, 1e-12);
    if (rel_tol <= 0.0 || std::fabs(p - p_at_last_compute) / ref > rel_tol) {
      Recompute();
    }
  }
};

}  // namespace internal_online
}  // namespace online
}  // namespace vaq

#endif  // VAQ_ONLINE_PREDICATE_STATE_H_
