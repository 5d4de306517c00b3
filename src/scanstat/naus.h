// Naus' approximation for the distribution of the discrete scan statistic.
//
// Setting (§3.2 of the paper): N Bernoulli(p) trials ("occurrence units");
// S_w(N) is the maximum number of successes in any window of w consecutive
// trials. The paper relies on Naus (1982) [35]:
//
//   P(S_w(N) >= k | p, w, L) ≈ 1 - Q2 * (Q3 / Q2)^(L-2),   L = N / w,
//
// where Q2 = P(S_w(2w) < k) and Q3 = P(S_w(3w) < k) are computed *exactly*
// via Naus' closed forms in terms of binomial pmf/cdf values. This module
// implements those closed forms, the approximation, and exact/Monte-Carlo
// reference computations used to validate them in tests.
#ifndef VAQ_SCANSTAT_NAUS_H_
#define VAQ_SCANSTAT_NAUS_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "scanstat/binomial.h"

namespace vaq {
namespace scanstat {

// The Binomial(n, p) tables for n = w, w - 1 and w - 2: every pmf and cdf
// value the Naus closed forms read for window w. Building them costs O(w)
// exps; each closed-form evaluation afterwards is lookups and sums, so a
// caller evaluating many k for one (w, p) — the critical-value search —
// builds them once. For p outside (0, 1) the closed forms return before
// reading a table, and none is built. Immutable after construction.
class NausTables {
 public:
  // Requires w >= 1.
  NausTables(int64_t w, double p);

  int64_t w() const { return w_; }
  double p() const { return p_; }
  // Binomial(w - d, p) for d in {0, 1, 2}; exists for 0 < p < 1 and
  // w - d >= 0 (a NaN p fails here, as it fails LogBinomialPmf).
  const BinomialTable& Bin(int64_t d) const {
    VAQ_CHECK_LT(d, static_cast<int64_t>(bins_.size())) << "p=" << p_;
    return bins_[static_cast<size_t>(d)];
  }

 private:
  int64_t w_;
  double p_;
  std::vector<BinomialTable> bins_;
};

// Exact P(S_w(2w) < k) for iid Bernoulli(p) trials (Naus 1982).
// Requires w >= 1, 0 <= p <= 1. Defined for k >= 1; returns 0 for k <= 0.
double NausQ2(int64_t k, int64_t w, double p);

// Exact P(S_w(3w) < k) for iid Bernoulli(p) trials (Naus 1982).
double NausQ3(int64_t k, int64_t w, double p);

// Approximate P(S_w(N) >= k) for N = L * w trials (L may be fractional and
// is clamped to >= 2). Exact in the special cases k <= 0 (-> 1), k > w
// (-> 0; a window of w trials cannot hold more than w successes), k == 1
// (-> 1 - (1-p)^N exactly), p == 0 (-> 0) and p == 1 (-> 1 for k <= w).
double ScanStatisticTailProbability(int64_t k, double p, int64_t w, double L);

// The same tail probability for (w, p) = (tables.w(), tables.p()) over
// prebuilt tables; the overload above builds them per call.
double ScanStatisticTailProbability(int64_t k, const NausTables& tables,
                                    double L);

// Exact P(S_w(N) >= k) by dynamic programming over the window bit-state.
// O(N * 2^w) time; requires 1 <= w <= 20. Reference implementation for
// tests and small problems.
double ExactScanTailProbabilityDp(int64_t k, double p, int64_t w, int64_t n);

// Monte-Carlo estimate of P(S_w(N) >= k) using `trials` simulated
// sequences; deterministic given `seed`.
double MonteCarloScanTailProbability(int64_t k, double p, int64_t w,
                                     int64_t n, int64_t trials,
                                     uint64_t seed);

}  // namespace scanstat
}  // namespace vaq

#endif  // VAQ_SCANSTAT_NAUS_H_
