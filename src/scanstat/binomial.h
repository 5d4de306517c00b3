// Binomial distribution helpers computed in log space for numerical
// robustness at the extreme tail probabilities scan statistics operate on
// (background probabilities down to 1e-6 and windows of hundreds of
// trials).
#ifndef VAQ_SCANSTAT_BINOMIAL_H_
#define VAQ_SCANSTAT_BINOMIAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vaq {
namespace scanstat {

// log P[Bin(n, p) = k]; -inf outside the support. p in [0, 1].
double LogBinomialPmf(int64_t k, int64_t n, double p);

// P[Bin(n, p) = k].
double BinomialPmf(int64_t k, int64_t n, double p);

// The Binomial(n, p) distribution, tabulated once so that many pmf/cdf
// lookups cost an array read instead of lgamma/log/exp per term.
//
// Every value is bit-identical to evaluating the distribution term by
// term: each pmf entry is exp(LogBinomialPmf(i, n, p)); Cdf sums whichever
// tail has fewer terms, the lower tail as an ascending prefix sum from 0
// and the upper tail ascending from the queried k (a shared suffix array
// would add in a different order and round differently). Immutable after
// construction, so concurrent readers need no synchronization.
class BinomialTable {
 public:
  // Requires n >= 0 and p in [0, 1].
  BinomialTable(int64_t n, double p);

  int64_t n() const { return n_; }

  // P[Bin(n, p) = k]; 0 outside the support.
  double Pmf(int64_t k) const {
    return k < 0 || k > n_ ? 0.0 : pmf_[static_cast<size_t>(k)];
  }

  // P[Bin(n, p) <= k]. Returns 0 for k < 0 and 1 for k >= n.
  double Cdf(int64_t k) const;

  // P[Bin(n, p) >= k] = 1 - Cdf(k - 1), summed from the upper tail so small
  // survival probabilities keep full relative precision.
  double Sf(int64_t k) const;

 private:
  int64_t n_;
  std::vector<double> pmf_;     // pmf_[i] for i in [0, n].
  std::vector<double> prefix_;  // pmf_[0] + ... + pmf_[k] for k <= n / 2.
};

}  // namespace scanstat
}  // namespace vaq

#endif  // VAQ_SCANSTAT_BINOMIAL_H_
