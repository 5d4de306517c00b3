#include "scanstat/binomial.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"

namespace vaq {
namespace scanstat {
namespace {

// log(i!) for i below this bound comes from a process-wide table; larger
// arguments fall back to lgamma, which returns the same values. 4096
// entries (32 KB) cover the default 100-frame clip window many times
// over.
constexpr int64_t kLogFactorialCacheSize = 4096;

// The cache holds exactly the doubles LogChoose computes, so pmf terms are
// unchanged. It is built once (thread-safe static initialization) and is
// read-only afterwards: concurrent critical-value searches share it
// without a lock.
const std::vector<double>& LogFactorialCache() {
  static const std::vector<double> cache = [] {
    std::vector<double> c(static_cast<size_t>(kLogFactorialCacheSize));
    for (int64_t i = 0; i < kLogFactorialCacheSize; ++i) {
      c[static_cast<size_t>(i)] =
          LogGammaPositive(static_cast<double>(i) + 1.0);
    }
    return c;
  }();
  return cache;
}

double LogFactorial(const std::vector<double>& cache, int64_t i) {
  return i < kLogFactorialCacheSize
             ? cache[static_cast<size_t>(i)]
             : LogGammaPositive(static_cast<double>(i) + 1.0);
}

// log P[Bin(n, p) = k] for 0 <= k <= n and 0 < p < 1, given log(p) and
// log1p(-p). Same terms in the same order as
// LogChoose(n, k) + k log(p) + (n - k) log1p(-p).
double LogPmfTerm(const std::vector<double>& cache, int64_t k, int64_t n,
                  double log_p, double log1m_p) {
  return LogFactorial(cache, n) - LogFactorial(cache, k) -
         LogFactorial(cache, n - k) + static_cast<double>(k) * log_p +
         static_cast<double>(n - k) * log1m_p;
}

}  // namespace

double LogBinomialPmf(int64_t k, int64_t n, double p) {
  VAQ_CHECK_GE(n, 0);
  VAQ_CHECK_GE(p, 0.0);
  VAQ_CHECK_LE(p, 1.0);
  if (k < 0 || k > n) return kNegInf;
  if (p == 0.0) return k == 0 ? 0.0 : kNegInf;
  if (p == 1.0) return k == n ? 0.0 : kNegInf;
  return LogPmfTerm(LogFactorialCache(), k, n, std::log(p), std::log1p(-p));
}

double BinomialPmf(int64_t k, int64_t n, double p) {
  return std::exp(LogBinomialPmf(k, n, p));
}

BinomialTable::BinomialTable(int64_t n, double p)
    : n_(n), pmf_(static_cast<size_t>(n + 1), 0.0) {
  VAQ_CHECK_GE(n, 0);
  VAQ_CHECK_GE(p, 0.0);
  VAQ_CHECK_LE(p, 1.0);
  if (p == 0.0) {
    pmf_.front() = 1.0;
  } else if (p == 1.0) {
    pmf_.back() = 1.0;
  } else {
    const std::vector<double>& cache = LogFactorialCache();
    const double log_p = std::log(p);
    const double log1m_p = std::log1p(-p);
    for (int64_t i = 0; i <= n; ++i) {
      pmf_[static_cast<size_t>(i)] =
          std::exp(LogPmfTerm(cache, i, n, log_p, log1m_p));
    }
  }
  // The lower-tail sums, accumulated in the order a per-k loop from 0
  // would add them.
  prefix_.resize(static_cast<size_t>(n / 2 + 1));
  double sum = 0.0;
  for (size_t i = 0; i < prefix_.size(); ++i) {
    sum += pmf_[i];
    prefix_[i] = sum;
  }
}

double BinomialTable::Cdf(int64_t k) const {
  if (k < 0) return 0.0;
  if (k >= n_) return 1.0;
  // Sum whichever tail has fewer terms; both stay accurate because each
  // pmf term was evaluated independently in log space.
  if (k <= n_ / 2) return std::min(1.0, prefix_[static_cast<size_t>(k)]);
  return std::max(0.0, 1.0 - Sf(k + 1));
}

double BinomialTable::Sf(int64_t k) const {
  if (k <= 0) return 1.0;
  if (k > n_) return 0.0;
  if (k <= n_ / 2) return std::max(0.0, 1.0 - Cdf(k - 1));
  double sum = 0.0;
  for (int64_t i = k; i <= n_; ++i) sum += pmf_[static_cast<size_t>(i)];
  return std::min(1.0, sum);
}

}  // namespace scanstat
}  // namespace vaq
