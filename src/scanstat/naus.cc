#include "scanstat/naus.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "scanstat/binomial.h"

namespace vaq {
namespace scanstat {

NausTables::NausTables(int64_t w, double p) : w_(w), p_(p) {
  VAQ_CHECK_GE(w, 1);
  if (!(p > 0.0 && p < 1.0)) return;
  bins_.reserve(3);
  for (int64_t d = 0; d <= 2 && d <= w; ++d) bins_.emplace_back(w - d, p);
}

namespace {

// Clamps a computed probability into [0, 1]; the closed forms below can
// stray slightly outside through floating-point cancellation.
double ClampUnit(double x) { return std::min(1.0, std::max(0.0, x)); }

// Naus (1982) exact probability that no window of length w within 2w iid
// Bernoulli(p) trials contains k or more successes. Notation: b(j) and
// F(j) are the Binomial(w, p) pmf and cdf; F(j; n) the Binomial(n, p) cdf.
double Q2(int64_t k, const NausTables& t) {
  const int64_t w = t.w();
  const double p = t.p();
  if (k <= 0) return 0.0;
  if (k > w) return 1.0;  // A window of w trials cannot reach k successes.
  if (p <= 0.0) return 1.0;
  if (p >= 1.0) return 0.0;  // k <= w, so the all-success window hits k.
  if (k == 1) {
    // No success anywhere in the 2w trials.
    return std::exp(2.0 * static_cast<double>(w) * std::log1p(-p));
  }
  const BinomialTable& b = t.Bin(0);
  const double bk = b.Pmf(k);
  const double f_km1 = b.Cdf(k - 1);
  const double f_km2 = b.Cdf(k - 2);
  const double f_km3_w1 = t.Bin(1).Cdf(k - 3);
  const double wd = static_cast<double>(w);
  const double kd = static_cast<double>(k);
  const double q2 = f_km1 * f_km1 - (kd - 1.0) * bk * f_km2 +
                    wd * p * bk * f_km3_w1;
  return ClampUnit(q2);
}

// Naus (1982) exact probability that no window of length w within 3w iid
// Bernoulli(p) trials contains k or more successes.
double Q3(int64_t k, const NausTables& t) {
  const int64_t w = t.w();
  const double p = t.p();
  if (k <= 0) return 0.0;
  if (k > w) return 1.0;
  if (p <= 0.0) return 1.0;
  if (p >= 1.0) return 0.0;
  if (k == 1) {
    return std::exp(3.0 * static_cast<double>(w) * std::log1p(-p));
  }
  const BinomialTable& b = t.Bin(0);
  const BinomialTable& b_w1 = t.Bin(1);
  const double wd = static_cast<double>(w);
  const double kd = static_cast<double>(k);
  const double bk = b.Pmf(k);
  const double f_km1 = b.Cdf(k - 1);
  const double f_km2 = b.Cdf(k - 2);
  const double f_km3 = b.Cdf(k - 3);
  const double f_km3_w1 = b_w1.Cdf(k - 3);
  const double f_km4_w1 = b_w1.Cdf(k - 4);
  const double f_km5_w2 = w >= 2 ? t.Bin(2).Cdf(k - 5) : 0.0;

  const double a1 =
      2.0 * bk * f_km1 * ((kd - 1.0) * f_km2 - wd * p * f_km3_w1);
  const double a2 =
      0.5 * bk * bk *
      ((kd - 1.0) * (kd - 2.0) * f_km3 -
       2.0 * (kd - 2.0) * wd * p * f_km4_w1 +
       wd * (wd - 1.0) * p * p * f_km5_w2);
  double a3 = 0.0;
  for (int64_t r = 1; r <= k - 1; ++r) {
    const double b2kr = b.Pmf(2 * k - r);
    if (b2kr == 0.0) continue;
    const double fr1 = b.Cdf(r - 1);
    a3 += b2kr * fr1 * fr1;
  }
  double a4 = 0.0;
  for (int64_t r = 2; r <= k - 1; ++r) {
    const double b2kr = b.Pmf(2 * k - r);
    if (b2kr == 0.0) continue;
    const double br = b.Pmf(r);
    const double rd = static_cast<double>(r);
    a4 += b2kr * br *
          ((rd - 1.0) * b.Cdf(r - 2) - wd * p * b_w1.Cdf(r - 3));
  }
  const double q3 = f_km1 * f_km1 * f_km1 - a1 + a2 + a3 - a4;
  return ClampUnit(q3);
}

}  // namespace

double NausQ2(int64_t k, int64_t w, double p) {
  return Q2(k, NausTables(w, p));
}

double NausQ3(int64_t k, int64_t w, double p) {
  return Q3(k, NausTables(w, p));
}

double ScanStatisticTailProbability(int64_t k, double p, int64_t w,
                                    double L) {
  return ScanStatisticTailProbability(k, NausTables(w, p), L);
}

double ScanStatisticTailProbability(int64_t k, const NausTables& tables,
                                    double L) {
  const int64_t w = tables.w();
  const double p = tables.p();
  if (k <= 0) return 1.0;
  if (k > w) return 0.0;
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 1.0;
  const double n_trials = std::max(L, 1.0) * static_cast<double>(w);
  if (k == 1) {
    // Exact: at least one success among N trials.
    return ClampUnit(-std::expm1(n_trials * std::log1p(-p)));
  }
  const double q2 = Q2(k, tables);
  if (q2 <= 0.0) return 1.0;
  const double q3 = Q3(k, tables);
  const double ratio = ClampUnit(q3 / q2);
  const double eff_l = std::max(L, 2.0);
  // P(S_w(N) < k) ≈ Q2 * (Q3/Q2)^(L-2); compute the power in log space.
  const double log_no_hit =
      std::log(q2) + (eff_l - 2.0) * std::log(std::max(ratio, 1e-300));
  return ClampUnit(-std::expm1(log_no_hit));
}

double ExactScanTailProbabilityDp(int64_t k, double p, int64_t w,
                                  int64_t n) {
  VAQ_CHECK_GE(w, 1);
  VAQ_CHECK_LE(w, 20);
  VAQ_CHECK_GE(n, 0);
  if (k <= 0) return 1.0;
  if (k > w || n < k) return 0.0;
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 1.0;

  const uint64_t num_states = uint64_t{1} << w;
  const uint64_t mask_all = num_states - 1;
  // prob[m]: probability the last w outcomes equal bitmask m (zero-padded
  // at the start) and no window so far reached k successes.
  std::vector<double> prob(num_states, 0.0);
  std::vector<double> next(num_states, 0.0);
  prob[0] = 1.0;
  double hit = 0.0;
  for (int64_t t = 0; t < n; ++t) {
    std::fill(next.begin(), next.end(), 0.0);
    for (uint64_t m = 0; m < num_states; ++m) {
      const double pm = prob[m];
      if (pm == 0.0) continue;
      // Outcome 0.
      const uint64_t m0 = (m << 1) & mask_all;
      next[m0] += pm * (1.0 - p);
      // Outcome 1.
      const uint64_t m1 = m0 | 1u;
      if (std::popcount(m1) >= k) {
        hit += pm * p;
      } else {
        next[m1] += pm * p;
      }
    }
    prob.swap(next);
  }
  return ClampUnit(hit);
}

double MonteCarloScanTailProbability(int64_t k, double p, int64_t w,
                                     int64_t n, int64_t trials,
                                     uint64_t seed) {
  VAQ_CHECK_GE(w, 1);
  VAQ_CHECK_GT(trials, 0);
  if (k <= 0) return 1.0;
  if (k > w || n < k) return 0.0;
  Rng rng(seed);
  std::vector<uint8_t> window(static_cast<size_t>(w), 0);
  int64_t hits = 0;
  for (int64_t trial = 0; trial < trials; ++trial) {
    std::fill(window.begin(), window.end(), 0);
    int64_t count = 0;
    bool hit = false;
    for (int64_t t = 0; t < n; ++t) {
      const size_t slot = static_cast<size_t>(t % w);
      count -= window[slot];
      window[slot] = rng.Bernoulli(p) ? 1 : 0;
      count += window[slot];
      if (count >= k) {
        hit = true;
        break;
      }
    }
    if (hit) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(trials);
}

}  // namespace scanstat
}  // namespace vaq
