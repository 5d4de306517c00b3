#include "scanstat/reference.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"

namespace vaq {
namespace scanstat {
namespace reference {
namespace {

double ClampUnit(double x) { return std::min(1.0, std::max(0.0, x)); }

}  // namespace

double LogBinomialPmf(int64_t k, int64_t n, double p) {
  VAQ_CHECK_GE(n, 0);
  VAQ_CHECK_GE(p, 0.0);
  VAQ_CHECK_LE(p, 1.0);
  if (k < 0 || k > n) return kNegInf;
  if (p == 0.0) return k == 0 ? 0.0 : kNegInf;
  if (p == 1.0) return k == n ? 0.0 : kNegInf;
  return LogChoose(n, k) + static_cast<double>(k) * std::log(p) +
         static_cast<double>(n - k) * std::log1p(-p);
}

double BinomialPmf(int64_t k, int64_t n, double p) {
  return std::exp(LogBinomialPmf(k, n, p));
}

double BinomialCdf(int64_t k, int64_t n, double p) {
  if (k < 0) return 0.0;
  if (k >= n) return 1.0;
  if (k <= n / 2) {
    double sum = 0.0;
    for (int64_t i = 0; i <= k; ++i) sum += BinomialPmf(i, n, p);
    return std::min(1.0, sum);
  }
  return std::max(0.0, 1.0 - BinomialSf(k + 1, n, p));
}

double BinomialSf(int64_t k, int64_t n, double p) {
  if (k <= 0) return 1.0;
  if (k > n) return 0.0;
  if (k <= n / 2) {
    return std::max(0.0, 1.0 - BinomialCdf(k - 1, n, p));
  }
  double sum = 0.0;
  for (int64_t i = k; i <= n; ++i) sum += BinomialPmf(i, n, p);
  return std::min(1.0, sum);
}

double NausQ2(int64_t k, int64_t w, double p) {
  VAQ_CHECK_GE(w, 1);
  if (k <= 0) return 0.0;
  if (k > w) return 1.0;
  if (p <= 0.0) return 1.0;
  if (p >= 1.0) return 0.0;
  if (k == 1) {
    return std::exp(2.0 * static_cast<double>(w) * std::log1p(-p));
  }
  const double bk = BinomialPmf(k, w, p);
  const double f_km1 = BinomialCdf(k - 1, w, p);
  const double f_km2 = BinomialCdf(k - 2, w, p);
  const double f_km3_w1 = BinomialCdf(k - 3, w - 1, p);
  const double wd = static_cast<double>(w);
  const double kd = static_cast<double>(k);
  const double q2 = f_km1 * f_km1 - (kd - 1.0) * bk * f_km2 +
                    wd * p * bk * f_km3_w1;
  return ClampUnit(q2);
}

double NausQ3(int64_t k, int64_t w, double p) {
  VAQ_CHECK_GE(w, 1);
  if (k <= 0) return 0.0;
  if (k > w) return 1.0;
  if (p <= 0.0) return 1.0;
  if (p >= 1.0) return 0.0;
  if (k == 1) {
    return std::exp(3.0 * static_cast<double>(w) * std::log1p(-p));
  }
  const double wd = static_cast<double>(w);
  const double kd = static_cast<double>(k);
  const double bk = BinomialPmf(k, w, p);
  const double f_km1 = BinomialCdf(k - 1, w, p);
  const double f_km2 = BinomialCdf(k - 2, w, p);
  const double f_km3 = BinomialCdf(k - 3, w, p);
  const double f_km3_w1 = BinomialCdf(k - 3, w - 1, p);
  const double f_km4_w1 = BinomialCdf(k - 4, w - 1, p);
  const double f_km5_w2 = w >= 2 ? BinomialCdf(k - 5, w - 2, p) : 0.0;

  const double a1 =
      2.0 * bk * f_km1 * ((kd - 1.0) * f_km2 - wd * p * f_km3_w1);
  const double a2 =
      0.5 * bk * bk *
      ((kd - 1.0) * (kd - 2.0) * f_km3 -
       2.0 * (kd - 2.0) * wd * p * f_km4_w1 +
       wd * (wd - 1.0) * p * p * f_km5_w2);
  double a3 = 0.0;
  for (int64_t r = 1; r <= k - 1; ++r) {
    const double b2kr = BinomialPmf(2 * k - r, w, p);
    if (b2kr == 0.0) continue;
    const double fr1 = BinomialCdf(r - 1, w, p);
    a3 += b2kr * fr1 * fr1;
  }
  double a4 = 0.0;
  for (int64_t r = 2; r <= k - 1; ++r) {
    const double b2kr = BinomialPmf(2 * k - r, w, p);
    if (b2kr == 0.0) continue;
    const double br = BinomialPmf(r, w, p);
    const double rd = static_cast<double>(r);
    a4 += b2kr * br *
          ((rd - 1.0) * BinomialCdf(r - 2, w, p) -
           wd * p * BinomialCdf(r - 3, w - 1, p));
  }
  const double q3 = f_km1 * f_km1 * f_km1 - a1 + a2 + a3 - a4;
  return ClampUnit(q3);
}

double ScanStatisticTailProbability(int64_t k, double p, int64_t w,
                                    double L) {
  VAQ_CHECK_GE(w, 1);
  if (k <= 0) return 1.0;
  if (k > w) return 0.0;
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 1.0;
  const double n_trials = std::max(L, 1.0) * static_cast<double>(w);
  if (k == 1) {
    return ClampUnit(-std::expm1(n_trials * std::log1p(-p)));
  }
  const double q2 = NausQ2(k, w, p);
  if (q2 <= 0.0) return 1.0;
  const double q3 = NausQ3(k, w, p);
  const double ratio = ClampUnit(q3 / q2);
  const double eff_l = std::max(L, 2.0);
  const double log_no_hit =
      std::log(q2) + (eff_l - 2.0) * std::log(std::max(ratio, 1e-300));
  return ClampUnit(-std::expm1(log_no_hit));
}

int64_t CriticalValue(double p, const ScanConfig& config) {
  VAQ_CHECK_GE(config.window, 1);
  VAQ_CHECK_GE(config.horizon, config.window);
  VAQ_CHECK_GT(config.alpha, 0.0);
  VAQ_CHECK_LT(config.alpha, 1.0);
  const int64_t w = config.window;
  const double L = config.L();
  int64_t lo = 1;
  int64_t hi = w + 1;
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    const double tail = ScanStatisticTailProbability(mid, p, w, L);
    if (tail <= config.alpha) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace reference
}  // namespace scanstat
}  // namespace vaq
