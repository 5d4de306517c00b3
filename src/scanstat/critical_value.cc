#include "scanstat/critical_value.h"

#include <sstream>

#include "common/logging.h"
#include "scanstat/naus.h"

namespace vaq {
namespace scanstat {

std::string ScanConfig::ToString() const {
  std::ostringstream os;
  os << "ScanConfig{w=" << window << ", N=" << horizon << ", alpha=" << alpha
     << "}";
  return os.str();
}

int64_t CriticalValue(double p, const ScanConfig& config) {
  VAQ_CHECK_GE(config.window, 1);
  VAQ_CHECK_GE(config.horizon, config.window);
  VAQ_CHECK_GT(config.alpha, 0.0);
  VAQ_CHECK_LT(config.alpha, 1.0);
  const int64_t w = config.window;
  const double L = config.L();
  // Every probe of the search reads the same Binomial(w, p) family, so
  // tabulate it once.
  const NausTables tables(w, p);
  // The tail probability is non-increasing in k, so binary search for the
  // first k meeting the significance level.
  int64_t lo = 1;       // Smallest candidate.
  int64_t hi = w + 1;   // Sentinel: "never significant".
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    const double tail = ScanStatisticTailProbability(mid, tables, L);
    if (tail <= config.alpha) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace scanstat
}  // namespace vaq
