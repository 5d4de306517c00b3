// Per-term reference implementation of the scan-statistic kernel.
//
// This is the kernel as it was before the table-driven rewrite in
// binomial.cc / naus.cc / critical_value.cc: every binomial pmf term is
// recomputed from lgamma/log/exp on every call, and every cdf is a fresh
// summation. It is kept verbatim, outside the vaq_scanstat library, for
// two jobs only:
//   * the bit-identity tests, which require the table kernel to return
//     the very same doubles (and hence the same critical values);
//   * the in-process speedup ratio in bench_micro_kernels.
// Nothing in the serving path links it.
#ifndef VAQ_SCANSTAT_REFERENCE_H_
#define VAQ_SCANSTAT_REFERENCE_H_

#include <cstdint>

#include "scanstat/critical_value.h"

namespace vaq {
namespace scanstat {
namespace reference {

double LogBinomialPmf(int64_t k, int64_t n, double p);
double BinomialPmf(int64_t k, int64_t n, double p);
double BinomialCdf(int64_t k, int64_t n, double p);
double BinomialSf(int64_t k, int64_t n, double p);

double NausQ2(int64_t k, int64_t w, double p);
double NausQ3(int64_t k, int64_t w, double p);
double ScanStatisticTailProbability(int64_t k, double p, int64_t w, double L);

int64_t CriticalValue(double p, const ScanConfig& config);

}  // namespace reference
}  // namespace scanstat
}  // namespace vaq

#endif  // VAQ_SCANSTAT_REFERENCE_H_
