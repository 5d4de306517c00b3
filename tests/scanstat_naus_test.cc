#include "scanstat/naus.h"

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "scanstat/binomial.h"

namespace vaq {
namespace scanstat {
namespace {

TEST(BinomialTest, PmfMatchesClosedFormSmallCases) {
  EXPECT_NEAR(BinomialPmf(0, 4, 0.5), 1.0 / 16.0, 1e-12);
  EXPECT_NEAR(BinomialPmf(2, 4, 0.5), 6.0 / 16.0, 1e-12);
  EXPECT_NEAR(BinomialPmf(4, 4, 0.5), 1.0 / 16.0, 1e-12);
  EXPECT_NEAR(BinomialPmf(1, 3, 0.2), 3 * 0.2 * 0.64, 1e-12);
}

TEST(BinomialTest, PmfSumsToOne) {
  for (double p : {0.001, 0.1, 0.5, 0.9}) {
    for (int64_t n : {1, 5, 40}) {
      double sum = 0.0;
      for (int64_t k = 0; k <= n; ++k) sum += BinomialPmf(k, n, p);
      EXPECT_NEAR(sum, 1.0, 1e-10) << "n=" << n << " p=" << p;
    }
  }
}

TEST(BinomialTest, CdfPlusSfIsConsistent) {
  for (double p : {0.01, 0.3, 0.7}) {
    for (int64_t n : {6, 25}) {
      const BinomialTable table(n, p);
      for (int64_t k = 0; k <= n; ++k) {
        EXPECT_NEAR(table.Cdf(k) + table.Sf(k + 1), 1.0, 1e-10);
      }
    }
  }
}

TEST(BinomialTest, DegenerateProbabilities) {
  EXPECT_DOUBLE_EQ(BinomialPmf(0, 10, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(3, 10, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(10, 10, 1.0), 1.0);
  const BinomialTable half(10, 0.5);
  EXPECT_DOUBLE_EQ(half.Cdf(-1), 0.0);
  EXPECT_DOUBLE_EQ(half.Cdf(10), 1.0);
  EXPECT_DOUBLE_EQ(half.Sf(0), 1.0);
  EXPECT_DOUBLE_EQ(half.Sf(11), 0.0);
  EXPECT_DOUBLE_EQ(half.Pmf(-1), 0.0);
  EXPECT_DOUBLE_EQ(half.Pmf(11), 0.0);
  EXPECT_DOUBLE_EQ(BinomialTable(10, 0.0).Pmf(0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialTable(10, 1.0).Pmf(10), 1.0);
  EXPECT_DOUBLE_EQ(BinomialTable(10, 1.0).Cdf(9), 0.0);
}

// ---------------------------------------------------------------------------
// The heart of the reproduction: Naus' closed forms for Q2 = P(S_w(2w) < k)
// and Q3 = P(S_w(3w) < k) must agree with the exact DP.
// ---------------------------------------------------------------------------

class NausExactness
    : public ::testing::TestWithParam<std::tuple<int64_t, double>> {};

TEST_P(NausExactness, Q2MatchesExactDp) {
  const auto [w, p] = GetParam();
  for (int64_t k = 1; k <= w; ++k) {
    const double exact = 1.0 - ExactScanTailProbabilityDp(k, p, w, 2 * w);
    const double closed = NausQ2(k, w, p);
    EXPECT_NEAR(closed, exact, 1e-9)
        << "w=" << w << " p=" << p << " k=" << k;
  }
}

TEST_P(NausExactness, Q3MatchesExactDp) {
  const auto [w, p] = GetParam();
  for (int64_t k = 1; k <= w; ++k) {
    const double exact = 1.0 - ExactScanTailProbabilityDp(k, p, w, 3 * w);
    const double closed = NausQ3(k, w, p);
    EXPECT_NEAR(closed, exact, 1e-9)
        << "w=" << w << " p=" << p << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NausExactness,
    ::testing::Combine(::testing::Values<int64_t>(2, 3, 5, 8, 12),
                       ::testing::Values(0.001, 0.05, 0.2, 0.5, 0.8)));

TEST(NausTest, ApproximationTracksExactDpForLongerSequences) {
  // L > 3: the approximation is no longer exact but should be close for
  // moderate tail probabilities.
  for (int64_t w : {5, 10}) {
    for (double p : {0.02, 0.1}) {
      for (int64_t L : {5, 10, 20}) {
        const int64_t n = L * w;
        for (int64_t k = 2; k <= w; ++k) {
          const double exact = ExactScanTailProbabilityDp(k, p, w, n);
          const double approx = ScanStatisticTailProbability(
              k, p, w, static_cast<double>(L));
          // Absolute tolerance scaled for mid-range probabilities; the
          // approximation is known to be sharp in the small-tail regime.
          EXPECT_NEAR(approx, exact, 0.02)
              << "w=" << w << " p=" << p << " L=" << L << " k=" << k;
          if (exact < 0.05 && exact > 1e-9) {
            EXPECT_LT(std::fabs(approx - exact) / exact, 0.15)
                << "w=" << w << " p=" << p << " L=" << L << " k=" << k;
          }
        }
      }
    }
  }
}

TEST(NausTest, ApproximationMatchesMonteCarlo) {
  const int64_t w = 25;
  const int64_t n = 2500;
  const double L = 100.0;
  for (double p : {0.01, 0.05}) {
    for (int64_t k : {4, 6, 8}) {
      const double approx = ScanStatisticTailProbability(k, p, w, L);
      const double mc =
          MonteCarloScanTailProbability(k, p, w, n, 20000, 0xc0ffee);
      const double sigma = std::sqrt(std::max(mc * (1 - mc), 1e-6) / 20000);
      EXPECT_NEAR(approx, mc, 4 * sigma + 0.01)
          << "p=" << p << " k=" << k;
    }
  }
}

TEST(NausTest, TailProbabilityEdgeCases) {
  EXPECT_DOUBLE_EQ(ScanStatisticTailProbability(0, 0.1, 10, 5), 1.0);
  EXPECT_DOUBLE_EQ(ScanStatisticTailProbability(11, 0.1, 10, 5), 0.0);
  EXPECT_DOUBLE_EQ(ScanStatisticTailProbability(3, 0.0, 10, 5), 0.0);
  EXPECT_DOUBLE_EQ(ScanStatisticTailProbability(3, 1.0, 10, 5), 1.0);
  // k = 1 is exact: 1 - (1-p)^N.
  const double p = 0.01;
  const double expected = 1.0 - std::pow(1.0 - p, 50.0);
  EXPECT_NEAR(ScanStatisticTailProbability(1, p, 10, 5.0), expected, 1e-12);
}

TEST(NausTest, TailProbabilityMonotoneInK) {
  for (double p : {0.01, 0.2}) {
    double prev = 2.0;
    for (int64_t k = 0; k <= 21; ++k) {
      const double tail = ScanStatisticTailProbability(k, p, 20, 50.0);
      EXPECT_LE(tail, prev + 1e-12) << "k=" << k << " p=" << p;
      prev = tail;
    }
  }
}

TEST(NausTest, TailProbabilityMonotoneInP) {
  for (int64_t k : {3, 7}) {
    double prev = -1.0;
    for (double p : {0.001, 0.01, 0.05, 0.1, 0.3, 0.6}) {
      const double tail = ScanStatisticTailProbability(k, p, 20, 50.0);
      EXPECT_GE(tail, prev - 1e-9) << "k=" << k << " p=" << p;
      prev = tail;
    }
  }
}

TEST(NausTest, Q2Q3OrderingAndRange) {
  // More trials can only make a k-in-window hit more likely, so Q3 <= Q2.
  for (int64_t w : {4, 9, 15}) {
    for (double p : {0.01, 0.2, 0.5}) {
      for (int64_t k = 1; k <= w; ++k) {
        const double q2 = NausQ2(k, w, p);
        const double q3 = NausQ3(k, w, p);
        EXPECT_GE(q2, 0.0);
        EXPECT_LE(q2, 1.0);
        EXPECT_GE(q3, 0.0);
        EXPECT_LE(q3, 1.0);
        EXPECT_LE(q3, q2 + 1e-9) << "w=" << w << " p=" << p << " k=" << k;
      }
    }
  }
}

TEST(MonteCarloTest, AgreesWithExactDp) {
  const double mc =
      MonteCarloScanTailProbability(3, 0.1, 8, 80, 40000, 1234);
  const double exact = ExactScanTailProbabilityDp(3, 0.1, 8, 80);
  EXPECT_NEAR(mc, exact, 0.02);
}

}  // namespace
}  // namespace scanstat
}  // namespace vaq
