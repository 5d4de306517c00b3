#include "scanstat/critical_value.h"

#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "scanstat/binomial.h"
#include "scanstat/naus.h"
#include "scanstat/reference.h"

namespace vaq {
namespace scanstat {
namespace {

ScanConfig Config(int64_t w, int64_t n, double alpha) {
  ScanConfig c;
  c.window = w;
  c.horizon = n;
  c.alpha = alpha;
  return c;
}

TEST(CriticalValueTest, DefinitionHolds) {
  // k_crit is the smallest k with tail <= alpha: verify both sides.
  for (double p : {0.001, 0.01, 0.05, 0.2}) {
    for (int64_t w : {5, 50, 100}) {
      const ScanConfig config = Config(w, 100 * w, 0.01);
      const int64_t k = CriticalValue(p, config);
      ASSERT_GE(k, 1);
      ASSERT_LE(k, w + 1);
      if (k <= w) {
        EXPECT_LE(ScanStatisticTailProbability(k, p, w, config.L()), 0.01)
            << "p=" << p << " w=" << w;
      }
      if (k > 1) {
        EXPECT_GT(ScanStatisticTailProbability(k - 1, p, w, config.L()),
                  0.01)
            << "p=" << p << " w=" << w;
      }
    }
  }
}

TEST(CriticalValueTest, MonotoneInBackgroundProbability) {
  const ScanConfig config = Config(50, 100000, 0.01);
  int64_t prev = 0;
  for (double p : {1e-6, 1e-4, 1e-3, 1e-2, 0.05, 0.2, 0.5, 0.9}) {
    const int64_t k = CriticalValue(p, config);
    EXPECT_GE(k, prev) << "p=" << p;
    prev = k;
  }
}

TEST(CriticalValueTest, MonotoneInAlpha) {
  // Stricter significance demands more evidence.
  int64_t prev = 1000;
  for (double alpha : {1e-6, 1e-4, 0.01, 0.1, 0.5}) {
    const int64_t k = CriticalValue(0.02, Config(50, 100000, alpha));
    EXPECT_LE(k, prev) << "alpha=" << alpha;
    prev = k;
  }
}

TEST(CriticalValueTest, MonotoneInHorizon) {
  // Longer streams mean more windows to test: k_crit cannot shrink.
  int64_t prev = 0;
  for (int64_t horizon : {100L, 1000L, 10000L, 1000000L}) {
    const int64_t k = CriticalValue(0.02, Config(50, horizon, 0.01));
    EXPECT_GE(k, prev) << "horizon=" << horizon;
    prev = k;
  }
}

TEST(CriticalValueTest, ZeroBackgroundNeedsSingleEvent) {
  EXPECT_EQ(CriticalValue(0.0, Config(50, 100000, 0.01)), 1);
}

TEST(CriticalValueTest, SaturatedBackgroundIsNeverSignificant) {
  EXPECT_EQ(CriticalValue(1.0, Config(50, 100000, 0.01)), 51);
  EXPECT_EQ(CriticalValue(0.95, Config(10, 100000, 0.001)), 11);
}

TEST(CriticalValueTest, WindowOfOne) {
  // With w = 1 the only possible counts are 0 and 1.
  const int64_t k = CriticalValue(1e-9, Config(1, 1000, 0.01));
  EXPECT_EQ(k, 1);
  EXPECT_EQ(CriticalValue(0.5, Config(1, 1000, 0.01)), 2);
}

// ---------------------------------------------------------------------------
// Bit identity of the table-driven kernel against the retained per-term
// reference. The grid is the one the kernel was sized on: w = 1..200, 12
// background probabilities in [1e-4, 0.8] and three significance levels,
// plus degenerate probabilities. The reference costs O(k^2) lgamma calls
// per tail probability, so to stay within a tier-1 budget the windows are
// sampled — every small window, a fixed stride beyond — and the sample is
// the same on every run.
// ---------------------------------------------------------------------------

constexpr double kGridP[] = {1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.02,
                             0.05, 0.1,  0.2,  0.35, 0.5,  0.8};
constexpr double kGridAlpha[] = {0.05, 0.01, 0.001};
constexpr double kEdgeP[] = {0.0, 1e-12, 1.0 - 1e-12, 1.0};
constexpr int64_t kHorizon = 100000;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Windows for the critical-value grid: every w up to 40, then every 9th
// up to the grid's end at 200.
std::vector<int64_t> GridWindows() {
  std::vector<int64_t> ws;
  for (int64_t w = 1; w <= 40; ++w) ws.push_back(w);
  for (int64_t w = 47; w <= 200; w += 9) ws.push_back(w);
  return ws;
}

// Windows for the full k = 0..w+1 tail sweep, whose reference cost grows
// like w^3: every w up to 24, then a few reaching the grid's end.
std::vector<int64_t> SweepWindows() {
  std::vector<int64_t> ws;
  for (int64_t w = 1; w <= 24; ++w) ws.push_back(w);
  for (int64_t w : {40, 64, 101, 200}) ws.push_back(w);
  return ws;
}

TEST(TableKernelBitIdentityTest, CriticalValueMatchesReferenceOnGrid) {
  int64_t checked = 0;
  for (int64_t w : GridWindows()) {
    for (double p : kGridP) {
      for (double alpha : kGridAlpha) {
        const ScanConfig config = Config(w, kHorizon, alpha);
        ASSERT_EQ(CriticalValue(p, config),
                  reference::CriticalValue(p, config))
            << "w=" << w << " p=" << p << " alpha=" << alpha;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 58 * 12 * 3);
}

TEST(TableKernelBitIdentityTest, CriticalValueMatchesReferenceAtEdges) {
  for (int64_t w : {1, 2, 3, 10, 50, 200}) {
    for (double p : kEdgeP) {
      for (double alpha : kGridAlpha) {
        const ScanConfig config = Config(w, kHorizon, alpha);
        EXPECT_EQ(CriticalValue(p, config),
                  reference::CriticalValue(p, config))
            << "w=" << w << " p=" << p << " alpha=" << alpha;
      }
    }
  }
}

TEST(TableKernelBitIdentityTest, TailProbabilitiesAreBitIdentical) {
  std::vector<double> ps(std::begin(kGridP), std::end(kGridP));
  ps.insert(ps.end(), std::begin(kEdgeP), std::end(kEdgeP));
  int64_t checked = 0;
  for (int64_t w : SweepWindows()) {
    const double L = Config(w, kHorizon, 0.01).L();
    for (double p : ps) {
      const NausTables tables(w, p);
      for (int64_t k = 0; k <= w + 1; ++k) {
        const double got = ScanStatisticTailProbability(k, tables, L);
        const double want = reference::ScanStatisticTailProbability(k, p, w, L);
        ASSERT_TRUE(SameBits(got, want))
            << "w=" << w << " p=" << p << " k=" << k << " got=" << got
            << " want=" << want;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 10000);
}

TEST(TableKernelBitIdentityTest, ClosedFormsAreBitIdentical) {
  for (int64_t w : {1, 2, 3, 4, 7, 16, 33, 64}) {
    for (double p : kGridP) {
      for (int64_t k = -1; k <= w + 1; ++k) {
        ASSERT_TRUE(SameBits(NausQ2(k, w, p), reference::NausQ2(k, w, p)))
            << "Q2 w=" << w << " p=" << p << " k=" << k;
        ASSERT_TRUE(SameBits(NausQ3(k, w, p), reference::NausQ3(k, w, p)))
            << "Q3 w=" << w << " p=" << p << " k=" << k;
        ASSERT_TRUE(SameBits(ScanStatisticTailProbability(k, p, w, 7.5),
                             reference::ScanStatisticTailProbability(
                                 k, p, w, 7.5)))
            << "tail w=" << w << " p=" << p << " k=" << k;
      }
    }
  }
}

TEST(TableKernelBitIdentityTest, BinomialTableMatchesPerTermSums) {
  std::vector<double> ps(std::begin(kGridP), std::end(kGridP));
  ps.insert(ps.end(), std::begin(kEdgeP), std::end(kEdgeP));
  // n = 4100 and 5000 lie past the log-factorial cache and take the
  // lgamma fallback.
  for (int64_t n : {0, 1, 2, 3, 9, 10, 57, 200, 4100, 5000}) {
    for (double p : ps) {
      const BinomialTable table(n, p);
      const int64_t step = n > 1000 ? 97 : 1;
      for (int64_t k = -1; k <= n + 1; k += (k < 0 || k >= n) ? 1 : step) {
        ASSERT_TRUE(SameBits(table.Pmf(k), reference::BinomialPmf(k, n, p)))
            << "pmf n=" << n << " p=" << p << " k=" << k;
        ASSERT_TRUE(SameBits(LogBinomialPmf(k, n, p),
                             reference::LogBinomialPmf(k, n, p)))
            << "log pmf n=" << n << " p=" << p << " k=" << k;
        if (n > 1000 && k > 50 && k < n - 50) continue;  // O(n) per call.
        ASSERT_TRUE(SameBits(table.Cdf(k), reference::BinomialCdf(k, n, p)))
            << "cdf n=" << n << " p=" << p << " k=" << k;
        ASSERT_TRUE(SameBits(table.Sf(k), reference::BinomialSf(k, n, p)))
            << "sf n=" << n << " p=" << p << " k=" << k;
      }
    }
  }
}

// The log-factorial cache behind the tables is process-wide. Four threads
// race to first use it (each test runs in a fresh process under ctest) on
// overlapping configurations; every answer must match a serial run.
TEST(TableKernelConcurrencyTest, ConcurrentCallersMatchSerialRun) {
  std::vector<ScanConfig> configs;
  for (int64_t w : {1, 7, 25, 50, 120, 200}) {
    for (double alpha : kGridAlpha) {
      configs.push_back(Config(w, kHorizon, alpha));
    }
  }
  const std::vector<double> ps = {1e-4, 0.01, 0.05, 0.2, 0.8};
  const size_t n = configs.size() * ps.size();
  constexpr int kThreads = 4;
  std::vector<std::vector<int64_t>> concurrent(kThreads,
                                               std::vector<int64_t>(n, 0));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the same configurations from its own offset.
      for (size_t j = 0; j < n; ++j) {
        const size_t i = (j + static_cast<size_t>(t) * n / kThreads) % n;
        concurrent[static_cast<size_t>(t)][i] =
            CriticalValue(ps[i % ps.size()], configs[i / ps.size()]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < n; ++i) {
    const int64_t serial =
        CriticalValue(ps[i % ps.size()], configs[i / ps.size()]);
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(concurrent[static_cast<size_t>(t)][i], serial)
          << "thread " << t << " config " << i;
    }
  }
}

TEST(ScanConfigTest, ToStringMentionsFields) {
  const std::string s = Config(50, 1000, 0.05).ToString();
  EXPECT_NE(s.find("w=50"), std::string::npos);
  EXPECT_NE(s.find("alpha=0.05"), std::string::npos);
}

}  // namespace
}  // namespace scanstat
}  // namespace vaq
