// Steady-state ranked queries make no metric-registry lookups: every
// series on the ranked path (net messages and bytes, spans, storage
// accesses, RVAQ/BAI/cascade counters, the coordinator's and session's
// per-query families) is resolved once, at its first use.
#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "tools/pipeline_setup.h"

namespace vaq {
namespace {

TEST(RankedLookupsTest, SecondPassOfTheRankedMixMakesNoRegistryLookups) {
  auto lookups = tools::CountRankedRegistryLookups(/*num_videos=*/4,
                                                   /*seed=*/1);
  ASSERT_TRUE(lookups.ok()) << lookups.status().ToString();
  // The first pass resolves every series it touches (the counter works)...
  EXPECT_GT(lookups.value().first_pass_per_query, 0.0);
  // ...and the second touches the same series without a lookup.
  EXPECT_EQ(lookups.value().second_pass_per_query, 0.0);
}

TEST(RankedLookupsTest, StatementMixCoversEveryForm) {
  const std::vector<std::string> mix = tools::RankedDemoStatements("corpus");
  ASSERT_EQ(mix.size(), 72u);
  int recall = 0;
  int confidence = 0;
  for (const std::string& sql : mix) {
    if (sql.find("WITH RECALL") != std::string::npos) ++recall;
    if (sql.find("WITH CONFIDENCE") != std::string::npos) ++confidence;
  }
  EXPECT_EQ(recall, 24);
  EXPECT_EQ(confidence, 24);
}

}  // namespace
}  // namespace vaq
