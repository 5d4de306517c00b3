// Property sweeps over the offline stack: RVAQ's correctness and cost
// invariants across a wide randomized grid, plus structural properties of
// TBClip.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "offline/baselines.h"
#include "offline/rvaq.h"
#include "offline/tbclip.h"
#include "storage/score_table.h"
#include "tbclip_reference.h"

namespace vaq {
namespace offline {
namespace {

// Random instance with a configurable number of object tables. A positive
// `quantum` rounds every table score down to a multiple of it, so clip
// scores and score bounds tie.
struct Instance {
  std::vector<storage::ScoreTable> tables;
  IntervalSet pq;
  QueryTables query;

  Instance() = default;
  Instance(const Instance&) = delete;
};

std::unique_ptr<Instance> RandomInstance(uint64_t seed, int64_t num_clips,
                                         int num_objects,
                                         double quantum = 0.0) {
  Rng rng(seed);
  auto inst = std::make_unique<Instance>();
  const int num_tables = num_objects + 1;
  for (int t = 0; t < num_tables; ++t) {
    std::vector<storage::ScoreTable::Row> rows;
    for (int64_t c = 0; c < num_clips; ++c) {
      const double score = rng.UniformDouble(0, 100);
      rows.push_back(
          {c, quantum > 0 ? std::floor(score / quantum) * quantum : score});
    }
    inst->tables.push_back(
        std::move(storage::ScoreTable::Build(std::move(rows))).value());
  }
  int64_t cursor = 0;
  while (cursor < num_clips - 4) {
    const int64_t lo = cursor + 1 + static_cast<int64_t>(rng.UniformInt(5ul));
    const int64_t hi = lo + 1 + static_cast<int64_t>(rng.UniformInt(7ul));
    if (hi >= num_clips) break;
    inst->pq.Add(Interval(lo, hi));
    cursor = hi + 1;
  }
  inst->query.num_clips = num_clips;
  for (int t = 0; t < num_tables; ++t) {
    inst->query.tables.push_back(&inst->tables[static_cast<size_t>(t)]);
    inst->query.sequences.push_back(&inst->pq);
    inst->query.schema.clauses.push_back({t});
  }
  inst->query.schema.num_objects = num_objects;
  inst->query.schema.has_action = true;
  return inst;
}

std::vector<double> SortedScores(const TopKResult& result) {
  std::vector<double> out;
  for (const RankedSequence& seq : result.top) out.push_back(seq.exact_score);
  std::sort(out.begin(), out.end());
  return out;
}

class OfflineGrid
    : public ::testing::TestWithParam<std::tuple<int, int64_t>> {};

TEST_P(OfflineGrid, RvaqEqualsBruteForceUnderAllOptionCombos) {
  const auto [num_objects, num_clips] = GetParam();
  PaperScoring scoring;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    auto inst = RandomInstance(seed * 31 + 7, num_clips, num_objects);
    if (inst->pq.size() < 3) continue;
    const int64_t max_k = static_cast<int64_t>(inst->pq.size());
    for (int64_t k : {int64_t{1}, max_k / 2, max_k}) {
      if (k < 1) continue;
      const TopKResult expected = PqTraverse(inst->query, scoring, k);
      for (const bool use_skip : {true, false}) {
        for (const bool two_sided : {true, false}) {
          RvaqOptions options;
          options.k = k;
          options.use_skip = use_skip;
          options.two_sided_bounds = two_sided;
          const TopKResult actual =
              Rvaq(&inst->query, &scoring, options).Run();
          if (two_sided) {
            EXPECT_EQ(SortedScores(actual), SortedScores(expected))
                << "seed=" << seed << " k=" << k << " skip=" << use_skip;
          } else {
            // The literal one-sided bookkeeping is NOT exact (DESIGN.md
            // §5, item 10): assert only soundness — k sequences from P_q
            // with scores bounded by the true optimum.
            ASSERT_EQ(actual.top.size(), expected.top.size());
            for (const RankedSequence& seq : actual.top) {
              EXPECT_LE(seq.exact_score,
                        expected.top[0].exact_score + 1e-9);
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OfflineGrid,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values<int64_t>(40, 120)));

TEST(OfflinePropertyTest, SkipNeverIncreasesSeeks) {
  PaperScoring scoring;
  for (uint64_t seed = 100; seed < 112; ++seed) {
    auto inst = RandomInstance(seed, 80, 2);
    if (inst->pq.size() < 4) continue;
    RvaqOptions options;
    options.k = 2;
    const int64_t with_skip =
        Rvaq(&inst->query, &scoring, options).Run().accesses.seeks();
    options.use_skip = false;
    const int64_t without_skip =
        Rvaq(&inst->query, &scoring, options).Run().accesses.seeks();
    EXPECT_LE(with_skip, without_skip) << "seed=" << seed;
  }
}

TEST(OfflinePropertyTest, RvaqNeverSeeksMoreThanFa) {
  PaperScoring scoring;
  for (uint64_t seed = 200; seed < 212; ++seed) {
    auto inst = RandomInstance(seed, 80, 2);
    if (inst->pq.size() < 4) continue;
    RvaqOptions options;
    options.k = 2;
    const int64_t rvaq =
        Rvaq(&inst->query, &scoring, options).Run().accesses.seeks();
    const int64_t fa =
        FaTopK(inst->query, scoring, 2).accesses.random_accesses;
    EXPECT_LE(rvaq, fa + 8) << "seed=" << seed;
  }
}

TEST(OfflinePropertyTest, TopKScoresAreMonotoneInK) {
  // The i-th best score for K = a equals the i-th best for K = b >= a.
  PaperScoring scoring;
  auto inst = RandomInstance(42, 100, 2);
  ASSERT_GE(inst->pq.size(), 5u);
  RvaqOptions small;
  small.k = 2;
  RvaqOptions large;
  large.k = 5;
  const TopKResult first = Rvaq(&inst->query, &scoring, small).Run();
  const TopKResult second = Rvaq(&inst->query, &scoring, large).Run();
  ASSERT_EQ(first.top.size(), 2u);
  ASSERT_EQ(second.top.size(), 5u);
  for (size_t i = 0; i < first.top.size(); ++i) {
    EXPECT_DOUBLE_EQ(first.top[i].exact_score, second.top[i].exact_score);
  }
  for (size_t i = 1; i < second.top.size(); ++i) {
    EXPECT_GE(second.top[i - 1].exact_score, second.top[i].exact_score);
  }
}

TEST(TbClipPropertyTest, DeliversEveryPqClipExactlyOnceInOrder) {
  PaperScoring scoring;
  for (uint64_t seed = 300; seed < 306; ++seed) {
    auto inst = RandomInstance(seed, 60, 2);
    std::vector<bool> skip(60, true);
    for (const Interval& iv : inst->pq.intervals()) {
      for (ClipIndex c = iv.lo; c <= iv.hi; ++c) {
        skip[static_cast<size_t>(c)] = false;
      }
    }
    ClipScoreSource source(&inst->query, &scoring);
    TbClipIterator iterator(&inst->query, &source, &skip);
    TbClipIterator::Entry top;
    TbClipIterator::Entry bottom;
    std::vector<ClipIndex> seen;
    double last_top = std::numeric_limits<double>::infinity();
    double last_bottom = -std::numeric_limits<double>::infinity();
    while (iterator.Next(&top, &bottom)) {
      if (top.valid()) {
        seen.push_back(top.clip);
        EXPECT_LE(top.score, last_top + 1e-9);  // Tops non-increasing.
        last_top = top.score;
      }
      if (bottom.valid() && (!top.valid() || bottom.clip != top.clip)) {
        seen.push_back(bottom.clip);
        EXPECT_GE(bottom.score, last_bottom - 1e-9);
        last_bottom = bottom.score;
      }
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
    EXPECT_EQ(static_cast<int64_t>(seen.size()), inst->pq.TotalLength())
        << "seed=" << seed;
  }
}

TEST(TbClipPropertyTest, TopIsAlwaysTheTrueMaximumOfRemaining) {
  PaperScoring scoring;
  auto inst = RandomInstance(77, 50, 2);
  std::vector<bool> skip(50, true);
  std::vector<ClipIndex> remaining;
  for (const Interval& iv : inst->pq.intervals()) {
    for (ClipIndex c = iv.lo; c <= iv.hi; ++c) {
      skip[static_cast<size_t>(c)] = false;
      remaining.push_back(c);
    }
  }
  // Reference scores straight from the tables.
  auto exact = [&](ClipIndex c) {
    std::vector<double> values;
    for (const auto* table : inst->query.AllTables()) {
      values.push_back(
          static_cast<const storage::ScoreTable*>(table)->PeekScore(c));
    }
    return scoring.ClipScore(values, inst->query.schema);
  };
  ClipScoreSource source(&inst->query, &scoring);
  TbClipIterator iterator(&inst->query, &source, &skip);
  TbClipIterator::Entry top;
  TbClipIterator::Entry bottom;
  while (iterator.Next(&top, &bottom)) {
    if (top.valid()) {
      double best = -1;
      for (ClipIndex c : remaining) best = std::max(best, exact(c));
      EXPECT_DOUBLE_EQ(top.score, best);
      std::erase(remaining, top.clip);
    }
    if (bottom.valid() && bottom.clip != top.clip) {
      std::erase(remaining, bottom.clip);
    }
  }
  EXPECT_TRUE(remaining.empty());
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

bool SameCounter(const storage::AccessCounter& a,
                 const storage::AccessCounter& b) {
  return a.sorted_accesses == b.sorted_accesses &&
         a.reverse_accesses == b.reverse_accesses &&
         a.random_accesses == b.random_accesses &&
         a.range_scans == b.range_scans && a.range_rows == b.range_rows;
}

// Differential check against the unoptimised selection (tbclip_reference.h)
// on quantized instances, so bounds tie and pending lists pass 16 entries,
// with skip marks added between Next() calls as RVAQ adds decided
// sequences. Both iterators must return the same (top, bottom) sequence,
// bit-equal scores and, per table, the same access counts.
TEST(TbClipPropertyTest, MatchesReferenceSelectionOnTiedInstances) {
  PaperScoring scoring;
  int64_t instances = 0;
  int64_t large_tied_calls = 0;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    const int num_objects = 2 + static_cast<int>(seed % 3);
    const int64_t num_clips = 160 + 40 * static_cast<int64_t>(seed % 4);
    const double quantum = seed % 2 == 0 ? 10.0 : 25.0;
    auto fast_inst =
        RandomInstance(seed + 900, num_clips, num_objects, quantum);
    auto ref_inst =
        RandomInstance(seed + 900, num_clips, num_objects, quantum);
    if (fast_inst->pq.size() < 4) continue;
    ++instances;
    std::vector<bool> fast_skip(static_cast<size_t>(num_clips), true);
    for (const Interval& iv : fast_inst->pq.intervals()) {
      for (ClipIndex c = iv.lo; c <= iv.hi; ++c) {
        fast_skip[static_cast<size_t>(c)] = false;
      }
    }
    std::vector<bool> ref_skip = fast_skip;
    ClipScoreSource fast_source(&fast_inst->query, &scoring);
    ClipScoreSource ref_source(&ref_inst->query, &scoring);
    TbClipIterator fast(&fast_inst->query, &fast_source, &fast_skip);
    testing::ReferenceTbClipIterator ref(&ref_inst->query, &ref_source,
                                         &ref_skip);
    Rng marks(seed);
    const std::vector<Interval>& seqs = fast_inst->pq.intervals();
    for (int64_t step = 0;; ++step) {
      TbClipIterator::Entry fast_top, fast_bottom, ref_top, ref_bottom;
      const bool fast_more = fast.Next(&fast_top, &fast_bottom);
      const bool ref_more = ref.Next(&ref_top, &ref_bottom);
      ASSERT_EQ(fast_more, ref_more) << "seed=" << seed << " step=" << step;
      ASSERT_EQ(fast_top.clip, ref_top.clip)
          << "seed=" << seed << " step=" << step;
      ASSERT_EQ(fast_bottom.clip, ref_bottom.clip)
          << "seed=" << seed << " step=" << step;
      ASSERT_EQ(Bits(fast_top.score), Bits(ref_top.score))
          << "seed=" << seed << " step=" << step;
      ASSERT_EQ(Bits(fast_bottom.score), Bits(ref_bottom.score))
          << "seed=" << seed << " step=" << step;
      if (!fast_more) break;
      // Decide a random sequence now and then: its clips become skipped.
      if (marks.Bernoulli(0.3)) {
        const Interval& iv = seqs[marks.UniformInt(seqs.size())];
        for (ClipIndex c = iv.lo; c <= iv.hi; ++c) {
          fast_skip[static_cast<size_t>(c)] = true;
          ref_skip[static_cast<size_t>(c)] = true;
        }
      }
    }
    for (size_t t = 0; t < fast_inst->tables.size(); ++t) {
      EXPECT_TRUE(SameCounter(fast_inst->tables[t].counter(),
                              ref_inst->tables[t].counter()))
          << "seed=" << seed << " table=" << t << " "
          << fast_inst->tables[t].counter().ToString() << " vs "
          << ref_inst->tables[t].counter().ToString();
    }
    large_tied_calls += ref.large_tied_calls();
  }
  EXPECT_GE(instances, 40);
  // The instances reach the case the tie-break exists for.
  EXPECT_GT(large_tied_calls, 0);
}

}  // namespace
}  // namespace offline
}  // namespace vaq
