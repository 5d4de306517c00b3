// Reference TBClip iterator for differential tests.
//
// The straightforward Algorithm 5 selection that `offline::TbClipIterator`
// optimises: every call rescans the whole seen list, skipping decided
// clips, builds a fresh pending list and orders it with std::stable_sort,
// so equal bounds keep seen-list order by construction. The production
// iterator compacts the seen list in place, reuses its buffers and breaks
// ties by position explicitly; on the same tables and skip marks the two
// must return the same clips, bit-equal scores and the same access counts.
//
// It also counts the calls whose pending list had more than 16 entries
// with at least two equal bounds: there std::sort falls back from
// insertion sort to introsort, whose order among ties is unspecified, so a
// test can check that its instances reach the case that matters.
#ifndef VAQ_TESTS_TBCLIP_REFERENCE_H_
#define VAQ_TESTS_TBCLIP_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "offline/query_view.h"
#include "offline/tbclip.h"

namespace vaq {
namespace offline {
namespace testing {

class ReferenceTbClipIterator {
 public:
  using Entry = TbClipIterator::Entry;

  ReferenceTbClipIterator(const QueryTables* tables, ClipScoreSource* source,
                          const std::vector<bool>* skip)
      : tables_(tables),
        source_(source),
        skip_(skip),
        all_tables_(tables->AllTables()) {
    const size_t n = static_cast<size_t>(tables_->num_clips);
    for (SideState& side : sides_) {
      side.seen_count.assign(n, 0);
      side.thresholds.assign(all_tables_.size(), 0.0);
    }
    sides_[0].thresholds.assign(all_tables_.size(),
                                std::numeric_limits<double>::infinity());
    processed_.assign(n, false);
  }

  bool Next(Entry* top, Entry* bottom) {
    *top = SelectExtreme(/*top_side=*/true);
    *bottom = SelectExtreme(/*top_side=*/false);
    if (top->valid()) processed_[static_cast<size_t>(top->clip)] = true;
    if (bottom->valid()) {
      processed_[static_cast<size_t>(bottom->clip)] = true;
    }
    return top->valid() || bottom->valid();
  }

  int64_t large_tied_calls() const { return large_tied_calls_; }

 private:
  struct SideState {
    int64_t stamp = 0;
    std::vector<int16_t> seen_count;
    std::vector<ClipIndex> seen_list;  // Every clip ever seen, never pruned.
    int64_t complete_cursor = 0;
    std::vector<ClipIndex> complete;
    std::vector<double> thresholds;
  };

  bool Usable(ClipIndex clip) const {
    return !processed_[static_cast<size_t>(clip)] &&
           !(*skip_)[static_cast<size_t>(clip)];
  }

  Entry SelectExtreme(bool top_side) {
    SideState& side = sides_[top_side ? 0 : 1];
    const int64_t num_tables = static_cast<int64_t>(all_tables_.size());
    auto have_candidate = [&]() {
      while (side.complete_cursor <
             static_cast<int64_t>(side.complete.size())) {
        if (Usable(side.complete[static_cast<size_t>(side.complete_cursor)])) {
          return true;
        }
        ++side.complete_cursor;
      }
      return false;
    };
    while (!have_candidate() && side.stamp < tables_->num_clips) {
      for (int64_t t = 0; t < num_tables; ++t) {
        const storage::ScoreTableView* table =
            all_tables_[static_cast<size_t>(t)];
        const storage::ScoreRow row = top_side
                                          ? table->SortedRow(side.stamp)
                                          : table->ReverseRow(side.stamp);
        source_->NoteKnownEntry(static_cast<int>(t), row.clip, row.score);
        side.thresholds[static_cast<size_t>(t)] = row.score;
        int16_t& count = side.seen_count[static_cast<size_t>(row.clip)];
        if (count == 0) side.seen_list.push_back(row.clip);
        ++count;
        if (count == num_tables) side.complete.push_back(row.clip);
      }
      ++side.stamp;
    }
    if (!have_candidate()) return Entry{};

    Entry best;
    auto consider = [&](ClipIndex clip, double score) {
      if (!best.valid() ||
          (top_side ? score > best.score : score < best.score)) {
        best.clip = clip;
        best.score = score;
      }
    };
    std::vector<std::pair<double, ClipIndex>> pending;  // (bound, clip).
    for (ClipIndex clip : side.seen_list) {
      if (!Usable(clip)) continue;
      if (source_->HasScore(clip)) {
        consider(clip, source_->Score(clip));
      } else {
        pending.emplace_back(source_->BoundWith(clip, side.thresholds), clip);
      }
    }
    std::stable_sort(pending.begin(), pending.end(),
                     [&](const auto& a, const auto& b) {
                       return top_side ? a.first > b.first : a.first < b.first;
                     });
    for (size_t i = 1; pending.size() > 16 && i < pending.size(); ++i) {
      if (pending[i].first == pending[i - 1].first) {
        ++large_tied_calls_;
        break;
      }
    }
    for (const auto& [bound, clip] : pending) {
      if (best.valid() &&
          (top_side ? bound <= best.score : bound >= best.score)) {
        break;
      }
      consider(clip, source_->Score(clip));
    }
    return best;
  }

  const QueryTables* tables_;
  ClipScoreSource* source_;
  const std::vector<bool>* skip_;
  std::vector<const storage::ScoreTableView*> all_tables_;
  SideState sides_[2];
  std::vector<bool> processed_;
  int64_t large_tied_calls_ = 0;
};

}  // namespace testing
}  // namespace offline
}  // namespace vaq

#endif  // VAQ_TESTS_TBCLIP_REFERENCE_H_
