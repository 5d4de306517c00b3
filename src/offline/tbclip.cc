#include "offline/tbclip.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace vaq {
namespace offline {

TbClipIterator::TbClipIterator(const QueryTables* tables,
                               ClipScoreSource* source,
                               const std::vector<bool>* skip)
    : tables_(tables),
      source_(source),
      skip_(skip),
      all_tables_(tables->AllTables()) {
  VAQ_CHECK(source != nullptr);
  VAQ_CHECK(skip != nullptr);
  VAQ_CHECK_EQ(static_cast<int64_t>(skip->size()), tables_->num_clips);
  const size_t n = static_cast<size_t>(tables_->num_clips);
  for (SideState& side : sides_) {
    side.seen_count.assign(n, 0);
    side.thresholds.assign(all_tables_.size(), 0.0);
  }
  // Before any row is read, the top side knows no ceiling.
  sides_[0].thresholds.assign(all_tables_.size(),
                              std::numeric_limits<double>::infinity());
  processed_.assign(n, false);
}

TbClipIterator::Entry TbClipIterator::SelectExtreme(bool top_side) {
  SideState& side = sides_[top_side ? 0 : 1];
  const int64_t num_tables = static_cast<int64_t>(all_tables_.size());
  const int64_t num_rows = tables_->num_clips;

  // Step 1: parallel sorted (or reverse) access until some complete clip
  // is unprocessed and unskipped.
  auto have_candidate = [&]() {
    // Drop decided clips from the front of the complete queue.
    while (side.complete_cursor <
           static_cast<int64_t>(side.complete.size())) {
      const ClipIndex c =
          side.complete[static_cast<size_t>(side.complete_cursor)];
      if (Usable(c)) return true;
      ++side.complete_cursor;
    }
    return false;
  };

  while (!have_candidate() && side.stamp < num_rows) {
    for (int64_t t = 0; t < num_tables; ++t) {
      const storage::ScoreRow row =
          top_side ? all_tables_[static_cast<size_t>(t)]->SortedRow(side.stamp)
                   : all_tables_[static_cast<size_t>(t)]->ReverseRow(
                         side.stamp);
      source_->NoteKnownEntry(static_cast<int>(t), row.clip, row.score);
      side.thresholds[static_cast<size_t>(t)] = row.score;
      int16_t& count = side.seen_count[static_cast<size_t>(row.clip)];
      // A clip already decided when first read can never be selected.
      if (count == 0 && Usable(row.clip)) side.seen_list.push_back(row.clip);
      ++count;
      if (count == num_tables) side.complete.push_back(row.clip);
    }
    ++side.stamp;
  }
  if (!have_candidate()) return Entry{};  // Side exhausted.

  // Step 2: determine the extreme among the usable seen clips. Clips with
  // fully-known entries are scored for free; partially-known clips are
  // only completed by (counted) random accesses when their
  // threshold-filled bound could still beat the current extreme — this is
  // the "important difference" from a plain Fagin evaluation (§4.4): the
  // monotone score bound prunes most random accesses.
  Entry best;
  auto consider = [&](ClipIndex clip, double score) {
    if (!best.valid() ||
        (top_side ? score > best.score : score < best.score)) {
      best.clip = clip;
      best.score = score;
    }
  };
  // Clips only ever go from usable to unusable (`processed_` and the skip
  // set only grow), so the scan compacts `seen_list` in place, keeping the
  // live clips in order: later calls never revisit decided clips, and the
  // pending list below is exactly what a full rescan would build.
  std::vector<ClipIndex>& seen = side.seen_list;
  std::vector<Pending>& pending = pending_;  // Reused across calls.
  pending.clear();
  size_t live = 0;
  for (size_t i = 0; i < seen.size(); ++i) {
    const ClipIndex clip = seen[i];
    if (!Usable(clip)) continue;
    seen[live++] = clip;
    if (source_->HasScore(clip)) {
      consider(clip, source_->Score(clip));  // Cached: free.
    } else {
      pending.push_back(Pending{source_->BoundWith(clip, side.thresholds),
                                clip, pending.size()});
    }
  }
  seen.resize(live);
  // Most promising bounds first (largest for top, smallest for bottom).
  // Equal bounds keep seen-list order: the tie decides which clip pays
  // the counted random access, so it must not be left to the standard
  // library's introsort. (bound, order) is a total order equal to the
  // stable order, without std::stable_sort's per-call buffer.
  std::sort(pending.begin(), pending.end(),
            [&](const Pending& a, const Pending& b) {
              if (a.bound != b.bound) {
                return top_side ? a.bound > b.bound : a.bound < b.bound;
              }
              return a.order < b.order;
            });
  for (const Pending& p : pending) {
    if (best.valid() &&
        (top_side ? p.bound <= best.score : p.bound >= best.score)) {
      break;  // No remaining clip can beat the extreme.
    }
    consider(p.clip, source_->Score(p.clip));
  }
  return best;
}

bool TbClipIterator::Next(Entry* top, Entry* bottom) {
  *top = SelectExtreme(/*top_side=*/true);
  *bottom = SelectExtreme(/*top_side=*/false);
  if (top->valid()) {
    processed_[static_cast<size_t>(top->clip)] = true;
    ++clips_processed_;
  }
  if (bottom->valid() && bottom->clip != top->clip) {
    processed_[static_cast<size_t>(bottom->clip)] = true;
    ++clips_processed_;
  }
  return top->valid() || bottom->valid();
}

}  // namespace offline
}  // namespace vaq
