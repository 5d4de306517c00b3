// The TBClip iterator (Algorithm 5).
//
// Each invocation returns the unprocessed clip with the *highest* query
// score (c_top) and the one with the *lowest* (c_btm), using Fagin-style
// parallel sorted access from the top of every clip score table for c_top
// and parallel reverse access from the bottom for c_btm, plus random
// accesses to complete the scores of seen clips. Once at least one
// unprocessed clip has been seen in all tables (from a given side), the
// extreme of that side is guaranteed to be among the seen clips (monotone
// g; Fagin's argument with k = 1).
//
// Clips in the caller-supplied skip set are touched at most once during
// sorted access and never charged random accesses (§4.3, "Skipped Clips").
#ifndef VAQ_OFFLINE_TBCLIP_H_
#define VAQ_OFFLINE_TBCLIP_H_

#include <cstdint>
#include <vector>

#include "offline/query_view.h"

namespace vaq {
namespace offline {

class TbClipIterator {
 public:
  struct Entry {
    ClipIndex clip = -1;  // -1: this side is exhausted.
    double score = 0.0;
    bool valid() const { return clip >= 0; }
  };

  // `skip` may grow between Next() calls (RVAQ adds decided sequences);
  // all pointers must outlive the iterator.
  TbClipIterator(const QueryTables* tables, ClipScoreSource* source,
                 const std::vector<bool>* skip);

  // Produces the next top and bottom clips. Either side may come back
  // invalid when no candidate remains; returns false when both are
  // invalid. The same clip may be returned as both top and bottom when it
  // is the last one.
  bool Next(Entry* top, Entry* bottom);

  int64_t clips_processed() const { return clips_processed_; }

 private:
  // Advances one side's sorted cursor until a complete unprocessed,
  // unskipped candidate exists (or the tables are exhausted); then selects
  // the extreme over all seen clips of that side. `top_side` picks
  // direction.
  Entry SelectExtreme(bool top_side);

  bool Usable(ClipIndex clip) const {
    return !processed_[static_cast<size_t>(clip)] &&
           !(*skip_)[static_cast<size_t>(clip)];
  }

  const QueryTables* tables_;
  ClipScoreSource* source_;
  const std::vector<bool>* skip_;
  std::vector<const storage::ScoreTableView*> all_tables_;

  // Per-side state; index 0 = top, 1 = bottom.
  struct SideState {
    int64_t stamp = 0;                 // Next row rank to read.
    std::vector<int16_t> seen_count;   // Tables that delivered each clip.
    // Clips seen at least once and still usable, in first-seen order.
    std::vector<ClipIndex> seen_list;
    int64_t complete_cursor = 0;       // Scan start for candidate checks.
    std::vector<ClipIndex> complete;   // Clips seen in all tables.
    std::vector<double> thresholds;    // Last row score read per table.
  };
  SideState sides_[2];

  // A partially-known clip awaiting a random access, with its score bound.
  struct Pending {
    double bound;
    ClipIndex clip;
    size_t order;  // Position in seen-list order: the tie-break.
  };
  std::vector<Pending> pending_;  // SelectExtreme scratch, reused.

  std::vector<bool> processed_;
  int64_t clips_processed_ = 0;
};

}  // namespace offline
}  // namespace vaq

#endif  // VAQ_OFFLINE_TBCLIP_H_
