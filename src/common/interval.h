// Closed integer intervals and canonical interval sets.
//
// The paper represents query results ("sequences", §2) as sets of pairs of
// start/end clip identifiers, P = {(c_l, c_r)}. `Interval` models one such
// inclusive pair and `IntervalSet` a canonical (sorted, disjoint,
// non-adjacent) collection. The set operations implement the paper's
// sequence algebra: merging consecutive positive clips (Eq. 4), the ⊗
// intersection of individual sequences (§4.2, Eq. 12) via an interval
// sweep, and IoU used by the evaluation metrics (§5.1).
#ifndef VAQ_COMMON_INTERVAL_H_
#define VAQ_COMMON_INTERVAL_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace vaq {

// A closed interval [lo, hi] of integer identifiers (frames, shots or
// clips). Empty iff lo > hi.
struct Interval {
  int64_t lo = 0;
  int64_t hi = -1;

  Interval() = default;
  Interval(int64_t lo_in, int64_t hi_in) : lo(lo_in), hi(hi_in) {}

  bool empty() const { return lo > hi; }
  // Number of identifiers covered; 0 when empty.
  int64_t length() const { return empty() ? 0 : hi - lo + 1; }
  bool Contains(int64_t x) const { return lo <= x && x <= hi; }
  bool Overlaps(const Interval& other) const {
    return !empty() && !other.empty() && lo <= other.hi && other.lo <= hi;
  }

  friend bool operator==(const Interval& a, const Interval& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }

  std::string ToString() const;
};

std::ostream& operator<<(std::ostream& os, const Interval& iv);

// Intersection over union of two closed intervals; 0 when either is empty
// or they are disjoint. This is the sequence-match criterion of §5.1.
double IntervalIoU(const Interval& a, const Interval& b);

// A canonical set of identifiers stored as sorted, pairwise-disjoint,
// non-adjacent closed intervals. Adjacent intervals ([1,3] and [4,6]) are
// merged, matching the paper's "merge continuous clips" semantics.
class IntervalSet {
 public:
  IntervalSet() = default;

  // Builds a canonical set from arbitrary (possibly overlapping, unsorted,
  // empty) intervals.
  static IntervalSet FromIntervals(std::vector<Interval> intervals);

  // Builds the set of positions where `indicator[i]` is true, with position
  // ids starting at `base`. This is Eq. 4 / the individual-sequence
  // extraction of §4.2.
  static IntervalSet FromIndicators(const std::vector<bool>& indicator,
                                    int64_t base = 0);

  // Adds one interval, re-normalizing. O(n) worst case; intended for
  // streaming appends at the tail where it is O(1) amortized.
  void Add(const Interval& iv);

  bool empty() const { return intervals_.empty(); }
  size_t size() const { return intervals_.size(); }
  const std::vector<Interval>& intervals() const { return intervals_; }
  const Interval& operator[](size_t i) const { return intervals_[i]; }

  // Total number of identifiers covered.
  int64_t TotalLength() const;

  bool Contains(int64_t x) const;

  // The paper's ⊗ operator (Eq. 12): identifiers present in both sets,
  // re-merged into maximal runs. Implemented as a linear two-pointer sweep.
  IntervalSet Intersect(const IntervalSet& other) const;

  // Set union, re-merged into maximal runs.
  IntervalSet Union(const IntervalSet& other) const;

  // Identifiers in [universe.lo, universe.hi] not covered by this set.
  IntervalSet ComplementWithin(const Interval& universe) const;

  friend bool operator==(const IntervalSet& a, const IntervalSet& b) {
    return a.intervals_ == b.intervals_;
  }

  std::string ToString() const;

  // Checkpoint body (ckpt::Archive, DESIGN.md §10): the count, then each
  // interval's bounds. Loading re-normalizes, so the invariant below
  // holds whatever the bytes said.
  template <typename Archive>
  void Persist(Archive& ar) {
    ar.Vector(intervals_, 16, [&](Interval& iv) {
      ar.I64(iv.lo);
      ar.I64(iv.hi);
    });
    if (ar.loading()) *this = FromIntervals(std::move(intervals_));
  }

 private:
  // Invariant: sorted by lo; for consecutive a, b: a.hi + 1 < b.lo.
  std::vector<Interval> intervals_;
};

std::ostream& operator<<(std::ostream& os, const IntervalSet& set);

}  // namespace vaq

#endif  // VAQ_COMMON_INTERVAL_H_
