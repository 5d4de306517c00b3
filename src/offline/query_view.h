// Query-time view over ingested metadata.
//
// `QueryTables` binds a resolved query — conjunctive (QuerySpec) or CNF
// (CnfQuery, §2 footnotes 3-4) — to the per-predicate score tables and
// individual sequences of one ingested video. Tables are held in distinct-
// literal order together with a TableSchema describing how they map onto
// the query's predicates; `ComputePq` evaluates
// P_q = ⋂_clauses ⋃_literals P_literal (Eq. 12 generalized — for a
// conjunction every clause is a single literal) by interval sweep.
//
// `ClipScoreSource` computes full clip scores S_q^(c) (Eq. 9) on demand,
// charging random accesses only for table entries not already known from
// sorted/reverse accesses, and caching every computed score — mirroring a
// buffer pool over the clip score tables.
#ifndef VAQ_OFFLINE_QUERY_VIEW_H_
#define VAQ_OFFLINE_QUERY_VIEW_H_

#include <vector>

#include "common/interval.h"
#include "common/status.h"
#include "offline/scoring.h"
#include "storage/catalog.h"
#include "video/cnf_query.h"
#include "video/query_spec.h"
#include "video/vocabulary.h"

namespace vaq {
namespace offline {

// The per-predicate ingested metadata a query touches. All pointers refer
// into a VideoIndex that must outlive this view.
struct QueryTables {
  // One entry per distinct literal, objects-then-action for conjunctive
  // binds, first-appearance order for CNF binds.
  std::vector<const storage::ScoreTableView*> tables;
  std::vector<const IntervalSet*> sequences;
  TableSchema schema;
  int64_t num_clips = 0;

  // Binds a conjunctive query to `index`; fails if a queried type was not
  // ingested. Table order: objects in query order, then the action.
  static StatusOr<QueryTables> Bind(const storage::VideoIndex& index,
                                    const QuerySpec& query,
                                    const Vocabulary& vocab);

  // Binds a CNF query (repeated literals share one table).
  static StatusOr<QueryTables> BindCnf(const storage::VideoIndex& index,
                                       const CnfQuery& query,
                                       const Vocabulary& vocab);

  int num_tables() const { return static_cast<int>(tables.size()); }

  // All tables in schema order.
  const std::vector<const storage::ScoreTableView*>& AllTables() const {
    return tables;
  }

  // P_q per the generalized Eq. 12.
  IntervalSet ComputePq() const;
};

// Exact score of a candidate sequence via one contiguous range scan per
// table (§4.2: clips of a sequence are physically adjacent in the by-clip
// projection, so Pq-Traverse and winner finalization pay one seek per
// (sequence, table) plus sequential rows).
double ExactSequenceScore(const QueryTables& tables,
                          const ScoringModel& scoring, const Interval& seq);

// Caching, access-counted clip score computation.
class ClipScoreSource {
 public:
  ClipScoreSource(const QueryTables* tables, const ScoringModel* scoring);

  // Full clip score; random-accesses only the tables whose entry for
  // `clip` is not yet known. Cached: a second call is free.
  double Score(ClipIndex clip);

  // Records a table entry learned through sorted/reverse access so a later
  // Score() does not pay a random access for it. `table_idx` indexes
  // QueryTables::AllTables().
  void NoteKnownEntry(int table_idx, ClipIndex clip, double score);

  bool HasScore(ClipIndex clip) const {
    return full_known_[static_cast<size_t>(clip)];
  }

  // Number of per-table entries of `clip` that a Score() call would still
  // have to fetch by random access (0 when fully known/cached).
  int64_t MissingEntries(ClipIndex clip) const;

  // Score bound for a partially-known clip: evaluates g with the known
  // entries and `fill[t]` substituted for each unknown table entry.
  // Charges no accesses and caches nothing. With per-table sorted-access
  // thresholds as fills this upper-bounds the clip score; with reverse
  // thresholds it lower-bounds it (monotone g). Not safe to call
  // concurrently: it shares Score()'s scratch buffer.
  double BoundWith(ClipIndex clip, const std::vector<double>& fill) const;

 private:
  const QueryTables* tables_;
  const ScoringModel* scoring_;
  // Per table: known entry values (indexed by clip) and known flags.
  std::vector<std::vector<double>> entry_value_;
  std::vector<std::vector<bool>> entry_known_;
  std::vector<double> full_score_;
  std::vector<bool> full_known_;
  // One clip's per-table entries, reused by every Score/BoundWith call.
  mutable std::vector<double> values_;
};

}  // namespace offline
}  // namespace vaq

#endif  // VAQ_OFFLINE_QUERY_VIEW_H_
