#include "offline/query_view.h"

#include "common/logging.h"

namespace vaq {
namespace offline {
namespace {

StatusOr<const storage::TypeIndex*> FindObjectEntry(
    const storage::VideoIndex& index, ObjectTypeId type,
    const Vocabulary& vocab) {
  const storage::TypeIndex* entry = index.FindObject(type);
  if (entry == nullptr) {
    const std::string name =
        type >= 0 && type < vocab.num_object_types()
            ? vocab.ObjectTypeName(type)
            : std::string("#").append(std::to_string(type));
    return Status::NotFound("object type not ingested: " + name);
  }
  return entry;
}

StatusOr<const storage::TypeIndex*> FindActionEntry(
    const storage::VideoIndex& index, ActionTypeId type,
    const Vocabulary& vocab) {
  const storage::TypeIndex* entry = index.FindAction(type);
  if (entry == nullptr) {
    const std::string name =
        type >= 0 && type < vocab.num_action_types()
            ? vocab.ActionTypeName(type)
            : std::string("#").append(std::to_string(type));
    return Status::NotFound("action type not ingested: " + name);
  }
  return entry;
}

}  // namespace

StatusOr<QueryTables> QueryTables::Bind(const storage::VideoIndex& index,
                                        const QuerySpec& query,
                                        const Vocabulary& vocab) {
  QueryTables out;
  out.num_clips = index.num_clips;
  for (ObjectTypeId type : query.objects) {
    VAQ_ASSIGN_OR_RETURN(const storage::TypeIndex* entry,
                         FindObjectEntry(index, type, vocab));
    out.schema.clauses.push_back({static_cast<int>(out.tables.size())});
    out.tables.push_back(&entry->table);
    out.sequences.push_back(&entry->sequences);
  }
  out.schema.num_objects = static_cast<int>(out.tables.size());
  if (query.has_action()) {
    VAQ_ASSIGN_OR_RETURN(const storage::TypeIndex* entry,
                         FindActionEntry(index, query.action, vocab));
    out.schema.has_action = true;
    out.schema.clauses.push_back({static_cast<int>(out.tables.size())});
    out.tables.push_back(&entry->table);
    out.sequences.push_back(&entry->sequences);
  }
  if (out.num_tables() == 0) {
    return Status::InvalidArgument("query touches no tables");
  }
  return out;
}

StatusOr<QueryTables> QueryTables::BindCnf(const storage::VideoIndex& index,
                                           const CnfQuery& query,
                                           const Vocabulary& vocab) {
  QueryTables out;
  out.num_clips = index.num_clips;
  const std::vector<Literal> literals = query.DistinctLiterals();
  for (const Literal& literal : literals) {
    const storage::TypeIndex* entry = nullptr;
    if (literal.kind == Literal::Kind::kObject) {
      VAQ_ASSIGN_OR_RETURN(entry, FindObjectEntry(index, literal.type, vocab));
    } else {
      VAQ_ASSIGN_OR_RETURN(entry, FindActionEntry(index, literal.type, vocab));
    }
    out.tables.push_back(&entry->table);
    out.sequences.push_back(&entry->sequences);
  }
  for (const Clause& clause : query.clauses) {
    std::vector<int> indices;
    for (const Literal& literal : clause.literals) {
      for (size_t i = 0; i < literals.size(); ++i) {
        if (literals[i] == literal) {
          indices.push_back(static_cast<int>(i));
          break;
        }
      }
    }
    out.schema.clauses.push_back(std::move(indices));
  }
  if (out.num_tables() == 0) {
    return Status::InvalidArgument("query touches no tables");
  }
  return out;
}

IntervalSet QueryTables::ComputePq() const {
  IntervalSet pq = IntervalSet::FromIntervals({Interval(0, num_clips - 1)});
  for (const std::vector<int>& clause : schema.clauses) {
    // A clause is satisfied wherever any of its literals' individual
    // sequences cover the clip (footnote 4 of the paper).
    IntervalSet clause_cover;
    for (int table : clause) {
      clause_cover = clause_cover.Union(*sequences[static_cast<size_t>(table)]);
    }
    pq = pq.Intersect(clause_cover);
  }
  return pq;
}

double ExactSequenceScore(const QueryTables& tables,
                          const ScoringModel& scoring, const Interval& seq) {
  const std::vector<const storage::ScoreTableView*>& all = tables.AllTables();
  const size_t len = static_cast<size_t>(seq.length());
  std::vector<std::vector<double>> columns(all.size());
  for (size_t t = 0; t < all.size(); ++t) {
    columns[t].reserve(len);
    all[t]->RangeScores(seq.lo, seq.hi, &columns[t]);
  }
  std::vector<double> values(all.size());
  double total = scoring.Identity();
  for (size_t i = 0; i < len; ++i) {
    for (size_t t = 0; t < all.size(); ++t) values[t] = columns[t][i];
    total = scoring.Combine(total, scoring.ClipScore(values, tables.schema));
  }
  return total;
}

ClipScoreSource::ClipScoreSource(const QueryTables* tables,
                                 const ScoringModel* scoring)
    : tables_(tables), scoring_(scoring) {
  VAQ_CHECK(tables != nullptr);
  VAQ_CHECK(scoring != nullptr);
  const size_t n = static_cast<size_t>(tables_->num_clips);
  const size_t t = static_cast<size_t>(tables_->num_tables());
  entry_value_.assign(t, std::vector<double>(n, 0.0));
  entry_known_.assign(t, std::vector<bool>(n, false));
  full_score_.assign(n, 0.0);
  full_known_.assign(n, false);
  values_.assign(t, 0.0);
}

void ClipScoreSource::NoteKnownEntry(int table_idx, ClipIndex clip,
                                     double score) {
  entry_value_[static_cast<size_t>(table_idx)][static_cast<size_t>(clip)] =
      score;
  entry_known_[static_cast<size_t>(table_idx)][static_cast<size_t>(clip)] =
      true;
}

int64_t ClipScoreSource::MissingEntries(ClipIndex clip) const {
  const size_t c = static_cast<size_t>(clip);
  if (full_known_[c]) return 0;
  int64_t missing = 0;
  for (const auto& known : entry_known_) {
    if (!known[c]) ++missing;
  }
  return missing;
}

double ClipScoreSource::BoundWith(ClipIndex clip,
                                  const std::vector<double>& fill) const {
  const size_t c = static_cast<size_t>(clip);
  const size_t num_tables = entry_value_.size();
  VAQ_CHECK_EQ(fill.size(), num_tables);
  for (size_t t = 0; t < num_tables; ++t) {
    values_[t] = entry_known_[t][c] ? entry_value_[t][c] : fill[t];
  }
  return scoring_->ClipScore(values_, tables_->schema);
}

double ClipScoreSource::Score(ClipIndex clip) {
  const size_t c = static_cast<size_t>(clip);
  if (full_known_[c]) return full_score_[c];
  const std::vector<const storage::ScoreTableView*>& all = tables_->AllTables();
  for (size_t t = 0; t < all.size(); ++t) {
    if (entry_known_[t][c]) {
      values_[t] = entry_value_[t][c];
    } else {
      values_[t] = all[t]->RandomScore(clip);  // Counted random access.
      entry_value_[t][c] = values_[t];
      entry_known_[t][c] = true;
    }
  }
  const double score = scoring_->ClipScore(values_, tables_->schema);
  full_score_[c] = score;
  full_known_[c] = true;
  return score;
}

}  // namespace offline
}  // namespace vaq
