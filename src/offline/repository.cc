#include "offline/repository.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "obs/metrics.h"

namespace vaq {
namespace offline {

StatusOr<QueryTables> BindByName(const storage::VideoIndex& index,
                                 const std::string& action,
                                 const std::vector<std::string>& objects) {
  QueryTables out;
  out.num_clips = index.num_clips;
  for (const std::string& name : objects) {
    const storage::TypeIndex* entry = index.FindObjectByName(name);
    if (entry == nullptr) {
      return Status::NotFound("object type not ingested: " + name);
    }
    out.schema.clauses.push_back({static_cast<int>(out.tables.size())});
    out.tables.push_back(&entry->table);
    out.sequences.push_back(&entry->sequences);
  }
  out.schema.num_objects = static_cast<int>(out.tables.size());
  if (!action.empty()) {
    const storage::TypeIndex* entry = index.FindActionByName(action);
    if (entry == nullptr) {
      return Status::NotFound("action type not ingested: " + action);
    }
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

double RankedMergeScore(const RankedSequence& sequence) {
  return sequence.has_exact ? sequence.exact_score : sequence.lower_bound;
}

void MergeRankedCandidates(std::vector<RepositoryRankedSequence>* candidates,
                           int64_t k) {
  // Merge: sort by exact score when available, lower bound otherwise.
  std::stable_sort(candidates->begin(), candidates->end(),
                   [](const RepositoryRankedSequence& a,
                      const RepositoryRankedSequence& b) {
                     return RankedMergeScore(a.sequence) >
                            RankedMergeScore(b.sequence);
                   });
  if (static_cast<int64_t>(candidates->size()) > k) {
    candidates->resize(static_cast<size_t>(k));
  }
}

StatusOr<TopKResult> QueryVideoTopK(const storage::VideoIndex& index,
                                    const std::string& action,
                                    const std::vector<std::string>& objects,
                                    const ScoringModel& scoring,
                                    RvaqOptions options) {
  VAQ_ASSIGN_OR_RETURN(QueryTables tables,
                       BindByName(index, action, objects));
  return Rvaq(&tables, &scoring, options).Run();
}

void Repository::Add(const std::string& name, storage::VideoIndex index) {
  videos_.insert_or_assign(name, std::move(index));
}

Status Repository::AddFromCatalog(const storage::Catalog& catalog) {
  for (const std::string& name : catalog.ListVideos()) {
    VAQ_ASSIGN_OR_RETURN(storage::VideoIndex index, catalog.Load(name));
    Add(name, std::move(index));
  }
  return Status::OK();
}

bool Repository::Remove(const std::string& name) {
  return videos_.erase(name) > 0;
}

std::vector<std::string> Repository::VideoNames() const {
  std::vector<std::string> names;
  names.reserve(videos_.size());
  for (const auto& [name, index] : videos_) names.push_back(name);
  return names;
}

const storage::VideoIndex* Repository::Find(const std::string& name) const {
  auto it = videos_.find(name);
  return it == videos_.end() ? nullptr : &it->second;
}

StatusOr<RepositoryTopKResult> Repository::TopK(
    const std::string& action, const std::vector<std::string>& objects,
    const ScoringModel& scoring, RvaqOptions options) const {
  const auto start = std::chrono::steady_clock::now();
  if (videos_.empty()) {
    return Status::FailedPrecondition("repository holds no videos");
  }
  RepositoryTopKResult result;
  // WITH CONFIDENCE: the incoming identifier_seed is the query-level
  // base; each video's streams derive from its NAME, so visit order and
  // shard layout cannot move them.
  const uint64_t identifier_base = options.identifier_seed;
  for (const auto& [name, index] : videos_) {
    if (options.prefilter != nullptr) {
      const IntervalSet* surviving = options.prefilter->SurvivingClips(name);
      if (surviving != nullptr && surviving->empty()) {
        // The proxy ruled out every clip: no table is even bound.
        ++result.videos_pruned;
        static obs::Counter* const pruned =
            obs::MetricRegistry::Global().GetCounter(
                "vaq_cascade_videos_pruned_total");
        pruned->Increment(1);
        continue;
      }
      options.clip_filter = surviving;  // nullptr: unconstrained video.
    }
    if (options.identifier != nullptr) {
      options.identifier_seed = PerVideoIdentifierSeed(identifier_base, name);
    }
    auto top_or = QueryVideoTopK(index, action, objects, scoring, options);
    if (!top_or.ok()) {
      if (top_or.status().code() == StatusCode::kNotFound) {
        ++result.videos_skipped;  // This video cannot match the query.
        continue;
      }
      return top_or.status();
    }
    ++result.videos_queried;
    const TopKResult& video_top = top_or.value();
    result.accesses += video_top.accesses;
    result.candidate_sequences +=
        static_cast<int64_t>(video_top.pq.size());
    result.candidates_pruned += video_top.candidates_pruned;
    result.bai_pulls += video_top.bai_pulls;
    result.bai_arms_eliminated += video_top.bai_arms_eliminated;
    if (video_top.bai_stopped) ++result.bai_stops;
    for (const RankedSequence& seq : video_top.top) {
      result.top.push_back(RepositoryRankedSequence{name, seq});
    }
  }
  MergeRankedCandidates(&result.top, options.k);
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return result;
}

}  // namespace offline
}  // namespace vaq
