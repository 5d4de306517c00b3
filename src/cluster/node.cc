#include "cluster/node.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"

namespace vaq {
namespace cluster {

int64_t EntryWireBytes(const ShardEntry& entry) {
  // Name + interval endpoints + three bounds + rank + framing.
  return static_cast<int64_t>(entry.video.size()) + 48;
}

Node::Node(int id, const offline::Repository* repository,
           std::vector<std::string> videos)
    : id_(id), repository_(repository), videos_(std::move(videos)) {}

StatusOr<const ShardRun*> Node::RunRanked(
    const std::string& action, const std::vector<std::string>& objects,
    const offline::ScoringModel& scoring, offline::RvaqOptions options) {
  if (has_run_) return &run_;
  run_ = ShardRun();
  // WITH CONFIDENCE: same per-video seed derivation as Repository::TopK,
  // so shard layout never moves a video's pull streams.
  const uint64_t identifier_base = options.identifier_seed;
  for (const std::string& name : videos_) {
    const storage::VideoIndex* index = repository_->Find(name);
    VAQ_CHECK(index != nullptr);
    if (options.prefilter != nullptr) {
      // Shard-local cascade prefilter: same per-video resolution as
      // Repository::TopK, so shard layout never changes what survives.
      const IntervalSet* surviving = options.prefilter->SurvivingClips(name);
      if (surviving != nullptr && surviving->empty()) {
        ++run_.videos_pruned;
        static obs::Counter* const pruned =
            obs::MetricRegistry::Global().GetCounter(
                "vaq_cascade_videos_pruned_total");
        pruned->Increment(1);
        continue;
      }
      options.clip_filter = surviving;  // nullptr: unconstrained video.
    }
    if (options.identifier != nullptr) {
      options.identifier_seed =
          offline::PerVideoIdentifierSeed(identifier_base, name);
    }
    auto top_or =
        offline::QueryVideoTopK(*index, action, objects, scoring, options);
    if (!top_or.ok()) {
      if (top_or.status().code() == StatusCode::kNotFound) {
        ++run_.videos_skipped;  // This video cannot match the query.
        continue;
      }
      return top_or.status();
    }
    ++run_.videos_queried;
    const offline::TopKResult& video_top = top_or.value();
    run_.accesses += video_top.accesses;
    run_.candidate_sequences += static_cast<int64_t>(video_top.pq.size());
    run_.candidates_pruned += video_top.candidates_pruned;
    run_.bai_pulls += video_top.bai_pulls;
    run_.bai_arms_eliminated += video_top.bai_arms_eliminated;
    if (video_top.bai_stopped) ++run_.bai_stops;
    for (size_t rank = 0; rank < video_top.top.size(); ++rank) {
      ShardEntry entry;
      entry.video = name;
      entry.rank_in_video = static_cast<int>(rank);
      entry.sequence = video_top.top[rank];
      entry.merge_score = offline::RankedMergeScore(entry.sequence);
      run_.entries.push_back(std::move(entry));
    }
  }
  run_.modeled_ms = run_.accesses.ModeledMs(kShardSeekMs, kShardRowMs);
  // The gather stream: descending merge score. The tie order does not
  // affect the merged result (the coordinator re-sorts consumed entries
  // into single-node order), but (video, rank) keeps it deterministic.
  std::stable_sort(run_.entries.begin(), run_.entries.end(),
                   [](const ShardEntry& a, const ShardEntry& b) {
                     if (a.merge_score != b.merge_score) {
                       return a.merge_score > b.merge_score;
                     }
                     if (a.video != b.video) return a.video < b.video;
                     return a.rank_in_video < b.rank_in_video;
                   });
  has_run_ = true;
  return &run_;
}

ShardBatch Node::Batch(int shard, int index, int batch_size) const {
  VAQ_CHECK(has_run_);
  VAQ_CHECK_GT(batch_size, 0);
  ShardBatch batch;
  batch.shard = shard;
  batch.index = index;
  const size_t begin = static_cast<size_t>(index) *
                       static_cast<size_t>(batch_size);
  const size_t end =
      std::min(run_.entries.size(), begin + static_cast<size_t>(batch_size));
  for (size_t i = begin; i < end && i < run_.entries.size(); ++i) {
    batch.entries.push_back(run_.entries[i]);
    batch.wire_bytes += EntryWireBytes(run_.entries[i]);
  }
  batch.wire_bytes += 32;  // Header: shard, index, bound, count.
  if (end < run_.entries.size()) {
    batch.more = true;
    batch.next_bound = run_.entries[end].merge_score;
  }
  return batch;
}

int Node::NumBatches(int batch_size) const {
  VAQ_CHECK(has_run_);
  VAQ_CHECK_GT(batch_size, 0);
  return static_cast<int>((run_.entries.size() +
                           static_cast<size_t>(batch_size) - 1) /
                          static_cast<size_t>(batch_size));
}

void Node::ResetRun() {
  has_run_ = false;
  run_ = ShardRun();
}

}  // namespace cluster
}  // namespace vaq
