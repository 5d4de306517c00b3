#include "offline/ingest.h"

#include <utility>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"

namespace vaq {
namespace offline {
namespace {

// Simulated materialization of one score table through faulty storage
// (mirrors PageCache's read-retry discipline on the write side): each
// 4096-byte page write may fail per the plan and is retried with a fresh
// attempt nonce; three consecutive failures abort the ingest. Tables get
// disjoint page-id ranges so their fault streams are independent.
Status MaterializeTable(const fault::FaultPlan* plan, int64_t table_ordinal,
                        int64_t num_rows) {
  if (plan == nullptr || plan->spec().page_error_rate <= 0.0) {
    return Status::OK();
  }
  constexpr int64_t kPageBytes = 4096;
  constexpr int64_t kRowBytes = 24;  // Sorted row + by-clip projection.
  constexpr int64_t kMaxAttempts = 3;
  const int64_t pages = 1 + (num_rows * kRowBytes + kPageBytes - 1) / kPageBytes;
  for (int64_t p = 0; p < pages; ++p) {
    const int64_t page_id = table_ordinal * (int64_t{1} << 32) + p;
    int64_t failed = 0;
    while (failed < kMaxAttempts && plan->PageReadFails(page_id, failed)) {
      ++failed;
    }
    if (failed == kMaxAttempts) {
      return Status::Unavailable(
          "storage fault persisted while materializing table " +
          std::to_string(table_ordinal) + " (page " + std::to_string(p) +
          ")");
    }
  }
  return Status::OK();
}

}  // namespace

Ingestor::Ingestor(const Vocabulary* vocab, const ScoringModel* scoring,
                   IngestOptions options)
    : vocab_(vocab), scoring_(scoring), options_(std::move(options)) {
  VAQ_CHECK(vocab != nullptr);
  VAQ_CHECK(scoring != nullptr);
}

StatusOr<storage::VideoIndex> Ingestor::Ingest(
    const synth::GroundTruth& truth,
    const detect::ModelBundle& models) const {
  obs::CountSpan("ingest/run");
  obs::Counter* metric_tables = obs::MetricRegistry::Global().GetCounter(
      "vaq_ingest_tables_built_total");
  const VideoLayout& layout = truth.layout();
  const int64_t num_clips = layout.NumClips();
  storage::VideoIndex index;
  index.video_id = truth.video_id();
  index.num_clips = num_clips;

  online::SvaqdOptions indicator_options = options_.indicator_options;
  if (options_.fault_plan != nullptr) {
    indicator_options.fault_plan = options_.fault_plan;
  }
  int64_t table_ordinal = 0;

  // --- Object types: tracker-scored tables + SVAQD individual sequences.
  for (ObjectTypeId type = 0; type < vocab_->num_object_types(); ++type) {
    obs::CountSpan("ingest/object_table");
    storage::TypeIndex entry;
    entry.type_id = type;
    entry.type_name = vocab_->ObjectTypeName(type);

    std::vector<storage::ScoreTable::Row> rows(
        static_cast<size_t>(num_clips));
    std::vector<std::pair<FrameIndex, detect::TrackDetection>> detections;
    std::vector<double> scores;
    const double threshold = models.tracker->profile().threshold;
    for (ClipIndex c = 0; c < num_clips; ++c) {
      detections.clear();
      models.tracker->DetectRange(type, layout.ClipFrameRange(c),
                                  &detections);
      scores.clear();
      for (const auto& [frame, det] : detections) {
        if (!options_.threshold_object_scores || det.score >= threshold) {
          scores.push_back(det.score);
        }
      }
      rows[static_cast<size_t>(c)] = {c,
                                      scoring_->AggregateTypeScores(scores)};
    }
    VAQ_ASSIGN_OR_RETURN(entry.table,
                         storage::ScoreTable::Build(std::move(rows)));
    VAQ_RETURN_IF_ERROR(
        MaterializeTable(options_.fault_plan, table_ordinal++, num_clips));
    metric_tables->Increment();

    // Individual sequences via a single-predicate SVAQD run (§4.2).
    QuerySpec single;
    single.objects = {type};
    online::Svaqd svaqd(single, layout, indicator_options);
    entry.sequences =
        svaqd.Run(models.detector.get(), /*recognizer=*/nullptr).sequences;
    index.objects.push_back(std::move(entry));
  }

  // --- Action types: recognizer-scored tables + SVAQD individual
  // sequences.
  for (ActionTypeId type = 0; type < vocab_->num_action_types(); ++type) {
    obs::CountSpan("ingest/action_table");
    storage::TypeIndex entry;
    entry.type_id = type;
    entry.type_name = vocab_->ActionTypeName(type);

    std::vector<storage::ScoreTable::Row> rows(
        static_cast<size_t>(num_clips));
    std::vector<double> scores;
    for (ClipIndex c = 0; c < num_clips; ++c) {
      const Interval shots = layout.ClipShotRange(c);
      scores.clear();
      for (ShotIndex s = shots.lo; s <= shots.hi; ++s) {
        scores.push_back(models.recognizer->Score(type, s));
      }
      rows[static_cast<size_t>(c)] = {c,
                                      scoring_->AggregateTypeScores(scores)};
    }
    VAQ_ASSIGN_OR_RETURN(entry.table,
                         storage::ScoreTable::Build(std::move(rows)));
    VAQ_RETURN_IF_ERROR(
        MaterializeTable(options_.fault_plan, table_ordinal++, num_clips));
    metric_tables->Increment();

    QuerySpec single;
    single.action = type;
    online::Svaqd svaqd(single, layout, indicator_options);
    entry.sequences =
        svaqd.Run(/*detector=*/nullptr, models.recognizer.get()).sequences;
    index.actions.push_back(std::move(entry));
  }
  return index;
}

}  // namespace offline
}  // namespace vaq
