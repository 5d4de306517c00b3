#include "cascade/store.h"

#include <utility>

#include "ckpt/serializer.h"
#include "obs/metrics.h"

namespace vaq {
namespace cascade {
namespace {

// Record tags within a proxy blob. Append-only within a format version.
constexpr uint32_t kTagHeader = 1;
constexpr uint32_t kTagColumn = 2;

void Count(const char* name) {
  obs::MetricRegistry::Global().GetCounter(name)->Increment(1);
}

std::string EncodeProxyIndex(const ProxyVideoIndex& index) {
  ckpt::Serializer serializer;
  ckpt::Payload header;
  header.PutString(index.video);
  header.PutI64(index.num_clips);
  header.PutF64(index.frames_per_clip);
  header.PutF64(index.shots_per_clip);
  header.PutU64(index.fingerprint);
  header.PutU32(static_cast<uint32_t>(index.columns.size()));
  serializer.Append(kTagHeader, header);
  for (const ProxyColumn& column : index.columns) {
    ckpt::Payload payload;
    payload.PutString(column.concept_name);
    payload.PutU32(static_cast<uint32_t>(column.scores.size()));
    for (const double score : column.scores) payload.PutF64(score);
    payload.PutU32(static_cast<uint32_t>(column.heldout_positive.size()));
    for (const double score : column.heldout_positive) payload.PutF64(score);
    serializer.Append(kTagColumn, payload);
  }
  return serializer.blob();
}

StatusOr<ProxyVideoIndex> DecodeProxyIndex(const std::string& blob) {
  VAQ_ASSIGN_OR_RETURN(ckpt::Deserializer reader,
                       ckpt::Deserializer::Open(blob));
  ProxyVideoIndex index;
  bool saw_header = false;
  uint32_t expected_columns = 0;
  ckpt::Record record;
  for (;;) {
    const Status status = reader.Next(&record);
    if (status.code() == StatusCode::kOutOfRange) break;
    VAQ_RETURN_IF_ERROR(status);
    ckpt::PayloadReader payload(record.payload);
    if (record.tag == kTagHeader) {
      VAQ_RETURN_IF_ERROR(payload.GetString(&index.video));
      VAQ_RETURN_IF_ERROR(payload.GetI64(&index.num_clips));
      VAQ_RETURN_IF_ERROR(payload.GetF64(&index.frames_per_clip));
      VAQ_RETURN_IF_ERROR(payload.GetF64(&index.shots_per_clip));
      VAQ_RETURN_IF_ERROR(payload.GetU64(&index.fingerprint));
      VAQ_RETURN_IF_ERROR(payload.GetU32(&expected_columns));
      saw_header = true;
    } else if (record.tag == kTagColumn) {
      ProxyColumn column;
      VAQ_RETURN_IF_ERROR(payload.GetString(&column.concept_name));
      uint32_t n = 0;
      VAQ_RETURN_IF_ERROR(payload.GetU32(&n));
      // Trust a count only once its 8-byte scores are present.
      if (n > payload.remaining() / 8) {
        return Status::Corruption("proxy column length overruns its record");
      }
      column.scores.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        VAQ_RETURN_IF_ERROR(payload.GetF64(&column.scores[i]));
      }
      VAQ_RETURN_IF_ERROR(payload.GetU32(&n));
      if (n > payload.remaining() / 8) {
        return Status::Corruption("proxy column length overruns its record");
      }
      column.heldout_positive.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        VAQ_RETURN_IF_ERROR(payload.GetF64(&column.heldout_positive[i]));
      }
      index.columns.push_back(std::move(column));
    }
    // Unknown tags: skipped (checksum already verified by the reader).
  }
  if (!saw_header || index.columns.size() != expected_columns) {
    return Status::Corruption("proxy blob missing header or columns");
  }
  return index;
}

}  // namespace

std::string ProxyEntryName(const std::string& video) {
  return "proxy-" + video;
}

Status SaveProxyIndex(ckpt::Store* store, const ProxyVideoIndex& index) {
  const std::string entry = ProxyEntryName(index.video);
  if (!ckpt::ValidEntryName(entry)) {
    return Status::InvalidArgument("invalid proxy entry name: " + entry);
  }
  VAQ_RETURN_IF_ERROR(store->Put(entry, EncodeProxyIndex(index)));
  Count("vaq_ckpt_proxy_stores_total");
  return Status::OK();
}

StatusOr<ProxyVideoIndex> LoadProxyIndex(const ckpt::Store& store,
                                         const std::string& video,
                                         uint64_t expected_fingerprint) {
  VAQ_ASSIGN_OR_RETURN(const std::string blob,
                       store.Get(ProxyEntryName(video)));
  VAQ_ASSIGN_OR_RETURN(ProxyVideoIndex index, DecodeProxyIndex(blob));
  if (index.fingerprint != expected_fingerprint) {
    return Status::FailedPrecondition(
        "proxy index for '" + video + "' is stale (fingerprint mismatch)");
  }
  Count("vaq_ckpt_proxy_loads_total");
  return index;
}

StatusOr<ProxyVideoIndex> LoadOrBuildProxyIndex(
    ckpt::Store* store, const std::string& video,
    const synth::Scenario& scenario, const detect::ModelProfile& profile,
    uint64_t seed) {
  const uint64_t fingerprint = ProxyFingerprint(profile, seed);
  if (store != nullptr) {
    auto loaded = LoadProxyIndex(*store, video, fingerprint);
    if (loaded.ok()) return loaded;
    if (loaded.status().code() != StatusCode::kNotFound) {
      // Stale or damaged: drop the entry and fall through to rebuild.
      Count("vaq_ckpt_proxy_invalidations_total");
      VAQ_RETURN_IF_ERROR(store->Delete(ProxyEntryName(video)));
    }
  }
  ProxyVideoIndex built = BuildProxyIndex(video, scenario, profile, seed);
  Count("vaq_ckpt_proxy_builds_total");
  if (store != nullptr) {
    VAQ_RETURN_IF_ERROR(SaveProxyIndex(store, built));
  }
  return built;
}

}  // namespace cascade
}  // namespace vaq
