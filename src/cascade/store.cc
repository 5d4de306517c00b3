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

// The proxy blob's body: a header record, then one record per column.
void PersistProxyIndex(ckpt::Archive& ar, ProxyVideoIndex& index) {
  uint32_t n_columns = static_cast<uint32_t>(index.columns.size());
  const bool header = ar.Record(kTagHeader, [&] {
    ar.String(index.video);
    ar.I64(index.num_clips);
    ar.F64(index.frames_per_clip);
    ar.F64(index.shots_per_clip);
    ar.U64(index.fingerprint);
    ar.U32(n_columns);
  });
  for (uint32_t c = 0; header && c < n_columns; ++c) {
    if (ar.loading()) index.columns.emplace_back();
    ProxyColumn& column = index.columns[c];
    const bool found = ar.Record(kTagColumn, [&] {
      ar.String(column.concept_name);
      ar.Vector(column.scores, 8, [&](double& score) { ar.F64(score); });
      ar.Vector(column.heldout_positive, 8,
                [&](double& score) { ar.F64(score); });
    });
    if (!found) break;
  }
  if (index.columns.size() != n_columns || !header) {
    ar.Fail(Status::Corruption("proxy blob missing header or columns"));
  }
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
  // Persist takes its fields by mutable reference in both directions; a
  // copy (one per video, off the query path) keeps `index` untouched.
  ProxyVideoIndex fields = index;
  VAQ_RETURN_IF_ERROR(store->Put(
      entry, ckpt::SaveBlob([&](ckpt::Archive& ar) {
        PersistProxyIndex(ar, fields);
      })));
  Count("vaq_ckpt_proxy_stores_total");
  return Status::OK();
}

StatusOr<ProxyVideoIndex> LoadProxyIndex(const ckpt::Store& store,
                                         const std::string& video,
                                         uint64_t expected_fingerprint) {
  VAQ_ASSIGN_OR_RETURN(const std::string blob,
                       store.Get(ProxyEntryName(video)));
  ProxyVideoIndex index;
  VAQ_RETURN_IF_ERROR(ckpt::LoadBlob(
      blob, [&](ckpt::Archive& ar) { PersistProxyIndex(ar, index); }));
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
