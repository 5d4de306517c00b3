// Shared detection cache for the concurrent serving runtime.
//
// Several standing queries routinely watch the *same* stream: an operator
// dashboard asks for "running AND dog" while an alerting rule asks for
// "running AND car" over the identical camera feed. Running each query
// with a private detect::ModelBundle would re-run the detector over every
// frame once per query. `SharedDetectionCache` instead keeps one bundle
// per (source, model stack), and the models' own caches then deduplicate
// work *across queries*. The per-unit inference flags make a frame (or
// shot) cost one priced inference however many queries read it; the
// detector's and recognizer's score memo (detect::ScoreMemo) returns the
// stored score of a (type, unit) already drawn instead of redrawing it.
// The memo is a pure cache: scores are a pure function of (seed, type,
// unit), so a hit is bit-identical to a fresh draw, every lookup is still
// counted, and nothing of it is checkpointed. The second query over a
// stream therefore pays only memo lookups, not fresh network invocations.
//
// Concurrency contract: the cache's own map is mutex-guarded, so bundles
// may be acquired from any worker thread. The *bundles* themselves are
// not thread-safe — the serving runtime guarantees that at most one
// worker runs queries against a given source at a time (per-stream
// sharding, src/serve/server.h), which also pins every bundle to one
// thread at a time with mutex hand-off in between. Do not use a bundle
// returned by Acquire() outside such a serialization regime.
#ifndef VAQ_SERVE_DETECTION_CACHE_H_
#define VAQ_SERVE_DETECTION_CACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "detect/models.h"

namespace vaq {
namespace serve {

class SharedDetectionCache {
 public:
  using Factory = std::function<detect::ModelBundle()>;

  // Returns the bundle for (source, stack), building it with `factory` on
  // first use. The pointer is stable until Clear() or destruction.
  // `created` (optional) reports whether this call built the bundle.
  detect::ModelBundle* Acquire(const std::string& source,
                               const std::string& stack,
                               const Factory& factory,
                               bool* created = nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = bundles_.try_emplace(std::make_pair(source, stack));
    if (inserted) {
      it->second = std::make_unique<detect::ModelBundle>(factory());
      ++bundles_created_;
    } else {
      ++bundle_reuses_;
    }
    if (created != nullptr) *created = inserted;
    return it->second.get();
  }

  int64_t bundles_created() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bundles_created_;
  }
  int64_t bundle_reuses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bundle_reuses_;
  }

  // The bundle for (source, stack) if one is cached, else nullptr. No
  // reuse accounting — checkpointing uses this to address bundles without
  // perturbing the counters it is about to persist or restore.
  detect::ModelBundle* Find(const std::string& source,
                            const std::string& stack) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = bundles_.find(std::make_pair(source, stack));
    return it == bundles_.end() ? nullptr : it->second.get();
  }

  // Visits every cached bundle in key order under the cache lock (the
  // visitor must not call back into the cache). Snapshots iterate this
  // to persist the bundles' cumulative model stats.
  void ForEach(const std::function<void(const std::string& source,
                                        const std::string& stack,
                                        detect::ModelBundle* bundle)>& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [key, bundle] : bundles_) {
      fn(key.first, key.second, bundle.get());
    }
  }

  // Checkpoint body of the reuse accounting (ckpt::Archive, DESIGN.md
  // §10). Loading overwrites it: the recovered process re-acquires its
  // bundles, which would otherwise double-count creations.
  template <typename Archive>
  void PersistCounters(Archive& ar) {
    std::lock_guard<std::mutex> lock(mu_);
    ar.I64(bundles_created_);
    ar.I64(bundle_reuses_);
  }

  // Drops every cached bundle (and its memoized inferences).
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    bundles_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::map<std::pair<std::string, std::string>,
           std::unique_ptr<detect::ModelBundle>>
      bundles_;
  int64_t bundles_created_ = 0;
  int64_t bundle_reuses_ = 0;
};

}  // namespace serve
}  // namespace vaq

#endif  // VAQ_SERVE_DETECTION_CACHE_H_
