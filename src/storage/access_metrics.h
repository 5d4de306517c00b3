// Mirrors an AccessCounter into the process-wide metric registry.
//
// The offline engines keep their paper-facing access accounting in
// `AccessCounter` (one per table, summed per run); this helper folds a
// finished run's totals into the labeled family
//
//   vaq_storage_accesses_total{engine="rvaq",kind="random"}
//
// so the Prometheus/JSON exporters see the same numbers Tables 6-8
// report. All five kinds are registered even when zero, keeping the
// snapshot shape independent of the data. `engine` is a string literal;
// each engine's series are resolved at its first run and then cached.
#ifndef VAQ_STORAGE_ACCESS_METRICS_H_
#define VAQ_STORAGE_ACCESS_METRICS_H_

#include "obs/metrics.h"
#include "storage/access_counter.h"

namespace vaq {
namespace storage {

inline void MirrorAccessCounter(const AccessCounter& counter,
                                const char* engine) {
  static obs::CounterSlots sorted("vaq_storage_accesses_total", "engine",
                                  "kind", "sorted");
  static obs::CounterSlots reverse("vaq_storage_accesses_total", "engine",
                                   "kind", "reverse");
  static obs::CounterSlots random("vaq_storage_accesses_total", "engine",
                                  "kind", "random");
  static obs::CounterSlots range_scan("vaq_storage_accesses_total", "engine",
                                      "kind", "range_scan");
  static obs::CounterSlots range_row("vaq_storage_accesses_total", "engine",
                                     "kind", "range_row");
  sorted.Get(engine)->Increment(counter.sorted_accesses);
  reverse.Get(engine)->Increment(counter.reverse_accesses);
  random.Get(engine)->Increment(counter.random_accesses);
  range_scan.Get(engine)->Increment(counter.range_scans);
  range_row.Get(engine)->Increment(counter.range_rows);
}

}  // namespace storage
}  // namespace vaq

#endif  // VAQ_STORAGE_ACCESS_METRICS_H_
