// Process-wide metric registry.
//
// The paper's evaluation is entirely metric-driven (F1 per query, model
// invocations and frame skips for the online engines, random accesses for
// the offline ones), but until now every component kept its own ad-hoc
// counters. `MetricRegistry` gives them a single home with a uniform
// export path (obs/export.h: Prometheus text and JSON):
//
//   * `Counter` — monotone int64 (invocations, retries, rejections);
//   * `Gauge`  — last-write-wins double (queue depth, breaker state);
//   * `Histogram` — fixed upper-bound buckets plus count/sum (latencies).
//
// Instruments are *labeled families*: the same name may exist with
// different label sets, e.g.
//
//   vaq_model_calls_total{domain="detector",outcome="ok"}
//   vaq_model_calls_total{domain="detector",outcome="timeout"}
//
// Registration (Get*) takes a mutex; the returned pointer is stable for
// the registry's lifetime, so hot paths resolve once (constructor or
// function-local static) and then touch a single relaxed `std::atomic` —
// cheap enough to sit inside the per-frame model loop. Families whose one
// varying label takes string-literal values (spans, message tags, engine
// names) resolve each value once through `CounterSlots`. "Once" means at
// first use: a series appears in exports exactly when it is first
// touched, never earlier.
//
// Determinism: every engine records *logical* quantities (event counts,
// simulated milliseconds) rather than wall time, and snapshots iterate
// families in sorted (name, labels) order, so a seeded run exports a
// byte-identical snapshot every time (the tier-1 `vaqctl metrics` check
// and tests/obs_integration_test.cc both assert this).
#ifndef VAQ_OBS_METRICS_H_
#define VAQ_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace vaq {
namespace obs {

// Label set of one family member, e.g. {{"model", "yolo"}}. Order is
// irrelevant: keys are sorted during canonicalization.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Monotone event counter. Relaxed atomics: per-series totals are exact
// because increments are atomic; no cross-series ordering is implied.
class Counter {
 public:
  void Increment(int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Last-write-wins instantaneous value. Stored as raw bits so the hot path
// stays a single atomic store (std::atomic<double> arithmetic is not
// needed; Add is a CAS loop for the rare accumulating gauge).
class Gauge {
 public:
  void Set(double v) { bits_.store(ToBits(v), std::memory_order_relaxed); }
  void Add(double d) {
    uint64_t old = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(old, ToBits(FromBits(old) + d),
                                        std::memory_order_relaxed)) {
    }
  }
  double value() const {
    return FromBits(bits_.load(std::memory_order_relaxed));
  }
  void Reset() { Set(0.0); }

 private:
  static uint64_t ToBits(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  static double FromBits(uint64_t bits) {
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::atomic<uint64_t> bits_{0};
};

// Fixed-bucket histogram: `bounds` are inclusive upper bounds in
// ascending order; an implicit +inf bucket catches the rest. Cumulative
// counts are derived at snapshot time (Prometheus convention).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  // Per-bucket (non-cumulative) count; index bounds_.size() is +inf.
  int64_t bucket_count(size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  void Reset();

  // Overwrites the histogram with a snapshot taken by TakeSnapshot
  // (checkpoint recovery). `bucket_counts` must have bounds().size() + 1
  // entries. Not atomic with respect to concurrent Observe calls;
  // recovery runs single-threaded before any engine restarts.
  void RestoreState(const std::vector<int64_t>& bucket_counts, int64_t count,
                    double sum);

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<int64_t>[]> counts_;  // bounds_.size() + 1.
  std::atomic<int64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};
};

// Latency-style default buckets (ms): sub-ms through minutes.
const std::vector<double>& DefaultLatencyBucketsMs();

// A point-in-time copy of every registered instrument, ordered by
// (name, canonical labels) — the exporters' input.
struct Snapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Labels labels;  // Canonical (key-sorted) order.
    Kind kind = Kind::kCounter;
    int64_t counter_value = 0;
    double gauge_value = 0.0;
    // Histogram payload (parallel to bounds, plus the +inf bucket last).
    std::vector<double> bounds;
    std::vector<int64_t> bucket_counts;
    int64_t hist_count = 0;
    double hist_sum = 0.0;

    // Checkpoint body (ckpt::Archive, DESIGN.md §10): one snapshot
    // record per instrument — name, kind, labels, then the values.
    template <typename Archive>
    void Persist(Archive& ar) {
      ar.String(name);
      uint32_t k = static_cast<uint32_t>(kind);
      ar.U32(k);
      if (k > static_cast<uint32_t>(Kind::kHistogram)) {
        ar.Fail(Status::Corruption("bad metric kind in checkpoint"));
        return;
      }
      kind = static_cast<Kind>(k);
      // A label is two length-prefixed strings, at least 8 bytes.
      ar.Vector(labels, 8, [&](std::pair<std::string, std::string>& label) {
        ar.String(label.first);
        ar.String(label.second);
      });
      switch (kind) {
        case Kind::kCounter:
          ar.I64(counter_value);
          break;
        case Kind::kGauge:
          ar.F64(gauge_value);
          break;
        case Kind::kHistogram: {
          // n bounds, n + 1 bucket counts, then count and sum: 16n + 24.
          bounds.resize(ar.Count(bounds.size(), 16, 24));
          bucket_counts.resize(bounds.size() + 1);
          for (double& b : bounds) ar.F64(b);
          for (int64_t& c : bucket_counts) ar.I64(c);
          ar.I64(hist_count);
          ar.F64(hist_sum);
          break;
        }
      }
    }
  };
  std::vector<Entry> entries;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // The process-wide registry every engine records into.
  static MetricRegistry& Global();

  // Get-or-create. The returned pointer is stable until the registry is
  // destroyed (never, for Global()); callers cache it. Aborts if `name`
  // is already registered with a different instrument kind, or — for
  // histograms — different bounds.
  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& bounds,
                          const Labels& labels = {});

  Snapshot TakeSnapshot() const;

  // Zeroes every instrument (pointers stay valid). Tests and one-shot
  // tools use this to scope a snapshot to a single run.
  void Reset();

  // Number of Get* calls so far, hits included. Not a metric: it is never
  // exported, snapshotted or reset. Tests read it to check that a hot
  // path resolves its series once rather than per call.
  int64_t lookups_for_testing() const {
    return lookups_.load(std::memory_order_relaxed);
  }

 private:
  struct Instrument {
    Snapshot::Kind kind;
    Labels labels;  // Canonical order, for snapshots.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  // Keyed by (name, canonical label string): std::map keeps snapshot
  // iteration deterministically sorted.
  mutable std::mutex mu_;
  std::map<std::pair<std::string, std::string>, Instrument> instruments_;
  std::atomic<int64_t> lookups_{0};
};

// The members of one global counter family that differ in a single label
// whose values are string literals, e.g. `vaq_span_total{span=...}`.
// Get(value) looks a member up in the registry the first time that value
// is counted and caches the pointer in a small lock-free table keyed by
// the literal's address; later calls make no registry lookup. Values must
// have static storage duration (two equal literals at different addresses
// just take two slots for one series). Optional fixed labels complete the
// label set. Meant as a function-local static: the constructor is
// constexpr, so the slots are constant-initialized.
class CounterSlots {
 public:
  constexpr CounterSlots(const char* name, const char* key,
                         const char* fixed_key = nullptr,
                         const char* fixed_value = nullptr)
      : name_(name),
        key_(key),
        fixed_key_(fixed_key),
        fixed_value_(fixed_value) {}
  CounterSlots(const CounterSlots&) = delete;
  CounterSlots& operator=(const CounterSlots&) = delete;

  Counter* Get(const char* value);

 private:
  static constexpr int kSlotBits = 5;  // 32 values; more fall back to Get*.
  struct Slot {
    std::atomic<const char*> value{nullptr};
    std::atomic<Counter*> counter{nullptr};
  };

  Counter* Resolve(const char* value) const;

  const char* name_;
  const char* key_;
  const char* fixed_key_;
  const char* fixed_value_;
  Slot slots_[size_t{1} << kSlotBits];
};

// Counts one entry into a named code region as
// `vaq_span_total{span="<name>"}`. `name` must be a string literal (e.g.
// "rvaq/run"): each one's counter is resolved at its first count and
// cached by address (CounterSlots). Only the count is kept: wall time per
// engine lives in the engines' own `*_wall_ms` result fields, never in
// this registry.
void CountSpan(const char* name);

// Canonical label rendering: key-sorted `k1="v1",k2="v2"` with
// backslash/quote/newline escaping (the Prometheus text convention).
std::string CanonicalLabels(Labels labels);

// Loads `snap` back into the global registry: instruments are created on
// demand (histograms with the snapshot's bounds) and overwritten with the
// recorded values. Instruments registered but absent from `snap` are left
// untouched — recovery paths Reset() first when they need a clean slate.
void RestoreSnapshot(const Snapshot& snap);

// Subset of `in` whose family names start with any of `prefixes`, order
// preserved. Tools and tests use this to export or compare only the
// *logical* families of a run (event counts, simulated milliseconds) and
// leave out scheduling-dependent ones such as queue-depth gauges.
Snapshot FilterSnapshot(const Snapshot& in,
                        const std::vector<std::string>& prefixes);

// The complement: every entry whose family name starts with none of
// `prefixes`. The cluster determinism suite compares a distributed run
// against the single-node reference after excluding the cluster's own
// `vaq_cluster_*` transport accounting — everything that remains must
// match byte-for-byte.
Snapshot ExcludeSnapshot(const Snapshot& in,
                         const std::vector<std::string>& prefixes);

}  // namespace obs
}  // namespace vaq

#endif  // VAQ_OBS_METRICS_H_
