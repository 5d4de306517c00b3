#include "obs/metrics.h"

#include <algorithm>

#include "common/logging.h"

namespace vaq {
namespace obs {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(new std::atomic<int64_t>[bounds_.size() + 1]) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    VAQ_CHECK_LT(bounds_[i - 1], bounds_[i]);
  }
  for (size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

void Histogram::Observe(double v) {
  // First bucket whose upper bound admits v; NaN lands in +inf.
  const size_t bucket =
      std::upper_bound(bounds_.begin(), bounds_.end(), v,
                       [](double value, double bound) {
                         return !(value > bound);  // value <= bound, NaN-safe.
                       }) -
      bounds_.begin();
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t old = sum_bits_.load(std::memory_order_relaxed);
  double next;
  do {
    double current;
    std::memcpy(&current, &old, sizeof(current));
    next = current + v;
    uint64_t next_bits;
    std::memcpy(&next_bits, &next, sizeof(next_bits));
    if (sum_bits_.compare_exchange_weak(old, next_bits,
                                        std::memory_order_relaxed)) {
      break;
    }
  } while (true);
}

double Histogram::sum() const {
  const uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
}

void Histogram::RestoreState(const std::vector<int64_t>& bucket_counts,
                             int64_t count, double sum) {
  VAQ_CHECK_EQ(bucket_counts.size(), bounds_.size() + 1)
      << "histogram restore with mismatched bucket count";
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(bucket_counts[i], std::memory_order_relaxed);
  }
  count_.store(count, std::memory_order_relaxed);
  uint64_t bits;
  std::memcpy(&bits, &sum, sizeof(bits));
  sum_bits_.store(bits, std::memory_order_relaxed);
}

const std::vector<double>& DefaultLatencyBucketsMs() {
  static const std::vector<double> buckets = {0.1, 0.5, 1,    5,    10,   50,
                                              100, 500, 1000, 5000, 10000};
  return buckets;
}

// ---------------------------------------------------------------------------
// MetricRegistry
// ---------------------------------------------------------------------------

std::string CanonicalLabels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  std::string out;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first;
    out += "=\"";
    for (const char c : labels[i].second) {
      switch (c) {
        case '\\':
          out += "\\\\";
          break;
        case '"':
          out += "\\\"";
          break;
        case '\n':
          out += "\\n";
          break;
        default:
          out += c;
      }
    }
    out += "\"";
  }
  return out;
}

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* const registry = [] {
    MetricRegistry* r = new MetricRegistry();
    // Surface rate-limited warn suppression (common/logging.h) as a
    // counter; common/ cannot depend on obs/, so the hook is inverted.
    // Registry Reset() zeroes it like every other counter.
    Counter* suppressed = r->GetCounter("vaq_log_suppressed_total", {});
    internal_logging::SetLogSuppressionListener(
        [suppressed](int64_t n) { suppressed->Increment(n); });
    return r;
  }();
  return *registry;
}

Counter* MetricRegistry::GetCounter(const std::string& name,
                                    const Labels& labels) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  Labels canonical = labels;
  std::sort(canonical.begin(), canonical.end());
  std::lock_guard<std::mutex> lock(mu_);
  Instrument& inst = instruments_[{name, CanonicalLabels(canonical)}];
  if (inst.counter == nullptr) {
    VAQ_CHECK(inst.gauge == nullptr && inst.histogram == nullptr)
        << "metric '" << name << "' re-registered with a different kind";
    inst.kind = Snapshot::Kind::kCounter;
    inst.labels = std::move(canonical);
    inst.counter = std::make_unique<Counter>();
  }
  return inst.counter.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name,
                                const Labels& labels) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  Labels canonical = labels;
  std::sort(canonical.begin(), canonical.end());
  std::lock_guard<std::mutex> lock(mu_);
  Instrument& inst = instruments_[{name, CanonicalLabels(canonical)}];
  if (inst.gauge == nullptr) {
    VAQ_CHECK(inst.counter == nullptr && inst.histogram == nullptr)
        << "metric '" << name << "' re-registered with a different kind";
    inst.kind = Snapshot::Kind::kGauge;
    inst.labels = std::move(canonical);
    inst.gauge = std::make_unique<Gauge>();
  }
  return inst.gauge.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        const std::vector<double>& bounds,
                                        const Labels& labels) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  Labels canonical = labels;
  std::sort(canonical.begin(), canonical.end());
  std::lock_guard<std::mutex> lock(mu_);
  Instrument& inst = instruments_[{name, CanonicalLabels(canonical)}];
  if (inst.histogram == nullptr) {
    VAQ_CHECK(inst.counter == nullptr && inst.gauge == nullptr)
        << "metric '" << name << "' re-registered with a different kind";
    inst.kind = Snapshot::Kind::kHistogram;
    inst.labels = std::move(canonical);
    inst.histogram = std::make_unique<Histogram>(bounds);
  } else {
    VAQ_CHECK(inst.histogram->bounds() == bounds)
        << "histogram '" << name << "' re-registered with different buckets";
  }
  return inst.histogram.get();
}

Snapshot MetricRegistry::TakeSnapshot() const {
  Snapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  snapshot.entries.reserve(instruments_.size());
  for (const auto& [key, inst] : instruments_) {
    Snapshot::Entry entry;
    entry.name = key.first;
    entry.labels = inst.labels;
    entry.kind = inst.kind;
    switch (inst.kind) {
      case Snapshot::Kind::kCounter:
        entry.counter_value = inst.counter->value();
        break;
      case Snapshot::Kind::kGauge:
        entry.gauge_value = inst.gauge->value();
        break;
      case Snapshot::Kind::kHistogram: {
        const Histogram& h = *inst.histogram;
        entry.bounds = h.bounds();
        entry.bucket_counts.resize(entry.bounds.size() + 1);
        for (size_t i = 0; i <= entry.bounds.size(); ++i) {
          entry.bucket_counts[i] = h.bucket_count(i);
        }
        entry.hist_count = h.count();
        entry.hist_sum = h.sum();
        break;
      }
    }
    snapshot.entries.push_back(std::move(entry));
  }
  return snapshot;
}

void MetricRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, inst] : instruments_) {
    switch (inst.kind) {
      case Snapshot::Kind::kCounter:
        inst.counter->Reset();
        break;
      case Snapshot::Kind::kGauge:
        inst.gauge->Reset();
        break;
      case Snapshot::Kind::kHistogram:
        inst.histogram->Reset();
        break;
    }
  }
}

Counter* CounterSlots::Resolve(const char* value) const {
  Labels labels = {{key_, value}};
  if (fixed_key_ != nullptr) labels.emplace_back(fixed_key_, fixed_value_);
  return MetricRegistry::Global().GetCounter(name_, labels);
}

Counter* CounterSlots::Get(const char* value) {
  constexpr size_t kMask = (size_t{1} << kSlotBits) - 1;
  // Fibonacci hashing of the literal's address picks the first slot.
  const uint64_t key = reinterpret_cast<uintptr_t>(value);
  size_t i = static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                 (64 - kSlotBits));
  for (size_t probe = 0; probe <= kMask; ++probe, i = (i + 1) & kMask) {
    Slot& slot = slots_[i];
    const char* owner = slot.value.load(std::memory_order_acquire);
    if (owner == nullptr &&
        slot.value.compare_exchange_strong(owner, value,
                                           std::memory_order_acq_rel)) {
      Counter* counter = Resolve(value);
      slot.counter.store(counter, std::memory_order_release);
      return counter;
    }
    // `owner` now names whoever holds the slot (possibly a racing claim).
    if (owner == value) {
      Counter* counter = slot.counter.load(std::memory_order_acquire);
      // A claim still being filled by another thread: resolve directly.
      return counter != nullptr ? counter : Resolve(value);
    }
  }
  return Resolve(value);  // Every slot taken by other values.
}

void CountSpan(const char* name) {
  static CounterSlots spans("vaq_span_total", "span");
  spans.Get(name)->Increment();
}

void RestoreSnapshot(const Snapshot& snap) {
  MetricRegistry& registry = MetricRegistry::Global();
  for (const Snapshot::Entry& entry : snap.entries) {
    switch (entry.kind) {
      case Snapshot::Kind::kCounter: {
        Counter* c = registry.GetCounter(entry.name, entry.labels);
        c->Reset();
        c->Increment(entry.counter_value);
        break;
      }
      case Snapshot::Kind::kGauge:
        registry.GetGauge(entry.name, entry.labels)->Set(entry.gauge_value);
        break;
      case Snapshot::Kind::kHistogram:
        registry.GetHistogram(entry.name, entry.bounds, entry.labels)
            ->RestoreState(entry.bucket_counts, entry.hist_count,
                           entry.hist_sum);
        break;
    }
  }
}

Snapshot FilterSnapshot(const Snapshot& in,
                        const std::vector<std::string>& prefixes) {
  Snapshot out;
  for (const Snapshot::Entry& entry : in.entries) {
    for (const std::string& prefix : prefixes) {
      if (entry.name.rfind(prefix, 0) == 0) {
        out.entries.push_back(entry);
        break;
      }
    }
  }
  return out;
}

Snapshot ExcludeSnapshot(const Snapshot& in,
                         const std::vector<std::string>& prefixes) {
  Snapshot out;
  for (const Snapshot::Entry& entry : in.entries) {
    bool excluded = false;
    for (const std::string& prefix : prefixes) {
      if (entry.name.rfind(prefix, 0) == 0) {
        excluded = true;
        break;
      }
    }
    if (!excluded) out.entries.push_back(entry);
  }
  return out;
}

}  // namespace obs
}  // namespace vaq
