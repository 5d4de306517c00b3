#include "ckpt/metrics_io.h"

namespace vaq {
namespace ckpt {

void EncodeMetricEntry(const obs::Snapshot::Entry& entry, Payload* out) {
  out->PutString(entry.name);
  out->PutU32(static_cast<uint32_t>(entry.kind));
  out->PutU32(static_cast<uint32_t>(entry.labels.size()));
  for (const auto& [key, value] : entry.labels) {
    out->PutString(key);
    out->PutString(value);
  }
  switch (entry.kind) {
    case obs::Snapshot::Kind::kCounter:
      out->PutI64(entry.counter_value);
      break;
    case obs::Snapshot::Kind::kGauge:
      out->PutF64(entry.gauge_value);
      break;
    case obs::Snapshot::Kind::kHistogram:
      out->PutU32(static_cast<uint32_t>(entry.bounds.size()));
      for (const double b : entry.bounds) out->PutF64(b);
      for (const int64_t c : entry.bucket_counts) out->PutI64(c);
      out->PutI64(entry.hist_count);
      out->PutF64(entry.hist_sum);
      break;
  }
}

Status DecodeMetricEntry(PayloadReader* in, obs::Snapshot::Entry* out) {
  *out = obs::Snapshot::Entry();
  VAQ_RETURN_IF_ERROR(in->GetString(&out->name));
  uint32_t kind = 0;
  VAQ_RETURN_IF_ERROR(in->GetU32(&kind));
  if (kind > static_cast<uint32_t>(obs::Snapshot::Kind::kHistogram)) {
    return Status::Corruption("bad metric kind in checkpoint");
  }
  out->kind = static_cast<obs::Snapshot::Kind>(kind);
  uint32_t n_labels = 0;
  VAQ_RETURN_IF_ERROR(in->GetU32(&n_labels));
  // Trust a count only once its bytes are present: each label is two
  // length-prefixed strings, at least 8 bytes.
  if (n_labels > in->remaining() / 8) {
    return Status::Corruption("metric label count overruns its record");
  }
  out->labels.reserve(n_labels);
  for (uint32_t i = 0; i < n_labels; ++i) {
    std::string key, value;
    VAQ_RETURN_IF_ERROR(in->GetString(&key));
    VAQ_RETURN_IF_ERROR(in->GetString(&value));
    out->labels.emplace_back(std::move(key), std::move(value));
  }
  switch (out->kind) {
    case obs::Snapshot::Kind::kCounter:
      VAQ_RETURN_IF_ERROR(in->GetI64(&out->counter_value));
      break;
    case obs::Snapshot::Kind::kGauge:
      VAQ_RETURN_IF_ERROR(in->GetF64(&out->gauge_value));
      break;
    case obs::Snapshot::Kind::kHistogram: {
      uint32_t n_bounds = 0;
      VAQ_RETURN_IF_ERROR(in->GetU32(&n_bounds));
      // n bounds, n + 1 bucket counts, then count and sum: 16n + 24 bytes.
      if (uint64_t{n_bounds} * 16 + 24 > in->remaining()) {
        return Status::Corruption("histogram bucket count overruns its record");
      }
      out->bounds.resize(n_bounds);
      for (uint32_t i = 0; i < n_bounds; ++i) {
        VAQ_RETURN_IF_ERROR(in->GetF64(&out->bounds[i]));
      }
      out->bucket_counts.resize(size_t{n_bounds} + 1);
      for (uint32_t i = 0; i <= n_bounds; ++i) {
        VAQ_RETURN_IF_ERROR(in->GetI64(&out->bucket_counts[i]));
      }
      VAQ_RETURN_IF_ERROR(in->GetI64(&out->hist_count));
      VAQ_RETURN_IF_ERROR(in->GetF64(&out->hist_sum));
      break;
    }
  }
  return Status::OK();
}

}  // namespace ckpt
}  // namespace vaq
