// Bench-side tracing for the wall-clock benchmark.
//
// SpanRecorder keeps every span of a traced run in memory (name, detail,
// op id, start, end, parent) and writes them out once the run is over.
// Spans are opened only from the benchmark's own files, around the public
// calls into each layer, plus two decorators at the program's pluggable
// seams: TimedStore (ckpt::Store) and TimedBackend (query::RankedBackend).
// The driver is single-threaded, so parentage is a plain stack.
#ifndef VAQ_PERFBENCH_SPANS_H_
#define VAQ_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ckpt/store.h"
#include "common/status.h"
#include "query/session.h"

namespace vaq {
namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  const char* detail = "";  // Statement kind etc.; "" when unused.
  int64_t op = -1;          // Workload op the span belongs to; -1 = setup.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;      // Index into SpanRecorder::spans(); -1 = root.
};

class SpanRecorder {
 public:
  // Spans are recorded only while enabled.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  // The op id stamped on spans opened from now on (-1 = setup work).
  void set_op(int64_t op) { op_ = op; }

  int32_t Begin(const char* name, const char* detail) {
    Span span;
    span.name = name;
    span.detail = detail;
    span.op = op_;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_ns = NowNs();
    spans_.push_back(span);
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }
  void End(int32_t index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of span `i`: its duration minus the time its direct
  // children cover (children nest and never overlap on one thread).
  std::vector<int64_t> SelfNs() const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
      }
    }
    return self;
  }

  // One JSON object per line; times relative to the first span.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_) {
      std::fprintf(out,
                   "{\"name\":\"%s\",\"detail\":\"%s\",\"op\":%lld,"
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d}\n",
                   s.name, s.detail, static_cast<long long>(s.op),
                   static_cast<long long>(s.start_ns - epoch),
                   static_cast<long long>(s.end_ns - epoch), s.parent);
    }
    return std::fclose(out) == 0;
  }

 private:
  bool enabled_ = false;
  int64_t op_ = -1;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// RAII span; a no-op while the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, const char* detail = "")
      : recorder_(recorder->enabled() ? recorder : nullptr),
        index_(recorder_ != nullptr ? recorder_->Begin(name, detail) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t index_;
};

// ckpt::Store decorator: a span per call, and the bytes written counted
// whether or not tracing is on (a logical quantity, like the registry's).
class TimedStore : public ckpt::Store {
 public:
  TimedStore(ckpt::Store* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  Status Put(const std::string& name, const std::string& bytes) override {
    ScopedSpan span(recorder_, "ckpt.Put");
    bytes_written_ += static_cast<int64_t>(bytes.size());
    return inner_->Put(name, bytes);
  }
  StatusOr<std::string> Get(const std::string& name) const override {
    ScopedSpan span(recorder_, "ckpt.Get");
    return inner_->Get(name);
  }
  Status Append(const std::string& name, const std::string& bytes) override {
    ScopedSpan span(recorder_, "ckpt.Append");
    bytes_written_ += static_cast<int64_t>(bytes.size());
    return inner_->Append(name, bytes);
  }
  Status Delete(const std::string& name) override {
    ScopedSpan span(recorder_, "ckpt.Delete");
    return inner_->Delete(name);
  }
  StatusOr<std::vector<std::string>> List() const override {
    ScopedSpan span(recorder_, "ckpt.List");
    return inner_->List();
  }

  int64_t bytes_written() const { return bytes_written_; }

 private:
  ckpt::Store* inner_;
  SpanRecorder* recorder_;
  int64_t bytes_written_ = 0;
};

// query::RankedBackend decorator around the cluster coordinator.
class TimedBackend : public query::RankedBackend {
 public:
  TimedBackend(query::RankedBackend* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  StatusOr<query::QueryResult> ExecuteRanked(
      const query::QueryStatement& stmt,
      const obs::QueryContext& ctx) override {
    ScopedSpan span(recorder_, "cluster.ExecuteRanked");
    return inner_->ExecuteRanked(stmt, ctx);
  }

 private:
  query::RankedBackend* inner_;
  SpanRecorder* recorder_;
};

}  // namespace perfbench
}  // namespace vaq

#endif  // VAQ_PERFBENCH_SPANS_H_
