#include "online/cnf_engine.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "ckpt/serializer.h"
#include "common/logging.h"
#include "detect/resilient.h"
#include "fault/sim_clock.h"
#include "online/predicate_state.h"

namespace vaq {
namespace online {

using internal_online::PredicateState;

namespace {

// Record tags of the engine's snapshot blob, in format order (append-only
// within a ckpt::kFormatVersion). Both v1 layouts share tags 1-3: the
// conjunctive layout adds 4-6, the CNF layout 5-8.
enum EngineTag : uint32_t {
  kTagMeta = 1,
  kTagSequences = 2,
  kTagLiteral = 3,  // Conjunctive: one object predicate.
  kTagActionPredicate = 4,
  kTagDetectorCore = 5,
  kTagRecognizerCore = 6,
  // CNF only, written under a fault plan or burst awareness: the
  // degraded/dropped counts and the clock, then each literal's moments.
  kTagFaultMeta = 7,
  kTagLiteralMoments = 8,
};

// Fallback positive probability for one literal's missing observations.
double FallbackRate(MissingObsPolicy policy, const PredicateState& state) {
  switch (policy) {
    case MissingObsPolicy::kAssumeNegative:
      return 0.0;
    case MissingObsPolicy::kCarryLast:
      return state.last_observed_rate;
    case MissingObsPolicy::kBackgroundPrior:
      return state.estimator.rate();
  }
  return 0.0;
}

void Tally(bool positive, int64_t* count, int64_t* /*missing*/) {
  if (positive) ++*count;
}
void Tally(const StatusOr<bool>& positive, int64_t* count, int64_t* missing) {
  if (!positive.ok()) {
    ++*missing;
  } else if (*positive) {
    ++*count;
  }
}

// Runs `model` over every unit of `units`: positive and abandoned units
// land in *count / *missing.
template <typename Model>
void Scan(Model* model, int32_t type, Interval units, int64_t* count,
          int64_t* missing) {
  for (int64_t u = units.lo; u <= units.hi; ++u) {
    Tally(model->IsPositive(type, u), count, missing);
  }
}

void Increment(obs::Counter* counter) {
  if (counter != nullptr) counter->Increment();
}

double SimulatedMs(detect::ObjectDetector* detector,
                   detect::ActionRecognizer* recognizer) {
  double ms = 0.0;
  if (detector != nullptr) ms += detector->stats().simulated_ms;
  if (recognizer != nullptr) ms += recognizer->stats().simulated_ms;
  return ms;
}

}  // namespace

namespace internal_online {

EngineSeries BatchSeries(const char* engine) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  EngineSeries series;
  series.clips =
      registry.GetCounter("vaq_clips_processed_total", {{"engine", engine}});
  series.rejections = registry.GetCounter("vaq_scanstat_rejections_total",
                                          {{"engine", engine}});
  series.clip_ms = registry.GetHistogram("vaq_clip_eval_simulated_ms",
                                         obs::DefaultLatencyBucketsMs(),
                                         {{"engine", engine}});
  return series;
}

}  // namespace internal_online

struct CnfStream::Impl {
  // One literal: its predicate, adaptive state and this clip's
  // observation.
  struct Slot {
    Literal literal;
    PredicateState state;
    int64_t count = -1;   // Positive units this clip; -1 = not evaluated.
    int64_t missing = 0;  // Abandoned units this clip.
  };

  std::vector<Slot> slots;
  // Clause literals resolved to slot indices.
  std::vector<std::vector<size_t>> clause_slots;
  bool needs_detector = false;
  bool needs_recognizer = false;
  internal_online::EngineSeries series;
  Callback callback;

  // Fault path: the simulated clock and the wrappers' retry/breaker
  // state. A state slot is filled when its wrapper binds (to the model
  // instances of the first PushClip) or when a checkpoint loads it; the
  // wrapper mutates it in place and Persist reads it, so a loaded slot
  // survives into the next snapshot whether or not a wrapper has bound.
  fault::SimClock clock;
  std::optional<detect::ResilienceState> detector_state;
  std::optional<detect::ResilienceState> recognizer_state;
  std::unique_ptr<detect::ResilientObjectDetector> rdetector;
  std::unique_ptr<detect::ResilientActionRecognizer> rrecognizer;

  void Emit(SequenceEvent::Kind kind, Interval sequence, ClipIndex clip) {
    if (callback) callback({kind, sequence, clip});
  }
};

CnfStream::CnfStream(CnfQuery query, VideoLayout layout,
                     CnfEngineOptions options)
    : CnfStream(std::move(query), /*conjunctive=*/false, layout,
                std::move(options), {}, nullptr) {}

CnfStream::CnfStream(const QuerySpec& query, VideoLayout layout,
                     CnfEngineOptions options,
                     internal_online::EngineSeries series, Callback callback)
    : CnfStream(CnfQuery::FromConjunctive(query), /*conjunctive=*/true,
                layout, std::move(options), series, std::move(callback)) {}

CnfStream::CnfStream(CnfQuery query, bool conjunctive, VideoLayout layout,
                     CnfEngineOptions options,
                     internal_online::EngineSeries series, Callback callback)
    : layout_(layout),
      options_(std::move(options)),
      conjunctive_(conjunctive),
      impl_(std::make_unique<Impl>()) {
  const SvaqdOptions& o = options_.svaqd;
  const SvaqOptions& base = o.base;
  const bool per_object_p0 = conjunctive_ && !base.p0_per_object.empty();
  if (!conjunctive_) VAQ_CHECK(!query.empty());
  impl_->series = series;
  impl_->callback = std::move(callback);
  // A conjunctive query keeps one slot per clause (its position); a CNF
  // query one per distinct literal.
  std::vector<Literal> literals;
  if (conjunctive_) {
    for (const Clause& clause : query.clauses) {
      literals.push_back(clause.literals[0]);
    }
  } else {
    literals = query.DistinctLiterals();
  }
  const auto is_object = [](const Literal& literal) {
    return literal.kind == Literal::Kind::kObject;
  };
  if (per_object_p0) {
    VAQ_CHECK_EQ(base.p0_per_object.size(),
                 static_cast<size_t>(std::count_if(
                     literals.begin(), literals.end(), is_object)));
  }
  impl_->slots.reserve(literals.size());
  size_t object_index = 0;
  for (const Literal& literal : literals) {
    const bool object = is_object(literal);
    (object ? impl_->needs_detector : impl_->needs_recognizer) = true;
    double p0 = base.p0_action;
    if (object) {
      p0 = per_object_p0 ? base.p0_per_object[object_index++]
                         : base.p0_object;
    }
    impl_->slots.push_back(Impl::Slot{
        literal,
        PredicateState(
            object ? o.bandwidth_frames : o.bandwidth_shots, p0,
            o.prior_weight,
            object ? ObjectScanConfig(layout_, base)
                   : ActionScanConfig(layout_, base),
            o.burst_aware)});
  }
  impl_->clause_slots.resize(query.clauses.size());
  for (size_t c = 0; c < query.clauses.size(); ++c) {
    for (const Literal& literal : query.clauses[c].literals) {
      const auto distinct =
          std::find(literals.begin(), literals.end(), literal);
      impl_->clause_slots[c].push_back(
          conjunctive_ ? c
                       : static_cast<size_t>(distinct - literals.begin()));
    }
  }
}

CnfStream::~CnfStream() = default;

Status CnfStream::CheckPushable() const {
  if (finished_) {
    return Status::FailedPrecondition("PushClip after Finish");
  }
  if (next_clip_ >= layout_.NumClips()) {
    return Status::OutOfRange(
        "stream exceeds the layout's design horizon of " +
        std::to_string(layout_.NumClips()) + " clips");
  }
  return Status::OK();
}

StatusOr<bool> CnfStream::PushClip(detect::ObjectDetector* detector,
                                   detect::ActionRecognizer* recognizer) {
  VAQ_RETURN_IF_ERROR(CheckPushable());
  Impl& s = *impl_;
  if (s.needs_detector && detector == nullptr) {
    return Status::InvalidArgument("query with object literals "
                                   "requires a detector");
  }
  if (s.needs_recognizer && recognizer == nullptr) {
    return Status::InvalidArgument("query with action literals "
                                   "requires a recognizer");
  }
  // The wrappers are bound to the models seen on the first push; the
  // retry nonces and breaker state are meaningless across instances.
  if (detector != nullptr && s.rdetector != nullptr &&
      s.rdetector->inner() != detector) {
    return Status::InvalidArgument(
        "PushClip called with a different detector instance");
  }
  if (recognizer != nullptr && s.rrecognizer != nullptr &&
      s.rrecognizer->inner() != recognizer) {
    return Status::InvalidArgument(
        "PushClip called with a different recognizer instance");
  }

  // Every check has passed: from here on the clip is consumed.
  const SvaqdOptions& o = options_.svaqd;
  const fault::FaultPlan* plan = o.fault_plan;
  const double start_ms =
      s.series.clip_ms != nullptr ? SimulatedMs(detector, recognizer) : 0.0;
  const ClipIndex clip = next_clip_++;
  if (plan != nullptr) {
    s.clock.Advance(o.resilience.clip_interval_ms);
    if (detector != nullptr && s.rdetector == nullptr) {
      if (!s.detector_state) s.detector_state.emplace();
      s.rdetector = std::make_unique<detect::ResilientObjectDetector>(
          detector, plan, o.resilience, &s.clock, &*s.detector_state);
    }
    if (recognizer != nullptr && s.rrecognizer == nullptr) {
      if (!s.recognizer_state) s.recognizer_state.emplace();
      s.rrecognizer = std::make_unique<detect::ResilientActionRecognizer>(
          recognizer, plan, o.resilience, &s.clock, &*s.recognizer_state);
    }
  }
  const Interval frames = layout_.ClipFrameRange(clip);
  const Interval shots = layout_.ClipShotRange(clip);
  using Slot = Impl::Slot;
  const auto units = [&](const Slot& slot) {
    return slot.literal.kind == Literal::Kind::kObject ? frames : shots;
  };

  // Charges a literal's missing units to its model as policy fallbacks.
  const auto charge_fallbacks = [&](const Slot& slot) {
    if (slot.literal.kind == Literal::Kind::kObject) {
      if (s.rdetector != nullptr) s.rdetector->CountFallbacks(slot.missing);
    } else if (s.rrecognizer != nullptr) {
      s.rrecognizer->CountFallbacks(slot.missing);
    }
  };
  bool degraded = false;
  const auto observe = [&](Slot& slot) {
    slot.count = 0;
    slot.missing = 0;
    const int32_t type = slot.literal.type;
    if (slot.literal.kind == Literal::Kind::kObject) {
      if (s.rdetector != nullptr) {
        Scan(s.rdetector.get(), type, frames, &slot.count, &slot.missing);
      } else {
        Scan(detector, type, frames, &slot.count, &slot.missing);
      }
    } else if (s.rrecognizer != nullptr) {
      Scan(s.rrecognizer.get(), type, shots, &slot.count, &slot.missing);
    } else {
      Scan(recognizer, type, shots, &slot.count, &slot.missing);
    }
    if (slot.missing > 0) {
      charge_fallbacks(slot);
      degraded = true;
    }
  };
  // A literal fires when observed + missing * fallback >= k_crit.
  const auto fires = [&](const Slot& slot) {
    if (slot.missing == 0) return slot.count >= slot.state.kcrit;
    const double fallback = FallbackRate(o.missing_policy, slot.state);
    return static_cast<double>(slot.count) +
               static_cast<double>(slot.missing) * fallback >=
           static_cast<double>(slot.state.kcrit);
  };

  for (Slot& slot : s.slots) slot.count = -1;
  const bool dropped = plan != nullptr && plan->DropClip(clip);
  if (dropped) {
    // The segment never arrived: every unit of every literal is missing,
    // no model is invoked, and the indicators are pure policy decisions.
    degraded = true;
    for (Slot& slot : s.slots) {
      slot.count = 0;
      slot.missing = units(slot).length();
      charge_fallbacks(slot);
    }
  }
  const bool probe = o.probe_period > 0 && clip % o.probe_period == 0;
  const bool short_circuit = o.base.short_circuit && !probe;
  bool positive = true;
  for (const std::vector<size_t>& clause : s.clause_slots) {
    bool clause_fired = false;
    for (const size_t index : clause) {
      Slot& slot = s.slots[index];
      if (slot.count < 0) observe(slot);  // Once per clip per literal.
      if (fires(slot)) {
        clause_fired = true;
        if (short_circuit) break;  // OR short-circuit.
      }
    }
    if (!clause_fired) {
      positive = false;
      if (short_circuit) break;  // AND short-circuit.
    }
  }

  Increment(s.series.clips);
  if (positive) Increment(s.series.rejections);
  if (degraded) {
    // A degraded clip is exactly one where the missing-observation (gap)
    // policy had to fill in for abandoned model calls.
    ++degraded_clips_;
    Increment(s.series.degraded);
    Increment(s.series.gap_policy);
    Increment(s.series.gap);
    s.Emit(SequenceEvent::Kind::kGap, Interval(clip, clip), clip);
  }
  if (dropped) {
    ++dropped_clips_;
    Increment(s.series.dropped);
  }
  if (s.series.clip_ms != nullptr) {
    s.series.clip_ms->Observe(SimulatedMs(detector, recognizer) - start_ms);
  }

  // Adaptive update. Only successfully observed units count, so injected
  // faults cannot bias the background rates.
  const UpdatePolicy update = o.update_policy;
  const bool clip_gate =
      update == UpdatePolicy::kAllClips ||
      update == UpdatePolicy::kSelfExcluding ||
      (update == UpdatePolicy::kNegativeClipsOnly && !positive) ||
      (update == UpdatePolicy::kPositiveClipsOnly && positive);
  for (Slot& slot : s.slots) {
    if (slot.count < 0) continue;
    const int64_t observed = units(slot).length() - slot.missing;
    if (observed <= 0) continue;
    // Carry-last tracking: the literal's most recent observed rate.
    slot.state.last_observed_rate = static_cast<double>(slot.count) /
                                    static_cast<double>(observed);
    if (!options_.adaptive || !clip_gate) continue;
    if (update == UpdatePolicy::kSelfExcluding && 8 * slot.count >= observed) {
      continue;  // Literal plainly satisfied: not background.
    }
    slot.state.estimator.ObserveBatch(observed, slot.count);
    slot.state.ObserveCount(slot.count, observed);
    slot.state.MaybeRecompute(o.recompute_rel_tol);
  }

  // Incremental sequence maintenance and events.
  if (!positive) {
    CloseRun(clip - 1, clip);
  } else if (open_start_ < 0) {
    open_start_ = clip;
    Increment(s.series.opened);
    s.Emit(SequenceEvent::Kind::kOpened, Interval(clip, clip), clip);
  } else {
    Increment(s.series.extended);
    s.Emit(SequenceEvent::Kind::kExtended, Interval(open_start_, clip), clip);
  }
  if (s.series.open_len != nullptr) {
    s.series.open_len->Set(
        open_start_ >= 0 ? static_cast<double>(clip - open_start_ + 1) : 0.0);
  }
  return positive;
}

StatusOr<bool> CnfStream::PushPrunedClip() {
  VAQ_RETURN_IF_ERROR(CheckPushable());
  const ClipIndex clip = next_clip_++;
  if (options_.svaqd.fault_plan != nullptr) {
    // Keep virtual time on the clip cadence so the resilience wrappers'
    // breaker/backoff windows line up with the clips that DO run models.
    impl_->clock.Advance(options_.svaqd.resilience.clip_interval_ms);
  }
  CloseRun(clip - 1, clip);
  if (impl_->series.open_len != nullptr) impl_->series.open_len->Set(0.0);
  return false;
}

bool CnfStream::CloseRun(ClipIndex last, ClipIndex clip) {
  if (open_start_ < 0) return false;
  const Interval closed(open_start_, last);
  sequences_.Add(closed);
  open_start_ = -1;
  Increment(impl_->series.closed);
  impl_->Emit(SequenceEvent::Kind::kClosed, closed, clip);
  return true;
}

void CnfStream::Finish() {
  if (finished_) return;
  finished_ = true;
  if (CloseRun(next_clip_ - 1, next_clip_ - 1) &&
      impl_->series.open_len != nullptr) {
    impl_->series.open_len->Set(0.0);
  }
}

std::vector<Literal> CnfStream::literals() const {
  std::vector<Literal> out;
  out.reserve(impl_->slots.size());
  for (const Impl::Slot& slot : impl_->slots) out.push_back(slot.literal);
  return out;
}

std::vector<int64_t> CnfStream::kcrit() const {
  std::vector<int64_t> out;
  out.reserve(impl_->slots.size());
  for (const Impl::Slot& slot : impl_->slots) {
    out.push_back(slot.state.kcrit);
  }
  return out;
}

std::vector<int64_t> CnfStream::clip_counts() const {
  std::vector<int64_t> out;
  out.reserve(impl_->slots.size());
  for (const Impl::Slot& slot : impl_->slots) out.push_back(slot.count);
  return out;
}

void CnfStream::Persist(ckpt::Archive& ar) {
  const char* name = conjunctive_ ? "StreamingSvaqd" : "CnfStream";
  if (ar.loading() && (next_clip_ != 0 || finished_)) {
    ar.Fail(Status::FailedPrecondition(
        std::string("a checkpoint loads only into a fresh ").append(name)));
    return;
  }
  Impl& s = *impl_;
  std::vector<Impl::Slot>& slots = s.slots;
  const bool has_action =
      conjunctive_ && !slots.empty() &&
      slots.back().literal.kind == Literal::Kind::kAction;
  const uint32_t n_literals =
      static_cast<uint32_t>(slots.size() - (has_action ? 1 : 0));
  const bool meta = ar.Record(kTagMeta, [&] {
    ar.I64(next_clip_);
    ar.I64(open_start_);
    ar.Bool(finished_);
    uint32_t n = n_literals;
    bool action = has_action;
    if (conjunctive_) {
      ar.I64(degraded_clips_);
      ar.I64(dropped_clips_);
      s.clock.Persist(ar);
    }
    ar.U32(n);
    if (conjunctive_) ar.Bool(action);
    if (n != n_literals || action != has_action) {
      ar.Fail(Status::InvalidArgument(
          "checkpoint does not match this engine's query shape"));
    }
  });
  if (!meta) {
    ar.Fail(Status::Corruption(
        std::string(name).append(" checkpoint missing meta record")));
  }
  ar.Record(kTagSequences, [&] { sequences_.Persist(ar); });
  // Each literal's record, index-checked; `body` persists its state.
  const auto per_literal = [&](uint32_t tag, auto&& body) {
    for (uint32_t i = 0; i < n_literals; ++i) {
      ar.Record(tag, [&] {
        uint32_t index = i;
        ar.U32(index);
        if (index != i) {
          ar.Fail(Status::Corruption("literal records out of order"));
          return;
        }
        body(slots[i].state);
      });
    }
  };
  if (conjunctive_) {
    per_literal(kTagLiteral, [&](PredicateState& p) { p.Persist(ar); });
    if (has_action) {
      ar.Record(kTagActionPredicate,
                [&] { slots.back().state.Persist(ar); });
    }
  } else {
    per_literal(kTagLiteral,
                [&](PredicateState& p) { p.PersistEstimate(ar); });
    // The v1 CNF layout stops here. Its fault and burst state follows in
    // appended records, written only when it can affect the stream, so a
    // fault-free blob keeps the v1 bytes.
    if (options_.svaqd.fault_plan != nullptr || options_.svaqd.burst_aware) {
      ar.Record(kTagFaultMeta, [&] {
        ar.I64(degraded_clips_);
        ar.I64(dropped_clips_);
        s.clock.Persist(ar);
      });
      per_literal(kTagLiteralMoments,
                  [&](PredicateState& p) { p.PersistMoments(ar); });
    }
  }
  ar.Optional(kTagDetectorCore, s.detector_state);
  ar.Optional(kTagRecognizerCore, s.recognizer_state);
}

OnlineResult RunToEnd(CnfStream& engine, detect::ObjectDetector* detector,
                      detect::ActionRecognizer* recognizer,
                      const char* clip_span) {
  const auto start = std::chrono::steady_clock::now();
  const detect::ModelStats detector_stats_before =
      detector != nullptr ? detector->stats() : detect::ModelStats();
  const detect::ModelStats recognizer_stats_before =
      recognizer != nullptr ? recognizer->stats() : detect::ModelStats();
  VAQ_CHECK_EQ(engine.next_clip(), 0);

  OnlineResult result;
  const int64_t num_clips = engine.layout().NumClips();
  result.clip_indicator.resize(static_cast<size_t>(num_clips), false);
  for (ClipIndex clip = 0; clip < num_clips; ++clip) {
    if (clip_span != nullptr) obs::CountSpan(clip_span);
    const StatusOr<bool> indicator = engine.PushClip(detector, recognizer);
    VAQ_CHECK(indicator.ok()) << indicator.status();
    result.clip_indicator[static_cast<size_t>(clip)] = indicator.value();
  }
  engine.Finish();
  result.clips_processed = num_clips;
  result.sequences = engine.sequences();
  const std::vector<Literal> literals = engine.literals();
  const std::vector<int64_t> kcrit = engine.kcrit();
  for (size_t i = 0; i < literals.size(); ++i) {
    if (literals[i].kind == Literal::Kind::kObject) {
      result.kcrit_objects.push_back(kcrit[i]);
    } else {
      result.kcrit_action = kcrit[i];
    }
  }
  result.degraded_clips = engine.degraded_clips();
  result.dropped_clips = engine.dropped_clips();
  // Per-run deltas, so stats stay per-query when a model bundle is shared
  // across successive runs (the serving layer's shared detection cache).
  if (detector != nullptr) {
    result.detector_stats = detector->stats() - detector_stats_before;
  }
  if (recognizer != nullptr) {
    result.recognizer_stats = recognizer->stats() - recognizer_stats_before;
  }
  result.algorithm_wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

CnfEngine::CnfEngine(CnfQuery query, VideoLayout layout,
                     CnfEngineOptions options)
    : query_(std::move(query)),
      layout_(layout),
      options_(std::move(options)) {
  VAQ_CHECK(!query_.empty());
}

CnfResult CnfEngine::Run(detect::ObjectDetector* detector,
                         detect::ActionRecognizer* recognizer) const {
  CnfStream stream(query_, layout_, options_);
  OnlineResult run = RunToEnd(stream, detector, recognizer);
  CnfResult result;
  result.sequences = std::move(run.sequences);
  result.clip_indicator = std::move(run.clip_indicator);
  result.clips_processed = run.clips_processed;
  result.literals = stream.literals();
  result.kcrit = stream.kcrit();
  result.detector_stats = run.detector_stats;
  result.recognizer_stats = run.recognizer_stats;
  result.algorithm_wall_ms = run.algorithm_wall_ms;
  return result;
}

}  // namespace online
}  // namespace vaq
