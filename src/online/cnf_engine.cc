#include "online/cnf_engine.h"

#include <chrono>
#include <cmath>

#include "ckpt/serializer.h"
#include "common/logging.h"
#include "scanstat/critical_value.h"
#include "scanstat/kernel_estimator.h"

namespace vaq {
namespace online {
namespace {

// Background estimation and critical-value state of one distinct literal.
struct LiteralState {
  Literal literal;
  scanstat::KernelRateEstimator estimator;
  scanstat::ScanConfig config;
  double p_at_last_compute = -1.0;
  int64_t kcrit = 0;

  LiteralState(Literal lit, double bandwidth, double prior_p,
               double prior_weight, scanstat::ScanConfig cfg)
      : literal(lit), estimator(bandwidth, prior_p, prior_weight),
        config(cfg) {
    Recompute();
  }

  void Recompute() {
    p_at_last_compute = estimator.rate();
    kcrit = scanstat::CriticalValue(p_at_last_compute, config);
  }

  // Checkpoint body (ckpt::Archive, DESIGN.md §10).
  void Persist(ckpt::Archive& ar) {
    estimator.Persist(ar);
    ar.F64(p_at_last_compute);
    ar.I64(kcrit);
  }

  void MaybeRecompute(double rel_tol) {
    const double p = estimator.rate();
    const double ref = std::max(p_at_last_compute, 1e-12);
    if (rel_tol <= 0.0 || std::fabs(p - p_at_last_compute) / ref > rel_tol) {
      Recompute();
    }
  }
};

// Record tags of the CnfStream snapshot blob, in format order
// (append-only within a ckpt::kFormatVersion).
enum CnfTag : uint32_t {
  kTagMeta = 1,
  kTagSequences = 2,
  kTagLiteral = 3,
};

}  // namespace

struct CnfStream::Impl {
  std::vector<LiteralState> states;
  // Clause literals resolved to state indices.
  std::vector<std::vector<size_t>> clause_states;
  bool needs_detector = false;
  bool needs_recognizer = false;
  // Per-clip literal count cache (-1 = not evaluated this clip).
  std::vector<int64_t> counts;
  std::vector<int64_t> frames_in;
};

CnfStream::CnfStream(CnfQuery query, VideoLayout layout,
                     CnfEngineOptions options)
    : query_(std::move(query)),
      layout_(layout),
      options_(std::move(options)),
      impl_(std::make_unique<Impl>()) {
  VAQ_CHECK(!query_.empty());
  const SvaqOptions& base = options_.svaqd.base;
  const std::vector<Literal> literals = query_.DistinctLiterals();
  impl_->states.reserve(literals.size());
  for (const Literal& literal : literals) {
    if (literal.kind == Literal::Kind::kObject) {
      impl_->needs_detector = true;
      impl_->states.emplace_back(literal, options_.svaqd.bandwidth_frames,
                                 base.p0_object, options_.svaqd.prior_weight,
                                 ObjectScanConfig(layout_, base));
    } else {
      impl_->needs_recognizer = true;
      impl_->states.emplace_back(literal, options_.svaqd.bandwidth_shots,
                                 base.p0_action, options_.svaqd.prior_weight,
                                 ActionScanConfig(layout_, base));
    }
  }
  impl_->clause_states.resize(query_.clauses.size());
  for (size_t c = 0; c < query_.clauses.size(); ++c) {
    for (const Literal& literal : query_.clauses[c].literals) {
      for (size_t s = 0; s < literals.size(); ++s) {
        if (literals[s] == literal) {
          impl_->clause_states[c].push_back(s);
          break;
        }
      }
    }
  }
  impl_->counts.resize(impl_->states.size());
  impl_->frames_in.resize(impl_->states.size());
}

CnfStream::~CnfStream() = default;

StatusOr<bool> CnfStream::PushClip(detect::ObjectDetector* detector,
                                   detect::ActionRecognizer* recognizer) {
  if (finished_) {
    return Status::FailedPrecondition("PushClip after Finish");
  }
  if (next_clip_ >= layout_.NumClips()) {
    return Status::OutOfRange(
        "stream exceeds the layout's design horizon of " +
        std::to_string(layout_.NumClips()) + " clips");
  }
  if (impl_->needs_detector && detector == nullptr) {
    return Status::InvalidArgument("CNF query with object literals "
                                   "requires a detector");
  }
  if (impl_->needs_recognizer && recognizer == nullptr) {
    return Status::InvalidArgument("CNF query with action literals "
                                   "requires a recognizer");
  }
  const ClipIndex clip = next_clip_++;
  std::vector<int64_t>& counts = impl_->counts;
  std::vector<int64_t>& frames_in = impl_->frames_in;
  std::vector<LiteralState>& states = impl_->states;

  auto evaluate_literal = [&](size_t s) {
    if (counts[s] >= 0) return;  // Cached for this clip.
    const LiteralState& state = states[s];
    int64_t count = 0;
    int64_t units = 0;
    if (state.literal.kind == Literal::Kind::kObject) {
      const Interval frames = layout_.ClipFrameRange(clip);
      units = frames.length();
      for (FrameIndex v = frames.lo; v <= frames.hi; ++v) {
        if (detector->IsPositive(state.literal.type, v)) ++count;
      }
    } else {
      const Interval shots = layout_.ClipShotRange(clip);
      units = shots.length();
      for (ShotIndex sh = shots.lo; sh <= shots.hi; ++sh) {
        if (recognizer->IsPositive(state.literal.type, sh)) ++count;
      }
    }
    counts[s] = count;
    frames_in[s] = units;
  };

  std::fill(counts.begin(), counts.end(), int64_t{-1});
  const bool probe = options_.svaqd.probe_period > 0 &&
                     clip % options_.svaqd.probe_period == 0;
  const bool short_circuit = options_.svaqd.base.short_circuit && !probe;

  bool all_clauses = true;
  for (size_t c = 0; c < impl_->clause_states.size(); ++c) {
    bool clause_fired = false;
    for (size_t s : impl_->clause_states[c]) {
      evaluate_literal(s);
      if (counts[s] >= states[s].kcrit) {
        clause_fired = true;
        if (short_circuit) break;  // OR short-circuit.
      }
    }
    if (!clause_fired) {
      all_clauses = false;
      if (short_circuit) break;  // AND short-circuit.
    }
  }
  if (probe) {
    // Probing evaluates every literal so all estimators stay fed.
    for (size_t s = 0; s < states.size(); ++s) evaluate_literal(s);
  }

  if (options_.adaptive) {
    // Self-excluding background updates, as in SVAQD.
    for (size_t s = 0; s < states.size(); ++s) {
      if (counts[s] < 0) continue;
      if (8 * counts[s] >= frames_in[s]) continue;  // Plainly satisfied.
      states[s].estimator.ObserveBatch(frames_in[s], counts[s]);
      states[s].MaybeRecompute(options_.svaqd.recompute_rel_tol);
    }
  }

  // Incremental sequence maintenance.
  if (all_clauses) {
    if (open_start_ < 0) open_start_ = clip;
  } else if (open_start_ >= 0) {
    sequences_.Add(Interval(open_start_, clip - 1));
    open_start_ = -1;
  }
  return all_clauses;
}

void CnfStream::Finish() {
  if (finished_) return;
  finished_ = true;
  if (open_start_ >= 0) {
    sequences_.Add(Interval(open_start_, next_clip_ - 1));
    open_start_ = -1;
  }
}

std::vector<Literal> CnfStream::literals() const {
  std::vector<Literal> out;
  out.reserve(impl_->states.size());
  for (const LiteralState& s : impl_->states) out.push_back(s.literal);
  return out;
}

std::vector<int64_t> CnfStream::kcrit() const {
  std::vector<int64_t> out;
  out.reserve(impl_->states.size());
  for (const LiteralState& s : impl_->states) out.push_back(s.kcrit);
  return out;
}

void CnfStream::Persist(ckpt::Archive& ar) {
  if (ar.loading() && (next_clip_ != 0 || finished_)) {
    ar.Fail(Status::FailedPrecondition(
        "a checkpoint loads only into a fresh CnfStream"));
    return;
  }
  std::vector<LiteralState>& states = impl_->states;
  const bool meta = ar.Record(kTagMeta, [&] {
    ar.I64(next_clip_);
    ar.I64(open_start_);
    ar.Bool(finished_);
    uint32_t n_literals = static_cast<uint32_t>(states.size());
    ar.U32(n_literals);
    if (n_literals != states.size()) {
      ar.Fail(Status::InvalidArgument(
          "checkpoint does not match this CNF query's literal count"));
    }
  });
  if (!meta) ar.Fail(Status::Corruption("CNF checkpoint missing meta record"));
  ar.Record(kTagSequences, [&] { sequences_.Persist(ar); });
  for (uint32_t i = 0; i < states.size(); ++i) {
    ar.Record(kTagLiteral, [&] {
      uint32_t index = i;
      ar.U32(index);
      if (index != i) {
        ar.Fail(Status::Corruption("CNF literal records out of order"));
        return;
      }
      states[i].Persist(ar);
    });
  }
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
  const auto start = std::chrono::steady_clock::now();
  const detect::ModelStats detector_stats_before =
      detector != nullptr ? detector->stats() : detect::ModelStats();
  const detect::ModelStats recognizer_stats_before =
      recognizer != nullptr ? recognizer->stats() : detect::ModelStats();

  CnfStream stream(query_, layout_, options_);
  CnfResult result;
  result.literals = stream.literals();
  const int64_t num_clips = layout_.NumClips();
  result.clip_indicator.resize(static_cast<size_t>(num_clips), false);
  for (ClipIndex clip = 0; clip < num_clips; ++clip) {
    const StatusOr<bool> indicator = stream.PushClip(detector, recognizer);
    VAQ_CHECK(indicator.ok()) << indicator.status();
    result.clip_indicator[static_cast<size_t>(clip)] = indicator.value();
    ++result.clips_processed;
  }
  stream.Finish();

  result.sequences = IntervalSet::FromIndicators(result.clip_indicator);
  result.kcrit = stream.kcrit();
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

}  // namespace online
}  // namespace vaq
