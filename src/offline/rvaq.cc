#include "offline/rvaq.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/logging.h"
#include "obs/metrics.h"
#include "offline/tbclip.h"
#include "storage/access_metrics.h"

namespace vaq {
namespace offline {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Bound-tracking state of one candidate sequence (§4.3 notation).
struct SeqState {
  Interval clips;
  double s_up;   // f over top-processed clips.
  double s_lo;   // f over bottom-processed clips.
  int64_t l_up;  // Clips not yet top-processed.
  int64_t l_lo;  // Clips not yet bottom-processed.
  double b_up = kInf;
  double b_lo = -kInf;
  bool decided = false;  // Confirmed winner or confirmed loser.
  bool winner = false;
};

void ResetCounters(const QueryTables& tables) {
  for (const storage::ScoreTableView* t : tables.AllTables()) t->ResetCounter();
}

storage::AccessCounter CollectCounters(const QueryTables& tables) {
  storage::AccessCounter total;
  for (const storage::ScoreTableView* t : tables.AllTables()) {
    total += t->counter();
  }
  return total;
}

}  // namespace

Rvaq::Rvaq(const QueryTables* tables, const ScoringModel* scoring,
           RvaqOptions options)
    : tables_(tables), scoring_(scoring), options_(options) {
  VAQ_CHECK(tables != nullptr);
  VAQ_CHECK(scoring != nullptr);
  VAQ_CHECK_GE(options.k, 1);
}

TopKResult Rvaq::Run() const {
  obs::CountSpan("rvaq/run");
  const auto start = std::chrono::steady_clock::now();
  ResetCounters(*tables_);

  TopKResult result;
  obs::CountSpan("rvaq/compute_pq");
  result.pq = tables_->ComputePq();

  // Cascade pre-filter: drop candidate sequences with no surviving clip.
  // Retained intervals keep their FULL extent — the proxy only decides
  // which sequences participate, never which of their clips score — so
  // every retained sequence's bounds and exact score are byte-identical
  // to an unfiltered run.
  IntervalSet candidates = result.pq;
  if (options_.clip_filter != nullptr) {
    std::vector<Interval> retained;
    const std::vector<Interval>& surviving =
        options_.clip_filter->intervals();
    for (const Interval& iv : result.pq.intervals()) {
      bool keep = false;
      for (const Interval& f : surviving) {
        if (f.lo > iv.hi) break;
        if (iv.Overlaps(f)) {
          keep = true;
          break;
        }
      }
      if (keep) {
        retained.push_back(iv);
      } else {
        ++result.candidates_pruned;
      }
    }
    candidates = IntervalSet::FromIntervals(std::move(retained));
    static obs::Counter* const pruned =
        obs::MetricRegistry::Global().GetCounter(
            "vaq_cascade_candidates_pruned_total");
    pruned->Increment(result.candidates_pruned);
  }

  ClipScoreSource source(tables_, scoring_);

  // Adaptive identification (WITH CONFIDENCE δ, src/bai/): sample clip
  // scores through `source` to identify a >= k superset of the top-k, then
  // hand only the surviving arms to the exact bound loop below. Pulls run
  // AFTER the cascade pre-filter (proxy prune first, then sample) and
  // charge real random accesses through the shared source, whose cache
  // then warms the survivors' exact re-ranking. Survivors keep their full
  // extent, so their bounds and exact scores are byte-identical to an
  // unfiltered run — only set membership is approximate, at confidence δ.
  if (options_.identifier != nullptr &&
      static_cast<int64_t>(candidates.size()) > options_.k) {
    obs::CountSpan("rvaq/bai_identify");
    const IdentifyOutcome outcome = options_.identifier->Identify(
        candidates.intervals(), options_.k, options_.identifier_seed,
        &source);
    VAQ_CHECK_EQ(outcome.keep.size(), candidates.intervals().size());
    std::vector<Interval> surviving;
    for (size_t i = 0; i < outcome.keep.size(); ++i) {
      if (outcome.keep[i]) surviving.push_back(candidates.intervals()[i]);
    }
    VAQ_CHECK_GE(static_cast<int64_t>(surviving.size()), options_.k);
    result.bai_pulls = outcome.pulls;
    result.bai_arms_eliminated = outcome.arms_eliminated;
    result.bai_stopped = outcome.stopped;
    result.bai_stopping_statistic = outcome.stopping_statistic;
    candidates = IntervalSet::FromIntervals(std::move(surviving));
    obs::MetricRegistry& registry = obs::MetricRegistry::Global();
    static obs::Counter* const pulls =
        registry.GetCounter("vaq_bai_pulls_total");
    static obs::Counter* const eliminated =
        registry.GetCounter("vaq_bai_arms_eliminated_total");
    pulls->Increment(outcome.pulls);
    eliminated->Increment(outcome.arms_eliminated);
    if (outcome.stopped) {
      static obs::Counter* const stops =
          registry.GetCounter("vaq_bai_stops_total");
      stops->Increment(1);
    }
  }

  // Candidate sequence states.
  std::vector<SeqState> seqs;
  seqs.reserve(candidates.size());
  for (const Interval& iv : candidates.intervals()) {
    SeqState s;
    s.clips = iv;
    s.s_up = scoring_->Identity();
    s.s_lo = scoring_->Identity();
    s.l_up = iv.length();
    s.l_lo = iv.length();
    seqs.push_back(s);
  }

  // Skip set: clips outside P_q never participate (§4.3, first bullet).
  // Clips of pruned candidate sequences stay skipped too.
  std::vector<bool> skip(static_cast<size_t>(tables_->num_clips), true);
  for (const Interval& iv : candidates.intervals()) {
    for (ClipIndex c = iv.lo; c <= iv.hi; ++c) {
      skip[static_cast<size_t>(c)] = false;
    }
  }

  const int64_t k = options_.k;

  auto finalize = [&](std::vector<SeqState*> ranked) {
    obs::CountSpan("rvaq/finalize");
    for (SeqState* s : ranked) {
      RankedSequence out;
      out.clips = s->clips;
      out.lower_bound = s->b_lo == -kInf ? scoring_->Identity() : s->b_lo;
      out.upper_bound = s->b_up;
      if (options_.exact_scores) {
        // Cost-based choice: a fresh range scan per table costs one seek
        // each, while completing cached clips costs one random access per
        // missing entry. The bound loop usually leaves winners mostly
        // cached, so the random path wins at large K.
        int64_t missing = 0;
        for (ClipIndex c = s->clips.lo; c <= s->clips.hi; ++c) {
          missing += source.MissingEntries(c);
        }
        if (missing < tables_->num_tables()) {
          double exact = scoring_->Identity();
          for (ClipIndex c = s->clips.lo; c <= s->clips.hi; ++c) {
            exact = scoring_->Combine(exact, source.Score(c));
          }
          out.exact_score = exact;
        } else {
          out.exact_score =
              ExactSequenceScore(*tables_, *scoring_, s->clips);
        }
        out.has_exact = true;
      }
      result.top.push_back(out);
    }
    if (options_.exact_scores) {
      std::stable_sort(result.top.begin(), result.top.end(),
                       [](const RankedSequence& a, const RankedSequence& b) {
                         return a.exact_score > b.exact_score;
                       });
    }
    result.accesses = CollectCounters(*tables_);
    storage::MirrorAccessCounter(result.accesses, "rvaq");
    static obs::Counter* const iterations =
        obs::MetricRegistry::Global().GetCounter("vaq_rvaq_iterations_total");
    iterations->Increment(result.iterations);
    result.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  };

  // Fewer candidates than K: everything is a winner.
  if (static_cast<int64_t>(seqs.size()) <= k) {
    std::vector<SeqState*> all;
    for (SeqState& s : seqs) all.push_back(&s);
    finalize(std::move(all));
    return result;
  }

  // Marks every clip of a decided sequence skippable (§4.3).
  auto skip_sequence = [&](const SeqState& s) {
    if (!options_.use_skip) return;
    for (ClipIndex c = s.clips.lo; c <= s.clips.hi; ++c) {
      skip[static_cast<size_t>(c)] = true;
    }
  };

  TbClipIterator iterator(tables_, &source, &skip);
  TbClipIterator::Entry top;
  TbClipIterator::Entry bottom;
  obs::CountSpan("rvaq/bound_loop");
  while (iterator.Next(&top, &bottom)) {
    ++result.iterations;
    // Fold the new extreme clips into their sequences' partial scores.
    for (SeqState& s : seqs) {
      if (top.valid() && s.clips.Contains(top.clip)) {
        s.s_up = scoring_->Combine(s.s_up, top.score);
        --s.l_up;
        if (options_.two_sided_bounds) {
          s.s_lo = scoring_->Combine(s.s_lo, top.score);
          --s.l_lo;
        }
      }
      if (bottom.valid() && bottom.clip != top.clip &&
          s.clips.Contains(bottom.clip)) {
        s.s_lo = scoring_->Combine(s.s_lo, bottom.score);
        --s.l_lo;
        if (options_.two_sided_bounds) {
          s.s_up = scoring_->Combine(s.s_up, bottom.score);
          --s.l_up;
        }
      }
    }
    // Refresh bounds (Eqs. 13-14). Decided sequences keep frozen bounds.
    for (SeqState& s : seqs) {
      if (s.decided) continue;
      if (top.valid()) {
        s.b_up = scoring_->Combine(s.s_up,
                                   scoring_->Repeat(top.score, s.l_up));
      }
      if (bottom.valid()) {
        s.b_lo = scoring_->Combine(s.s_lo,
                                   scoring_->Repeat(bottom.score, s.l_lo));
      }
    }

    // B_lo^K: the K-th highest lower bound.
    std::vector<double> lows;
    lows.reserve(seqs.size());
    for (const SeqState& s : seqs) lows.push_back(s.b_lo);
    std::nth_element(lows.begin(), lows.begin() + (k - 1), lows.end(),
                     std::greater<double>());
    const double b_lo_k = lows[static_cast<size_t>(k - 1)];

    // Membership of the current top-K-by-lower-bound set, with ties broken
    // deterministically by index.
    std::vector<size_t> order(seqs.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return seqs[a].b_lo > seqs[b].b_lo;
    });
    std::vector<bool> in_topk(seqs.size(), false);
    for (int64_t i = 0; i < k; ++i) in_topk[order[static_cast<size_t>(i)]] =
        true;

    // B_up^¬K: the highest upper bound outside the top-K set.
    double b_up_not_k = -kInf;
    for (size_t i = 0; i < seqs.size(); ++i) {
      if (!in_topk[i]) b_up_not_k = std::max(b_up_not_k, seqs[i].b_up);
    }

    // Decide sequences (dynamic skip, §4.3).
    for (size_t i = 0; i < seqs.size(); ++i) {
      SeqState& s = seqs[i];
      if (s.decided) continue;
      if (s.b_up < b_lo_k) {
        s.decided = true;
        s.winner = false;
        skip_sequence(s);
      } else if (in_topk[i] && s.b_lo > b_up_not_k) {
        s.decided = true;
        s.winner = true;
        skip_sequence(s);
      }
    }

    // Stopping condition (Eq. 15).
    if (b_lo_k >= b_up_not_k) {
      std::vector<SeqState*> ranked;
      for (int64_t i = 0; i < k; ++i) {
        ranked.push_back(&seqs[order[static_cast<size_t>(i)]]);
      }
      finalize(std::move(ranked));
      return result;
    }
  }

  // Iterator exhausted without triggering Eq. 15 (possible when skipping
  // is disabled and ties persist): every clip has been processed, so the
  // lower bounds are exact.
  std::vector<size_t> order(seqs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return seqs[a].b_lo > seqs[b].b_lo;
  });
  std::vector<SeqState*> ranked;
  for (int64_t i = 0; i < k && i < static_cast<int64_t>(order.size()); ++i) {
    ranked.push_back(&seqs[order[static_cast<size_t>(i)]]);
  }
  finalize(std::move(ranked));
  return result;
}

}  // namespace offline
}  // namespace vaq
