// Umbrella header: the full public API of the VAQ library.
//
// VAQ reproduces "Querying For Actions Over Videos" (EDBT 2024): declarative
// conjunctive queries over videos whose predicates combine an action and
// object presence, answered online over streams (SVAQ / SVAQD, §3) or
// offline over an ingested repository with top-K ranking (RVAQ, §4).
//
// Typical entry points:
//   * synth::Scenario        — generate an evaluation video + query.
//   * detect::ModelBundle    — simulated detector / recognizer / tracker.
//   * online::Svaq, Svaqd    — streaming query engines (on CnfStream).
//   * offline::Ingestor      — one-time ingestion into a VideoIndex.
//   * offline::Rvaq          — ranked top-K retrieval.
//   * query::Session         — the SQL-like front end.
//   * serve::Server          — concurrent multi-query serving runtime.
//   * eval::SequenceF1       — evaluation against ground truth.
#ifndef VAQ_VAQ_H_
#define VAQ_VAQ_H_

#include "common/interval.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "detect/model_profile.h"
#include "detect/models.h"
#include "detect/relationship.h"
#include "detect/resilient.h"
#include "eval/metrics.h"
#include "fault/fault_plan.h"
#include "fault/sim_clock.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "offline/baselines.h"
#include "offline/ingest.h"
#include "offline/query_view.h"
#include "offline/repository.h"
#include "offline/rvaq.h"
#include "offline/scoring.h"
#include "offline/tbclip.h"
#include "online/cnf_engine.h"
#include "online/streaming.h"
#include "online/svaq.h"
#include "online/svaqd.h"
#include "query/parser.h"
#include "query/session.h"
#include "scanstat/critical_value.h"
#include "scanstat/kernel_estimator.h"
#include "scanstat/naus.h"
#include "serve/detection_cache.h"
#include "serve/server.h"
#include "storage/catalog.h"
#include "storage/score_table.h"
#include "synth/generator.h"
#include "synth/scenario.h"
#include "synth/spec_file.h"
#include "video/cnf_query.h"
#include "video/layout.h"
#include "video/query_spec.h"
#include "video/sequence_ops.h"
#include "video/vocabulary.h"

#endif  // VAQ_VAQ_H_
