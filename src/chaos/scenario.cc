#include "chaos/scenario.h"

#include <string>

#include "common/rng.h"

namespace vaq {
namespace chaos {
namespace {

// Sub-seed streams of one trial. The scenario and the schedule draw
// from *separate* Rngs so a replay can regenerate the scenario from
// (seed, trial) while substituting a shrunk schedule.
constexpr uint64_t kScenarioSalt = 0x5c3a9d4be1f02687ULL;

}  // namespace

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kStanding:
      return "standing";
    case Phase::kCluster:
      return "cluster";
    case Phase::kServe:
      return "serve";
  }
  return "unknown";
}

synth::ScenarioSpec ChaosScenarioSpec(int index, int minutes) {
  synth::ScenarioSpec spec;
  spec.name = std::string("s").append(std::to_string(index));
  spec.minutes = minutes;
  spec.fps = 30;
  spec.seed = 70707 + 977 * static_cast<uint64_t>(index) +
              13 * static_cast<uint64_t>(minutes);
  synth::ActionTrackSpec action;
  action.name = "running";
  action.duty = 0.3;
  action.mean_len_frames = 600;
  spec.actions.push_back(action);
  synth::ObjectTrackSpec dog;
  dog.name = "dog";
  dog.background_duty = 0.06;
  dog.mean_len_frames = 500;
  dog.coupled_action = "running";
  dog.cover_action_prob = 0.9;
  spec.objects.push_back(dog);
  if (index > 0) {
    synth::ObjectTrackSpec car;
    car.name = "car";
    car.background_duty = 0.08;
    car.mean_len_frames = 400;
    spec.objects.push_back(car);
  }
  return spec;
}

synth::Scenario ChaosScenario(int index, int minutes) {
  return synth::Scenario::FromSpec(ChaosScenarioSpec(index, minutes),
                                   "running", {"dog"});
}

TrialScenario MakeTrialScenario(uint64_t seed, int64_t trial) {
  Rng rng(MixSeed(MixSeed(seed, kScenarioSalt),
                  static_cast<uint64_t>(trial)));
  TrialScenario s;
  s.trial = trial;
  // Phase mix: the durable standing path has the richest event space,
  // so it gets the largest share.
  const int64_t roll = rng.UniformInt(int64_t{0}, int64_t{99});
  s.phase = roll < 45   ? Phase::kStanding
            : roll < 80 ? Phase::kCluster
                        : Phase::kServe;
  s.minutes = static_cast<int>(rng.UniformInt(int64_t{1}, int64_t{2}));
  s.model_seed = 1 + rng.UniformInt(uint64_t{3});
  s.env_seed = MixSeed(seed, static_cast<uint64_t>(trial) * 2 + 1);

  // Environment fault rates. Half the trials run a clean environment so
  // the adversarial schedule is tested in isolation too.
  const bool faulty_env = rng.Bernoulli(0.5);
  if (faulty_env) {
    s.env.timeout_rate = rng.Bernoulli(0.6) ? rng.UniformDouble(0.0, 0.08) : 0;
    s.env.crash_rate = rng.Bernoulli(0.4) ? rng.UniformDouble(0.0, 0.1) : 0;
    s.env.crash_len_units =
        rng.UniformInt(int64_t{64}, int64_t{600});
    s.env.nan_score_rate =
        rng.Bernoulli(0.3) ? rng.UniformDouble(0.0, 0.02) : 0;
    s.env.out_of_range_score_rate =
        rng.Bernoulli(0.3) ? rng.UniformDouble(0.0, 0.02) : 0;
    s.env.drop_clip_rate =
        rng.Bernoulli(0.4) ? rng.UniformDouble(0.0, 0.05) : 0;
  }

  switch (s.phase) {
    case Phase::kStanding: {
      s.num_streams = static_cast<int>(rng.UniformInt(int64_t{1}, int64_t{2}));
      s.num_queries = static_cast<int>(rng.UniformInt(int64_t{2}, int64_t{5}));
      s.snapshot_every_clips = rng.UniformInt(int64_t{2}, int64_t{8});
      const int64_t clips_per_stream =
          static_cast<int64_t>(s.minutes) * 18;  // 30fps, 100-frame clips.
      const int64_t capacity =
          clips_per_stream * static_cast<int64_t>(s.num_streams);
      s.advances = rng.UniformInt(int64_t{6}, capacity);
      break;
    }
    case Phase::kCluster: {
      s.num_videos = static_cast<int>(rng.UniformInt(int64_t{2}, int64_t{4}));
      s.num_shards =
          static_cast<int>(rng.UniformInt(int64_t{1}, int64_t{4}));
      s.num_replicas =
          static_cast<int>(rng.UniformInt(int64_t{0}, int64_t{2}));
      s.scheme = rng.Bernoulli(0.5) ? cluster::PartitionScheme::kHash
                                    : cluster::PartitionScheme::kRange;
      s.batch_size = static_cast<int>(rng.UniformInt(int64_t{1}, int64_t{4}));
      s.k = rng.UniformInt(int64_t{2}, int64_t{5});
      if (faulty_env) {
        s.env.net_drop_rate =
            rng.Bernoulli(0.6) ? rng.UniformDouble(0.0, 0.2) : 0;
        s.env.net_dup_rate =
            rng.Bernoulli(0.4) ? rng.UniformDouble(0.0, 0.1) : 0;
        s.env.node_outage_rate =
            rng.Bernoulli(0.4) ? rng.UniformDouble(0.0, 0.2) : 0;
        s.env.node_outage_len_ms = rng.UniformInt(int64_t{20}, int64_t{80});
      }
      break;
    }
    case Phase::kServe: {
      s.num_streams = static_cast<int>(rng.UniformInt(int64_t{1}, int64_t{2}));
      s.num_queries =
          static_cast<int>(rng.UniformInt(int64_t{4}, int64_t{10}));
      s.threads = static_cast<int>(rng.UniformInt(int64_t{2}, int64_t{4}));
      s.with_repository = rng.Bernoulli(0.5);
      break;
    }
  }
  // Cascade mix, drawn last so the established per-phase draw sequences
  // stay put: ~40% of trials carry an approximate recall target and run
  // the proxy cascade under the same oracles as the exact path.
  if (rng.Bernoulli(0.4)) {
    s.recall = rng.Bernoulli(0.5) ? 0.95 : 0.9;
  }
  // Front-door draws, appended after the cascade draw for the same
  // reason: half the serve trials run tenant-tagged, half the cluster
  // trials churn the shard layout before querying.
  if (s.phase == Phase::kServe && rng.Bernoulli(0.5)) {
    s.tenants = static_cast<int>(rng.UniformInt(int64_t{2}, int64_t{3}));
  }
  if (s.phase == Phase::kCluster && rng.Bernoulli(0.5)) {
    s.rebalance = static_cast<int>(rng.UniformInt(int64_t{1}, int64_t{2}));
  }
  // Adaptive-sampling mix, appended after every established draw so
  // existing trial sequences stay put: about a third of the trials with
  // ranked work (cluster always; serve when the batch mixes ranked
  // statements) run WITH CONFIDENCE identification under the same
  // oracles, failover and rebalance included.
  if ((s.phase == Phase::kCluster ||
       (s.phase == Phase::kServe && s.with_repository)) &&
      rng.Bernoulli(0.35)) {
    s.confidence = rng.Bernoulli(0.5) ? 0.05 : 0.1;
  }
  return s;
}

std::vector<std::string> ChaosWorkload(const TrialScenario& s) {
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(s.num_queries));
  const int streams = s.num_streams > 0 ? s.num_streams : 1;
  // The trial's recall target only admits the two fixed values drawn in
  // MakeTrialScenario, so the clause renders without float formatting.
  const std::string recall_clause =
      s.recall >= 1.0 ? ""
      : s.recall == 0.95 ? " WITH RECALL 0.95"
                         : " WITH RECALL 0.9";
  // Same fixed-value discipline for the confidence clause (ranked
  // statements only: WITH CONFIDENCE is a ranked-path construct).
  const std::string confidence_clause =
      s.confidence <= 0.0   ? ""
      : s.confidence == 0.05 ? " WITH CONFIDENCE 0.05"
                             : " WITH CONFIDENCE 0.1";
  for (int q = 0; q < s.num_queries; ++q) {
    // Every ranked statement and every odd online statement carries the
    // clause; even online statements stay exact so each trial compares
    // both paths under one schedule.
    const std::string online_clause = (q % 2 == 1) ? recall_clause : "";
    if (s.with_repository && q % 4 == 3) {
      out.push_back(
          "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) "
          "FROM (PROCESS " +
          std::string(kChaosRepositoryName) +
          " PRODUCE clipID, obj USING ObjectTracker, "
          "act USING ActionRecognizer) "
          "WHERE act='running' AND obj.include('dog') "
          "ORDER BY RANK(act, obj) LIMIT " + std::to_string(2 + q % 3) +
          recall_clause + confidence_clause);
      continue;
    }
    const int stream = q % streams;
    const std::string from =
        "FROM (PROCESS s" + std::to_string(stream) +
        " PRODUCE clipID, obj USING ObjectDetector, "
        "act USING ActionRecognizer) ";
    switch ((q / streams) % 3) {
      case 0:
        out.push_back("SELECT MERGE(clipID) AS Sequence " + from +
                      "WHERE act='running' AND obj.include('dog')" +
                      online_clause);
        break;
      case 1:
        out.push_back("SELECT MERGE(clipID) AS Sequence " + from +
                      "WHERE obj.include('dog')" + online_clause);
        break;
      default:
        if (stream > 0) {
          // Only the variant streams (index > 0) carry "car". With a
          // recall clause this is the CNF exact-fallback path.
          out.push_back("SELECT MERGE(clipID) AS Sequence " + from +
                        "WHERE (obj='dog' OR obj='car') AND act='running'" +
                        online_clause);
        } else {
          out.push_back("SELECT MERGE(clipID) AS Sequence " + from +
                        "WHERE act='running'" + online_clause);
        }
        break;
    }
  }
  return out;
}

}  // namespace chaos
}  // namespace vaq
