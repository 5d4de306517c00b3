// Crash-recovery determinism for the durable standing-query runtime.
//
// The central claim (ISSUE: checkpoint/recovery subsystem): killing the
// serving process at an arbitrary clip boundary, restoring the newest
// valid snapshot and replaying the WAL yields results and logical
// metrics *byte-identical* to a run that was never interrupted — with
// faults injected, with the shared detection cache on or off, through
// MemStore or an on-disk DirStore, and even when the newest snapshot is
// itself corrupt (fallback to the previous one plus a longer replay).
// Runs under ThreadSanitizer and the VAQ_SANITIZE configuration.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/recovery.h"
#include "ckpt/serializer.h"
#include "ckpt/store.h"
#include "fault/fault_plan.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "tools/pipeline_setup.h"

namespace vaq {
namespace serve {
namespace {

// 40 advances over 2 streams with snapshots every 7 clips: snapshots
// land after advances 7, 14, 21, 28 and 35, so the crash points below
// exercise cold start + WAL only (3), one snapshot + WAL (10), and
// multiple snapshots with an older one retained for fallback (17).
constexpr int64_t kTotalAdvances = 40;
constexpr int64_t kSnapshotEvery = 7;

tools::StandingDemoSpec DemoSpec(ckpt::Store* store,
                                 const fault::FaultPlan* plan,
                                 bool share_cache) {
  tools::StandingDemoSpec spec;
  spec.num_streams = 2;
  spec.num_queries = 6;  // Conjunctive, object-only, CNF and action-only.
  spec.seed = 11;
  spec.share_detection_cache = share_cache;
  spec.fault_plan = plan;
  spec.checkpoint_store = store;
  spec.snapshot_every_clips = kSnapshotEvery;
  return spec;
}

struct RunResult {
  std::vector<std::string> described;
  std::string metrics;  // Prometheus text, every family except vaq_ckpt_*.
};

// Everything except the durability subsystem's own counters must match
// byte for byte; vaq_ckpt_* legitimately differs (the recovered process
// has recoveries/corruption counts the uninterrupted one does not).
std::string NonCkptMetrics() {
  const obs::Snapshot snap = obs::MetricRegistry::Global().TakeSnapshot();
  obs::Snapshot filtered;
  for (const obs::Snapshot::Entry& entry : snap.entries) {
    if (entry.name.rfind("vaq_ckpt_", 0) != 0) {
      filtered.entries.push_back(entry);
    }
  }
  return obs::ExportPrometheus(filtered);
}

RunResult Collect(Server* server) {
  RunResult out;
  for (const ServedQuery& q : server->FinishStanding()) {
    out.described.push_back(DescribeServedQuery(q));
  }
  out.metrics = NonCkptMetrics();
  return out;
}

// The never-interrupted baseline, checkpoints enabled (snapshotting must
// not perturb logical results either).
StatusOr<RunResult> RunUninterrupted(const tools::StandingDemoSpec& spec) {
  obs::MetricRegistry::Global().Reset();
  VAQ_ASSIGN_OR_RETURN(std::unique_ptr<Server> server,
                       tools::MakeStandingDemoServer(spec));
  VAQ_RETURN_IF_ERROR(tools::AdmitStandingDemoWorkload(server.get(), spec));
  VAQ_RETURN_IF_ERROR(
      tools::DriveStandingDemo(server.get(), spec, kTotalAdvances));
  return Collect(server.get());
}

// Runs until `crash_after` advances, then abandons the server — no
// Finish, no final snapshot — exactly what a killed process leaves in
// the store.
Status RunUntilCrash(const tools::StandingDemoSpec& spec,
                     int64_t crash_after) {
  obs::MetricRegistry::Global().Reset();
  VAQ_ASSIGN_OR_RETURN(std::unique_ptr<Server> server,
                       tools::MakeStandingDemoServer(spec));
  VAQ_RETURN_IF_ERROR(tools::AdmitStandingDemoWorkload(server.get(), spec));
  VAQ_RETURN_IF_ERROR(
      tools::DriveStandingDemo(server.get(), spec, crash_after));
  return Status::OK();
}

struct Recovered {
  ckpt::RecoveryReport report;
  RunResult run;
};

// The restarted process: fresh registry (in-memory state died with the
// old process), fresh server, Recover(), resume to the end.
StatusOr<Recovered> RecoverAndFinish(const tools::StandingDemoSpec& spec) {
  obs::MetricRegistry::Global().Reset();
  VAQ_ASSIGN_OR_RETURN(std::unique_ptr<Server> server,
                       tools::MakeStandingDemoServer(spec));
  VAQ_ASSIGN_OR_RETURN(ckpt::RecoveryReport report, server->Recover());
  VAQ_RETURN_IF_ERROR(
      tools::DriveStandingDemo(server.get(), spec, kTotalAdvances));
  Recovered out;
  out.report = report;
  out.run = Collect(server.get());
  return out;
}

int64_t CounterValue(const char* name) {
  return obs::MetricRegistry::Global().GetCounter(name, {})->value();
}

TEST(CkptRecoveryTest, RecoveredRunsAreByteIdenticalAtEveryCrashPoint) {
  const fault::FaultPlan plan(tools::DemoFaultSpec(), /*seed=*/21);
  ckpt::MemStore ref_store;
  const auto reference = RunUninterrupted(DemoSpec(&ref_store, &plan, true));
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_EQ(reference.value().described.size(), 6u);

  struct CrashPoint {
    int64_t advances;
    std::string snapshot;  // Expected restore source; empty = cold start.
  };
  const CrashPoint points[] = {
      {3, ""},                      // Before any snapshot: WAL-only replay.
      {10, ckpt::SnapshotName(0)},  // One snapshot plus a WAL suffix.
      {17, ckpt::SnapshotName(1)},  // Newest of two retained snapshots.
  };
  for (const CrashPoint& point : points) {
    SCOPED_TRACE("crash after " + std::to_string(point.advances) +
                 " advances");
    ckpt::MemStore store;
    const tools::StandingDemoSpec spec = DemoSpec(&store, &plan, true);
    ASSERT_TRUE(RunUntilCrash(spec, point.advances).ok());
    const auto recovered = RecoverAndFinish(spec);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ(recovered.value().report.snapshot, point.snapshot);
    EXPECT_EQ(recovered.value().report.snapshots_rejected, 0);
    EXPECT_GT(recovered.value().report.wal_records, 0);
    EXPECT_EQ(recovered.value().report.wal_bytes_dropped, 0);
    EXPECT_EQ(recovered.value().run.described, reference.value().described);
    EXPECT_EQ(recovered.value().run.metrics, reference.value().metrics);
    EXPECT_EQ(CounterValue("vaq_ckpt_recoveries_total"), 1);
    EXPECT_EQ(CounterValue("vaq_ckpt_corrupt_total"), 0);
  }
}

TEST(CkptRecoveryTest, RecoveredRunsAreByteIdenticalAtAllCrashPoints) {
  // The full sweep: crash after EVERY advance count in (0, kTotal), not
  // just the three representative points above — every WAL offset,
  // every snapshot boundary, every boundary±1. ~40 recoveries of an
  // inference-heavy session is too slow for the sanitizer configs, and
  // the representative points already run there, so the sweep is
  // plain-config only.
#ifdef VAQ_UNDER_SANITIZER
  GTEST_SKIP() << "full crash-point sweep runs in the plain config only";
#else
  const fault::FaultPlan plan(tools::DemoFaultSpec(), /*seed=*/21);
  ckpt::MemStore ref_store;
  const auto reference = RunUninterrupted(DemoSpec(&ref_store, &plan, true));
  ASSERT_TRUE(reference.ok()) << reference.status();

  for (int64_t crash = 1; crash < kTotalAdvances; ++crash) {
    SCOPED_TRACE("crash after " + std::to_string(crash) + " advances");
    ckpt::MemStore store;
    const tools::StandingDemoSpec spec = DemoSpec(&store, &plan, true);
    ASSERT_TRUE(RunUntilCrash(spec, crash).ok());
    const auto recovered = RecoverAndFinish(spec);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    // Retention keeps the newest snapshot and its predecessor; the
    // restore source is always the newest one taken before the crash.
    const int64_t snapshots_taken = crash / kSnapshotEvery;
    EXPECT_EQ(recovered.value().report.snapshot,
              snapshots_taken == 0
                  ? ""
                  : ckpt::SnapshotName(snapshots_taken - 1));
    EXPECT_EQ(recovered.value().report.snapshots_rejected, 0);
    EXPECT_EQ(recovered.value().report.wal_bytes_dropped, 0);
    EXPECT_EQ(recovered.value().run.described, reference.value().described);
    EXPECT_EQ(recovered.value().run.metrics, reference.value().metrics);
    EXPECT_EQ(CounterValue("vaq_ckpt_recoveries_total"), 1);
    EXPECT_EQ(CounterValue("vaq_ckpt_corrupt_total"), 0);
  }
#endif
}

TEST(CkptRecoveryTest, PrivateBundleRecoveryIsByteIdentical) {
  // Same claim with the shared detection cache off: per-query bundles
  // carry their own cumulative model stats through the snapshot.
  const fault::FaultPlan plan(tools::DemoFaultSpec(), /*seed=*/21);
  ckpt::MemStore ref_store;
  const auto reference = RunUninterrupted(DemoSpec(&ref_store, &plan, false));
  ASSERT_TRUE(reference.ok()) << reference.status();

  ckpt::MemStore store;
  const tools::StandingDemoSpec spec = DemoSpec(&store, &plan, false);
  ASSERT_TRUE(RunUntilCrash(spec, 10).ok());
  const auto recovered = RecoverAndFinish(spec);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered.value().run.described, reference.value().described);
  EXPECT_EQ(recovered.value().run.metrics, reference.value().metrics);
}

TEST(CkptRecoveryTest, DirStoreRecoverySurvivesProcessReopen) {
  // End to end through the filesystem: the "process" that crashes and
  // the one that recovers hold distinct DirStore instances on the same
  // directory, the way two vaqctl invocations would.
  const fault::FaultPlan plan(tools::DemoFaultSpec(), /*seed=*/21);
  ckpt::MemStore ref_store;
  const auto reference = RunUninterrupted(DemoSpec(&ref_store, &plan, true));
  ASSERT_TRUE(reference.ok()) << reference.status();

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "ckpt_recovery_dirstore";
  std::filesystem::remove_all(dir);
  {
    ckpt::DirStore store(dir.string());
    ASSERT_TRUE(RunUntilCrash(DemoSpec(&store, &plan, true), 17).ok());
  }
  ckpt::DirStore reopened(dir.string());
  const auto recovered = RecoverAndFinish(DemoSpec(&reopened, &plan, true));
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered.value().report.snapshot, ckpt::SnapshotName(1));
  EXPECT_EQ(recovered.value().run.described, reference.value().described);
  EXPECT_EQ(recovered.value().run.metrics, reference.value().metrics);
  std::filesystem::remove_all(dir);
}

TEST(CkptRecoveryTest, TornWalTailIsDroppedAndRecoveryStillExact) {
  // A crash mid-append leaves a partial record at the end of the newest
  // WAL segment. Replay must stop there, count the dropped bytes, and
  // the resumed run must still match the reference — the torn tail never
  // held committed work.
  const fault::FaultPlan plan(tools::DemoFaultSpec(), /*seed=*/21);
  ckpt::MemStore ref_store;
  const auto reference = RunUninterrupted(DemoSpec(&ref_store, &plan, true));
  ASSERT_TRUE(reference.ok()) << reference.status();

  ckpt::MemStore store;
  const tools::StandingDemoSpec spec = DemoSpec(&store, &plan, true);
  ASSERT_TRUE(RunUntilCrash(spec, 10).ok());
  // Frame a record, then append only its first five bytes.
  std::string framed;
  ckpt::AppendRecord(&framed, /*tag=*/2, "never committed");
  ASSERT_TRUE(store.Append(ckpt::WalName(1), framed.substr(0, 5)).ok());

  const auto recovered = RecoverAndFinish(spec);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered.value().report.wal_bytes_dropped, 5);
  EXPECT_EQ(recovered.value().run.described, reference.value().described);
  EXPECT_EQ(recovered.value().run.metrics, reference.value().metrics);
}

// --- Snapshot corruption (satellite: fault::FaultPlan checkpoint hooks) --

bool PlanCorrupts(const fault::FaultPlan& plan, const std::string& name) {
  const int64_t entry = static_cast<int64_t>(
      ckpt::Fnv1a64(name.data(), name.size()) >> 1);
  return plan.CheckpointCorrupts(entry);
}

// Corrupt-position far enough into the blob that the flip cannot land in
// the 12-byte header (where it could read as a plausible older version
// instead of failing a record checksum). Snapshots are KBs, so > 5% of
// the blob is comfortably past byte 12.
bool CorruptsBody(const fault::FaultPlan& plan, const std::string& name) {
  if (!PlanCorrupts(plan, name)) return false;
  const int64_t entry = static_cast<int64_t>(
      ckpt::Fnv1a64(name.data(), name.size()) >> 1);
  return plan.CheckpointCorruptPosition(entry) > 0.05;
}

// Deterministically picks a fault seed matching `pred` — how the tests
// aim read corruption at specific store entries.
uint64_t FindCorruptionSeed(
    const std::function<bool(const fault::FaultPlan&)>& pred) {
  fault::FaultSpec spec;
  spec.checkpoint_corrupt_rate = 0.5;
  for (uint64_t seed = 1; seed <= 5000; ++seed) {
    const fault::FaultPlan plan(spec, seed);
    if (pred(plan)) return seed;
  }
  return 0;
}

TEST(CkptRecoveryTest, CorruptNewestSnapshotFallsBackToPrevious) {
  // Crash after 17 advances leaves snap-0, snap-1, wal-1, wal-2. A plan
  // that corrupts exactly snap-1 must fall back to snap-0 and replay
  // both WAL segments — and still reproduce the reference run exactly.
  const uint64_t seed = FindCorruptionSeed([](const fault::FaultPlan& p) {
    return CorruptsBody(p, ckpt::SnapshotName(1)) &&
           !PlanCorrupts(p, ckpt::SnapshotName(0)) &&
           !PlanCorrupts(p, ckpt::WalName(1)) &&
           !PlanCorrupts(p, ckpt::WalName(2));
  });
  ASSERT_NE(seed, 0u);
  fault::FaultSpec fault_spec;
  fault_spec.checkpoint_corrupt_rate = 0.5;
  const fault::FaultPlan plan(fault_spec, seed);

  ckpt::MemStore ref_store;
  const auto reference = RunUninterrupted(DemoSpec(&ref_store, &plan, true));
  ASSERT_TRUE(reference.ok()) << reference.status();

  ckpt::MemStore store;
  const tools::StandingDemoSpec spec = DemoSpec(&store, &plan, true);
  ASSERT_TRUE(RunUntilCrash(spec, 17).ok());
  const auto recovered = RecoverAndFinish(spec);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered.value().report.snapshot, ckpt::SnapshotName(0));
  EXPECT_EQ(recovered.value().report.snapshots_rejected, 1);
  EXPECT_EQ(CounterValue("vaq_ckpt_corrupt_total"), 1);
  EXPECT_EQ(CounterValue("vaq_ckpt_recoveries_total"), 1);
  EXPECT_EQ(recovered.value().run.described, reference.value().described);
  EXPECT_EQ(recovered.value().run.metrics, reference.value().metrics);
}

TEST(CkptRecoveryTest, EverySnapshotCorruptIsAnError) {
  const uint64_t seed = FindCorruptionSeed([](const fault::FaultPlan& p) {
    return CorruptsBody(p, ckpt::SnapshotName(0)) &&
           CorruptsBody(p, ckpt::SnapshotName(1));
  });
  ASSERT_NE(seed, 0u);
  fault::FaultSpec fault_spec;
  fault_spec.checkpoint_corrupt_rate = 0.5;
  const fault::FaultPlan plan(fault_spec, seed);

  ckpt::MemStore store;
  const tools::StandingDemoSpec spec = DemoSpec(&store, &plan, true);
  ASSERT_TRUE(RunUntilCrash(spec, 17).ok());

  obs::MetricRegistry::Global().Reset();
  auto server = tools::MakeStandingDemoServer(spec);
  ASSERT_TRUE(server.ok());
  const auto report = server.value()->Recover();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(CounterValue("vaq_ckpt_corrupt_total"), 2);
}

TEST(CkptRecoveryTest, RecoverGuardsItsPreconditions) {
  // No store configured.
  {
    tools::StandingDemoSpec spec = DemoSpec(nullptr, nullptr, true);
    auto server = tools::MakeStandingDemoServer(spec);
    ASSERT_TRUE(server.ok());
    EXPECT_EQ(server.value()->Recover().status().code(),
              StatusCode::kFailedPrecondition);
  }
  // Not a fresh server: a query was already admitted.
  {
    ckpt::MemStore store;
    tools::StandingDemoSpec spec = DemoSpec(&store, nullptr, true);
    auto server = tools::MakeStandingDemoServer(spec);
    ASSERT_TRUE(server.ok());
    ASSERT_TRUE(tools::AdmitStandingDemoWorkload(server.value().get(), spec)
                    .ok());
    EXPECT_EQ(server.value()->Recover().status().code(),
              StatusCode::kFailedPrecondition);
  }
}

TEST(CkptRecoveryTest, EmptyStoreRecoversToColdStartAndRunsNormally) {
  // `vaqctl recover` on a directory nobody has served into yet: cold
  // start, then the session proceeds as if freshly configured.
  obs::MetricRegistry::Global().Reset();
  ckpt::MemStore store;
  const tools::StandingDemoSpec spec = DemoSpec(&store, nullptr, true);
  auto server = tools::MakeStandingDemoServer(spec);
  ASSERT_TRUE(server.ok());
  const auto report = server.value()->Recover();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report.value().snapshot.empty());
  EXPECT_EQ(report.value().wal_records, 0);
  ASSERT_TRUE(tools::AdmitStandingDemoWorkload(server.value().get(), spec)
                  .ok());
  ASSERT_TRUE(
      tools::DriveStandingDemo(server.value().get(), spec, kTotalAdvances)
          .ok());
  EXPECT_EQ(server.value()->FinishStanding().size(), 6u);
}

// The snapshot entry names in `store`, in sequence order.
std::vector<std::string> SnapshotNames(const ckpt::Store& store) {
  const std::vector<std::string> names = store.List().value();
  std::vector<std::string> snaps;
  for (const std::string& name : names) {
    if (ckpt::SnapshotSeq(name).ok()) snaps.push_back(name);
  }
  return snaps;
}

// Every piece of state a snapshot restores must reach the next snapshot,
// including the resilience wrappers' retry/breaker state of engines that
// have not yet pushed a clip since the restore: a recovered server that
// checkpoints before any advance writes back the records it restored,
// byte for byte, except for its own sequence number.
TEST(CkptRecoveryTest, SnapshotAfterRecoveryRewritesTheRestoredRecords) {
  const fault::FaultPlan plan(tools::DemoFaultSpec(), /*seed=*/21);
  ckpt::MemStore store;
  const tools::StandingDemoSpec spec = DemoSpec(&store, &plan, true);
  // Snapshots land every 7 advances: crash right after the second one.
  ASSERT_TRUE(RunUntilCrash(spec, 2 * kSnapshotEvery).ok());
  const std::vector<std::string> before = SnapshotNames(store);
  ASSERT_FALSE(before.empty());
  const std::string restored_name = before.back();

  obs::MetricRegistry::Global().Reset();
  auto server = tools::MakeStandingDemoServer(spec);
  ASSERT_TRUE(server.ok());
  const auto report = server.value()->Recover();
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report.value().snapshot, restored_name);
  EXPECT_EQ(report.value().wal_records, 0);
  ASSERT_TRUE(server.value()->Checkpoint().ok());
  const std::string rewritten_name = SnapshotNames(store).back();
  ASSERT_NE(rewritten_name, restored_name);

  const auto restored = ckpt::ParseBlob(store.Get(restored_name).value());
  const auto rewritten = ckpt::ParseBlob(store.Get(rewritten_name).value());
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(rewritten.ok());
  ASSERT_EQ(rewritten.value().size(), restored.value().size());
  constexpr uint32_t kSnapMeta = 5;
  constexpr size_t kSeqOffset = 8;  // next_id:i64, then seq:i64.
  int standing_records = 0;
  for (size_t i = 0; i < restored.value().size(); ++i) {
    const ckpt::Record& want = restored.value()[i];
    const ckpt::Record& got = rewritten.value()[i];
    ASSERT_EQ(got.tag, want.tag) << "record " << i;
    if (want.tag == 1) ++standing_records;
    if (want.tag == kSnapMeta) {
      ASSERT_EQ(got.payload.size(), want.payload.size());
      EXPECT_EQ(got.payload.substr(0, kSeqOffset),
                want.payload.substr(0, kSeqOffset));
      EXPECT_EQ(got.payload.substr(kSeqOffset + 8),
                want.payload.substr(kSeqOffset + 8));
      continue;
    }
    EXPECT_EQ(got.payload.size(), want.payload.size()) << "record " << i;
    EXPECT_TRUE(got.payload == want.payload) << "record " << i;
  }
  EXPECT_EQ(standing_records, 6);
}

// Crashes after 17 advances (leaving snap-0, snap-1, wal-1, wal-2),
// optionally corrupts snap-1, then recovers and checkpoints before any
// advance and crashes again. The new snapshot must take a name above
// every snapshot from before, the snapshot recovery restored must stay
// beside it as the fallback (a rejected one must not), and a third
// process must recover byte-identically from either of the two.
void CheckCheckpointAfterRecovery(bool corrupt_newest) {
  ckpt::MemStore ref_store;
  const auto reference = RunUninterrupted(DemoSpec(&ref_store, nullptr, true));
  ASSERT_TRUE(reference.ok()) << reference.status();

  ckpt::MemStore store;
  const tools::StandingDemoSpec spec = DemoSpec(&store, nullptr, true);
  ASSERT_TRUE(RunUntilCrash(spec, 17).ok());
  const std::vector<std::string> before = SnapshotNames(store);
  ASSERT_EQ(before.size(), 2u);
  if (corrupt_newest) {
    ASSERT_TRUE(ckpt::CorruptEntryByte(&store, before.back(), 40, 0x10).ok());
  }

  obs::MetricRegistry::Global().Reset();
  std::string restored;
  {
    auto server = tools::MakeStandingDemoServer(spec);
    ASSERT_TRUE(server.ok());
    const auto report = server.value()->Recover();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report.value().snapshots_rejected, corrupt_newest ? 1 : 0);
    EXPECT_GT(report.value().wal_records, 0);
    restored = report.value().snapshot;
    EXPECT_EQ(restored, corrupt_newest ? before.front() : before.back());
    ASSERT_TRUE(server.value()->Checkpoint().ok());
  }  // Second crash.
  const std::vector<std::string> after = SnapshotNames(store);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after.front(), restored);
  const std::string checkpoint = after.back();
  EXPECT_GT(*ckpt::SnapshotSeq(checkpoint), *ckpt::SnapshotSeq(before.back()));

  ckpt::MemStore intact = store;
  ASSERT_TRUE(ckpt::CorruptEntryByte(&store, checkpoint, 40, 0x10).ok());
  for (ckpt::MemStore* third : {&intact, &store}) {
    const bool fallback = third == &store;
    const auto recovered = RecoverAndFinish(DemoSpec(third, nullptr, true));
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ(recovered.value().report.snapshot,
              fallback ? restored : checkpoint);
    EXPECT_EQ(recovered.value().report.snapshots_rejected, fallback ? 1 : 0);
    EXPECT_EQ(recovered.value().run.described, reference.value().described);
    EXPECT_EQ(recovered.value().run.metrics, reference.value().metrics);
  }
}

// A recovery that replays WAL records resumes the consecutive numbering,
// and its first checkpoint keeps the restored snapshot as the fallback.
TEST(CkptRecoveryTest, CheckpointAfterRecoveryKeepsAFallback) {
  CheckCheckpointAfterRecovery(/*corrupt_newest=*/false);
}

// A fallback past a corrupt newest snapshot must not reuse its name, and
// the corrupt snapshot must not become the next checkpoint's fallback.
TEST(CkptRecoveryTest, CheckpointAfterFallbackNeverReusesASequence) {
  CheckCheckpointAfterRecovery(/*corrupt_newest=*/true);
}

}  // namespace
}  // namespace serve
}  // namespace vaq
