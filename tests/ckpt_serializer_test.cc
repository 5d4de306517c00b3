// Checkpoint framing and store unit tests: Archive field round-trips
// (incl. F64 bit-exactness, the sticky first error, tag matching and
// nested blobs), record framing and checksums, blob header checks,
// unknown-tag forward compatibility, torn-WAL-tail truncation semantics,
// sequence-numbered entry names, and MemStore/DirStore contract parity.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/recovery.h"
#include "ckpt/serializer.h"
#include "ckpt/store.h"
#include "obs/metrics.h"

namespace vaq {
namespace ckpt {
namespace {

// The blob of one tag-1 record whose payload `fields` saves.
template <typename Fields>
std::string OneRecordBlob(Fields&& fields) {
  return SaveBlob([&](Archive& ar) { ar.Record(1, [&] { fields(ar); }); });
}

// Runs `fields` over the tag-1 record of `blob`; the load's status.
template <typename Fields>
Status LoadOneRecord(const std::string& blob, Fields&& fields) {
  return LoadBlob(blob, [&](Archive& ar) {
    EXPECT_TRUE(ar.Record(1, [&] { fields(ar); }));
  });
}

TEST(PayloadTest, RoundTripsEveryFieldType) {
  uint32_t u32 = 0xDEADBEEFu;
  uint64_t u64 = 0x0123456789ABCDEFull;
  int64_t i64 = -42;
  double f64 = 0.1;  // Not exactly representable: bit pattern must survive.
  bool b1 = true, b2 = false;
  std::string s1 = "durability", s2;  // Empty strings are legal.
  // One body for both directions, as every component's Persist.
  const auto fields = [&](Archive& ar) {
    ar.U32(u32);
    ar.U64(u64);
    ar.I64(i64);
    ar.F64(f64);
    ar.Bool(b1);
    ar.Bool(b2);
    ar.String(s1);
    ar.String(s2);
  };
  const std::string blob = OneRecordBlob(fields);
  auto records = ParseBlob(blob);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), 1u);
  EXPECT_EQ(records.value()[0].payload.size(), 4u + 8 + 8 + 8 + 1 + 1 + 14 + 4);

  u32 = 0;
  u64 = 0;
  i64 = 0;
  f64 = 0;
  b1 = false;
  b2 = true;
  s1.clear();
  s2 = "stale";
  ASSERT_TRUE(LoadOneRecord(blob, fields).ok());
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(f64, 0.1);
  EXPECT_TRUE(b1);
  EXPECT_FALSE(b2);
  EXPECT_EQ(s1, "durability");
  EXPECT_EQ(s2, "");
}

TEST(PayloadTest, F64RoundTripIsBitExact) {
  // The metric-identity guarantee rests on doubles surviving a snapshot
  // bit for bit, including non-finite and denormal values.
  const double values[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           1.0 / 3.0,
                           std::nan("")};
  for (const double v : values) {
    double field = v;
    const std::string blob = OneRecordBlob([&](Archive& ar) { ar.F64(field); });
    double got = 0;
    ASSERT_TRUE(LoadOneRecord(blob, [&](Archive& ar) { ar.F64(got); }).ok());
    uint64_t want_bits = 0, got_bits = 0;
    static_assert(sizeof(want_bits) == sizeof(v));
    std::memcpy(&want_bits, &v, sizeof(v));
    std::memcpy(&got_bits, &got, sizeof(got));
    EXPECT_EQ(got_bits, want_bits);
  }
}

TEST(PayloadTest, UnderrunIsCorruption) {
  uint32_t seven = 7;
  const std::string blob = OneRecordBlob([&](Archive& ar) { ar.U32(seven); });
  uint64_t u64 = 0;  // Wider than what was written.
  uint32_t after = 5;
  const Status s = LoadOneRecord(blob, [&](Archive& ar) {
    ar.U64(u64);
    // The first error sticks: later reads are no-ops.
    ar.U32(after);
  });
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("u64"), std::string::npos) << s;
  EXPECT_EQ(after, 5u);

  // A string length prefix that overruns the payload is also corruption,
  // not a crash.
  uint32_t lying = 1000;  // Claims 1000 bytes follow; none do.
  const std::string lying_blob =
      OneRecordBlob([&](Archive& ar) { ar.U32(lying); });
  std::string str;
  EXPECT_EQ(LoadOneRecord(lying_blob, [&](Archive& ar) { ar.String(str); })
                .code(),
            StatusCode::kCorruption);
}

// Loading matches records by tag in blob order: records the body does
// not ask for (a newer writer's) are skipped, a missing record runs
// nothing, and an optional record exists exactly when its slot is full.
TEST(PayloadTest, RecordsMatchByTagInOrder) {
  struct Slot {
    int64_t value = 0;
    void Persist(Archive& ar) { ar.I64(value); }
  };
  std::optional<Slot> full = Slot{7};
  std::optional<Slot> empty;
  const std::string blob = SaveBlob([&](Archive& ar) {
    int64_t first = 1, second = 2;
    std::string newer = "from a newer writer";
    ar.Record(1, [&] { ar.I64(first); });
    ar.Record(9, [&] { ar.String(newer); });
    ar.Record(1, [&] { ar.I64(second); });
    ar.Optional(3, full);
    ar.Optional(4, empty);
  });
  ASSERT_EQ(ParseBlob(blob).value().size(), 4u);

  std::vector<int64_t> got;
  std::optional<Slot> loaded_full, loaded_empty;
  bool missing_ran = false;
  ASSERT_TRUE(LoadBlob(blob, [&](Archive& ar) {
                int64_t v = 0;
                while (ar.Record(1, [&] { ar.I64(v); })) got.push_back(v);
                EXPECT_FALSE(ar.Record(2, [&] { missing_ran = true; }));
                ar.Optional(3, loaded_full);
                ar.Optional(4, loaded_empty);
              }).ok());
  EXPECT_EQ(got, (std::vector<int64_t>{1, 2}));
  EXPECT_FALSE(missing_ran);
  ASSERT_TRUE(loaded_full.has_value());
  EXPECT_EQ(loaded_full->value, 7);
  EXPECT_FALSE(loaded_empty.has_value());
}

// A nested blob (an engine snapshot inside a server record) is written in
// place and loads back through the same body.
TEST(PayloadTest, NestedBlobRoundTrips) {
  int64_t outer = 5, inner = 6;
  const auto body = [&](Archive& ar) {
    ar.Record(1, [&] {
      ar.I64(outer);
      ar.Blob([&] { ar.Record(2, [&] { ar.I64(inner); }); });
    });
  };
  const std::string blob = SaveBlob(body);
  // The nested bytes are a blob of their own.
  auto records = ParseBlob(blob);
  ASSERT_TRUE(records.ok());
  const std::string& payload = records.value()[0].payload;
  ASSERT_GT(payload.size(), 12u);
  EXPECT_TRUE(ParseBlob(std::string_view(payload).substr(12)).ok());

  outer = 0;
  inner = 0;
  ASSERT_TRUE(LoadBlob(blob, body).ok());
  EXPECT_EQ(outer, 5);
  EXPECT_EQ(inner, 6);
}

TEST(RecordTest, AppendReadRoundTrip) {
  std::string log;
  AppendRecord(&log, /*tag=*/3, "first");
  AppendRecord(&log, /*tag=*/9, "");
  AppendRecord(&log, /*tag=*/3, "third");

  size_t offset = 0;
  Record record;
  ASSERT_TRUE(ReadRecord(log, &offset, &record).ok());
  EXPECT_EQ(record.tag, 3u);
  EXPECT_EQ(record.payload, "first");
  ASSERT_TRUE(ReadRecord(log, &offset, &record).ok());
  EXPECT_EQ(record.tag, 9u);
  EXPECT_EQ(record.payload, "");
  ASSERT_TRUE(ReadRecord(log, &offset, &record).ok());
  EXPECT_EQ(record.payload, "third");
  // Clean end of input.
  EXPECT_EQ(ReadRecord(log, &offset, &record).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(offset, log.size());
}

TEST(RecordTest, BitFlipFailsChecksum) {
  std::string log;
  AppendRecord(&log, /*tag=*/1, "payload bytes");
  for (size_t i = 0; i < log.size(); ++i) {
    std::string damaged = log;
    damaged[i] ^= 0x01;
    size_t offset = 0;
    Record record;
    const Status s = ReadRecord(damaged, &offset, &record);
    // Any single-bit flip is caught: either the checksum fails, or the
    // corrupted length makes the frame torn / oversized.
    EXPECT_FALSE(s.ok()) << "flip at byte " << i;
    EXPECT_NE(s.code(), StatusCode::kOutOfRange) << "flip at byte " << i;
  }
}

TEST(RecordTest, TornTailIsIoErrorNotCorruption) {
  // A crash mid-append leaves a partial final record. That must parse as
  // a truncation (kIoError), distinguishable from checksum corruption —
  // WAL replay treats it as the end of the usable log.
  std::string log;
  AppendRecord(&log, /*tag=*/2, "committed");
  const size_t committed = log.size();
  AppendRecord(&log, /*tag=*/2, "torn write");
  for (size_t cut = committed + 1; cut < log.size(); ++cut) {
    const std::string torn = log.substr(0, cut);
    size_t offset = 0;
    Record record;
    ASSERT_TRUE(ReadRecord(torn, &offset, &record).ok());
    EXPECT_EQ(record.payload, "committed");
    EXPECT_EQ(ReadRecord(torn, &offset, &record).code(), StatusCode::kIoError)
        << "cut at byte " << cut;
  }
}

TEST(BlobTest, SerializerDeserializerRoundTrip) {
  int64_t i64 = 77;
  std::string blob =
      SaveBlob([&](Archive& ar) { ar.Record(1, [&] { ar.I64(i64); }); });
  AppendRecord(&blob, /*tag=*/2, "raw payload");

  auto reader = Deserializer::Open(blob);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader.value().version(), kFormatVersion);
  Record record;
  ASSERT_TRUE(reader.value().Next(&record).ok());
  EXPECT_EQ(record.tag, 1u);
  EXPECT_EQ(record.payload.size(), 8u);
  ASSERT_TRUE(reader.value().Next(&record).ok());
  EXPECT_EQ(record.payload, "raw payload");
  EXPECT_EQ(reader.value().Next(&record).code(), StatusCode::kOutOfRange);

  auto records = ParseBlob(blob);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), 2u);
  EXPECT_EQ(records.value()[1].tag, 2u);
  i64 = 0;
  Archive in(records.value());
  EXPECT_TRUE(in.Record(1, [&] { in.I64(i64); }));
  EXPECT_TRUE(in.ok());
  EXPECT_EQ(i64, 77);
}

TEST(BlobTest, RejectsBadMagicAndNewerVersion) {
  std::string blob = SaveBlob([](Archive&) {});
  AppendRecord(&blob, /*tag=*/1, "x");

  std::string bad_magic = blob;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(Deserializer::Open(bad_magic).status().code(),
            StatusCode::kCorruption);
  EXPECT_FALSE(ParseBlob(bad_magic).ok());

  // Bump the version field (bytes 8..11, little-endian) past ours: a
  // newer writer's blob must be refused, not misread.
  std::string newer = blob;
  newer[8] = static_cast<char>(kFormatVersion + 1);
  EXPECT_EQ(Deserializer::Open(newer).status().code(),
            StatusCode::kUnimplemented);

  EXPECT_EQ(Deserializer::Open("short").status().code(),
            StatusCode::kCorruption);
}

TEST(BlobTest, SnapshotsRejectTornRecords) {
  // Unlike a WAL, a snapshot must be intact end to end: a torn final
  // record makes the whole blob unusable.
  std::string blob = SaveBlob([](Archive&) {});
  AppendRecord(&blob, /*tag=*/1, "only record");
  const std::string torn = blob.substr(0, blob.size() - 3);
  EXPECT_FALSE(ParseBlob(torn).ok());
  auto reader = Deserializer::Open(torn);
  ASSERT_TRUE(reader.ok());
  Record record;
  EXPECT_EQ(reader.value().Next(&record).code(), StatusCode::kCorruption);
}

// A checksum-valid histogram record whose bucket count claims 2^32 - 1
// bounds: loading must reject the count before allocating for it (and
// before `n + 1` bucket slots can wrap to zero).
TEST(MetricsIoTest, BucketCountBeyondThePayloadIsCorruption) {
  const std::string blob = OneRecordBlob([](Archive& ar) {
    std::string name = "vaq_forged_ms";
    uint32_t kind = static_cast<uint32_t>(obs::Snapshot::Kind::kHistogram);
    uint32_t labels = 0;
    uint32_t bounds = 0xFFFFFFFFu;
    double bound = 1.0;
    ar.String(name);
    ar.U32(kind);
    ar.U32(labels);
    ar.U32(bounds);
    ar.F64(bound);
  });
  obs::Snapshot::Entry entry;
  EXPECT_EQ(
      LoadOneRecord(blob, [&](Archive& ar) { entry.Persist(ar); }).code(),
      StatusCode::kCorruption);
  EXPECT_TRUE(entry.bounds.empty());
}

TEST(NamesTest, SequenceNamesSortAndParse) {
  EXPECT_EQ(SnapshotName(0), "snap-00000000");
  EXPECT_EQ(SnapshotName(42), "snap-00000042");
  EXPECT_EQ(WalName(7), "wal-00000007");
  EXPECT_LT(SnapshotName(9), SnapshotName(10));  // Lexical == numeric.
  ASSERT_TRUE(SnapshotSeq("snap-00000042").ok());
  EXPECT_EQ(SnapshotSeq("snap-00000042").value(), 42);
  ASSERT_TRUE(WalSeq("wal-00000007").ok());
  EXPECT_EQ(WalSeq("wal-00000007").value(), 7);
  EXPECT_FALSE(SnapshotSeq("wal-00000007").ok());
  EXPECT_FALSE(WalSeq("snap-00000042").ok());
  EXPECT_FALSE(SnapshotSeq("snap-").ok());
  EXPECT_FALSE(SnapshotSeq("snap-12x4").ok());
  EXPECT_TRUE(ValidEntryName(SnapshotName(3)));
  EXPECT_TRUE(ValidEntryName(WalName(3)));
}

// The Store contract, run against both implementations.
class StoreContractTest : public ::testing::TestWithParam<bool> {
 protected:
  StoreContractTest() {
    if (GetParam()) {
      dir_ = std::filesystem::path(::testing::TempDir()) /
             ("ckpt_store_test_" +
              std::to_string(::testing::UnitTest::GetInstance()
                                 ->random_seed()) +
              "_" + ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name());
      std::filesystem::remove_all(dir_);
      store_ = std::make_unique<DirStore>(dir_.string());
    } else {
      store_ = std::make_unique<MemStore>();
    }
  }
  ~StoreContractTest() override {
    store_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  std::unique_ptr<Store> store_;
  std::filesystem::path dir_;
};

TEST_P(StoreContractTest, PutGetReplaceDelete) {
  EXPECT_EQ(store_->Get("absent").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(store_->Put("snap-00000000", "v1").ok());
  ASSERT_TRUE(store_->Put("snap-00000000", "v2").ok());  // Replace.
  auto got = store_->Get("snap-00000000");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "v2");
  ASSERT_TRUE(store_->Delete("snap-00000000").ok());
  EXPECT_EQ(store_->Get("snap-00000000").status().code(),
            StatusCode::kNotFound);
  // Deleting a missing entry is fine — truncation must be idempotent.
  EXPECT_TRUE(store_->Delete("snap-00000000").ok());
}

TEST_P(StoreContractTest, AppendCreatesAndExtends) {
  ASSERT_TRUE(store_->Append("wal-00000000", "abc").ok());
  ASSERT_TRUE(store_->Append("wal-00000000", "def").ok());
  auto got = store_->Get("wal-00000000");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "abcdef");
}

TEST_P(StoreContractTest, ListIsSortedAndComplete) {
  ASSERT_TRUE(store_->Put("wal-00000001", "w").ok());
  ASSERT_TRUE(store_->Put("snap-00000001", "b").ok());
  ASSERT_TRUE(store_->Put("snap-00000000", "a").ok());
  auto names = store_->List();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(),
            (std::vector<std::string>{"snap-00000000", "snap-00000001",
                                      "wal-00000001"}));
}

TEST_P(StoreContractTest, RejectsInvalidEntryNames) {
  EXPECT_FALSE(ValidEntryName(""));
  EXPECT_FALSE(ValidEntryName("a/b"));
  EXPECT_FALSE(ValidEntryName("../escape"));
  EXPECT_FALSE(ValidEntryName("#temp"));
  EXPECT_FALSE(store_->Put("a/b", "x").ok());
  EXPECT_FALSE(store_->Append("../escape", "x").ok());
  EXPECT_FALSE(store_->Get("#temp").ok());
}

INSTANTIATE_TEST_SUITE_P(MemAndDir, StoreContractTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "DirStore" : "MemStore";
                         });

TEST(DirStoreTest, SurvivesReopenAndIgnoresTempLeftovers) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "ckpt_dirstore_reopen";
  std::filesystem::remove_all(dir);
  {
    DirStore store(dir.string());
    ASSERT_TRUE(store.Put("snap-00000000", "persisted").ok());
  }
  // A crash between temp-write and rename leaves a "#"-prefixed file;
  // a reopened store must not surface it as an entry.
  {
    std::ofstream leftover(dir / "#snap-00000001");
    leftover << "partial";
  }
  DirStore reopened(dir.string());
  auto names = reopened.List();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(), std::vector<std::string>{"snap-00000000"});
  auto got = reopened.Get("snap-00000000");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "persisted");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ckpt
}  // namespace vaq
