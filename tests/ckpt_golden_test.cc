// Pins the checkpoint blob byte layout (format version 1) to a golden
// file. The serializer promises append-only evolution within a format
// version: if this test fails, either bump kFormatVersion (and add a
// golden for the new version) or revert the encoding change — silently
// re-encoding v1 would make existing checkpoints unreadable.
//
// Regenerating (only alongside a version bump): the failure message
// prints the actual hex; paste it into tests/golden/ckpt_format_v<n>.hex.
#include <cctype>
#include <cstdint>
#include <fstream>
#include <span>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "ckpt/serializer.h"

#ifndef VAQ_GOLDEN_DIR
#error "VAQ_GOLDEN_DIR must point at tests/golden"
#endif

namespace vaq {
namespace ckpt {
namespace {

// One record per payload field type, one raw record, and one record
// whose tag no current reader knows — the forward-compat case.
// The fields of record 1: one of each field type.
struct GoldenFields {
  uint32_t u32 = 7;
  uint64_t u64 = 0x1122334455667788ull;
  int64_t i64 = -9;
  double f64 = 0.5;
  bool b = true;
  std::string s = "golden";

  void Persist(Archive& ar) {
    ar.U32(u32);
    ar.U64(u64);
    ar.I64(i64);
    ar.F64(f64);
    ar.Bool(b);
    ar.String(s);
  }
};

std::string CanonicalV1Blob() {
  GoldenFields fields;
  std::string blob =
      SaveBlob([&](Archive& ar) { ar.Record(1, [&] { fields.Persist(ar); }); });
  AppendRecord(&blob, /*tag=*/2, "raw");
  AppendRecord(&blob, /*tag=*/0xFFFFu, "future record type");
  return blob;
}

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

std::string Unhex(const std::string& hex) {
  std::string out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    const auto nibble = [](char c) -> unsigned {
      if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
      return static_cast<unsigned>(c - 'a' + 10);
    };
    out.push_back(static_cast<char>((nibble(hex[i]) << 4) | nibble(hex[i + 1])));
  }
  return out;
}

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(VAQ_GOLDEN_DIR) + "/" + name);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string hex;
  for (const char c : buffer.str()) {  // Tolerate line wraps in the file.
    if (!std::isspace(static_cast<unsigned char>(c))) hex.push_back(c);
  }
  return hex;
}

TEST(CkptGoldenTest, V1BlobBytesAreFrozen) {
  const std::string golden = ReadGolden("ckpt_format_v1.hex");
  ASSERT_FALSE(golden.empty()) << "missing golden file ckpt_format_v1.hex";
  EXPECT_EQ(Hex(CanonicalV1Blob()), golden)
      << "checkpoint v1 encoding changed; bump kFormatVersion instead of "
         "editing the golden file";
}

TEST(CkptGoldenTest, GoldenBytesStillDecode) {
  // Decode from the *file*, not from today's encoder — this is what
  // guarantees yesterday's checkpoints stay readable.
  const std::string blob = Unhex(ReadGolden("ckpt_format_v1.hex"));
  ASSERT_FALSE(blob.empty());
  auto reader = Deserializer::Open(blob);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader.value().version(), 1u);

  Record record;
  ASSERT_TRUE(reader.value().Next(&record).ok());
  EXPECT_EQ(record.tag, 1u);
  GoldenFields got{0, 0, 0, 0.0, false, ""};
  Archive in(std::span<const Record>(&record, 1));
  EXPECT_TRUE(in.Record(1, [&] { got.Persist(in); }));
  ASSERT_TRUE(in.ok()) << in.status();
  EXPECT_EQ(got.u32, 7u);
  EXPECT_EQ(got.u64, 0x1122334455667788ull);
  EXPECT_EQ(got.i64, -9);
  EXPECT_EQ(got.f64, 0.5);
  EXPECT_TRUE(got.b);
  EXPECT_EQ(got.s, "golden");
  // 4 + 8 + 8 + 8 + 1 + (4 + 6) bytes: nothing left over.
  EXPECT_EQ(record.payload.size(), 39u);

  ASSERT_TRUE(reader.value().Next(&record).ok());
  EXPECT_EQ(record.tag, 2u);
  EXPECT_EQ(record.payload, "raw");

  // The unknown-tag record still frames and checksums cleanly; skipping
  // it is the reader's policy decision, not a parse failure.
  ASSERT_TRUE(reader.value().Next(&record).ok());
  EXPECT_EQ(record.tag, 0xFFFFu);
  EXPECT_EQ(record.payload, "future record type");
  EXPECT_EQ(reader.value().Next(&record).code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace ckpt
}  // namespace vaq
