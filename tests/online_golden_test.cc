// Pins the online engine's two v1 snapshot layouts to golden files:
//   * the conjunctive (StreamingSvaqd) layout, after 40 clips of the demo
//     stream under the demo fault plan, so the resilience cores, the
//     simulated clock and the degraded/dropped counts are all non-trivial;
//   * the CNF (CnfStream) layout, after 40 fault-free clips of a
//     disjunctive query.
// The engine must write both byte for byte, load both, and resume from a
// loaded golden exactly as an uninterrupted engine continues. Changing
// these bytes makes existing checkpoints unreadable: add record tags
// (append-only within ckpt::kFormatVersion) or bump the version instead.
#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/serializer.h"
#include "detect/models.h"
#include "fault/fault_plan.h"
#include "online/cnf_engine.h"
#include "online/streaming.h"
#include "tools/pipeline_setup.h"
#include "video/cnf_query.h"

#ifndef VAQ_GOLDEN_DIR
#error "VAQ_GOLDEN_DIR must point at tests/golden"
#endif

namespace vaq {
namespace online {
namespace {

constexpr ClipIndex kSnapshotClips = 40;
constexpr uint64_t kModelSeed = 5;
constexpr uint64_t kFaultSeed = 21;

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
    out.push_back(
        static_cast<char>((nibble(hex[i]) << 4) | nibble(hex[i + 1])));
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

// The demo stream's conjunctive query ("running" with "dog") under the
// demo fault plan.
struct StreamingFixture {
  synth::Scenario scenario = tools::DemoScenario(0);
  fault::FaultPlan plan{tools::DemoFaultSpec(), kFaultSeed};

  std::unique_ptr<StreamingSvaqd> NewEngine() const {
    return std::make_unique<StreamingSvaqd>(
        scenario.query(), scenario.layout(), tools::DemoSvaqdOptions(&plan),
        StreamingSvaqd::Callback());
  }
};

// "(dog OR car) AND running" on the second demo stream, fault-free.
struct CnfFixture {
  synth::Scenario scenario = tools::DemoScenario(1);

  std::unique_ptr<CnfStream> NewEngine() const {
    auto query = CnfQuery::FromNames(scenario.vocab(),
                                     {{"obj:dog", "obj:car"}, {"act:running"}});
    VAQ_CHECK(query.ok()) << query.status();
    return std::make_unique<CnfStream>(std::move(query).value(),
                                       scenario.layout(), CnfEngineOptions{});
  }
};

// Pushes clips [engine->next_clip(), end) and returns their indicators.
template <typename Engine>
std::vector<bool> Push(Engine* engine, detect::ModelBundle* models,
                       ClipIndex end) {
  std::vector<bool> out;
  while (engine->next_clip() < end) {
    const StatusOr<bool> indicator =
        engine->PushClip(models->detector.get(), models->recognizer.get());
    VAQ_CHECK(indicator.ok()) << indicator.status();
    out.push_back(indicator.value());
  }
  return out;
}

template <typename Fixture>
std::string SnapshotAfter40(const Fixture& fixture) {
  detect::ModelBundle models = detect::ModelBundle::MaskRcnnI3d(
      fixture.scenario.truth(), kModelSeed);
  auto engine = fixture.NewEngine();
  Push(engine.get(), &models, kSnapshotClips);
  return ckpt::SaveBlob([&](ckpt::Archive& ar) { engine->Persist(ar); });
}

// Loads the golden into a fresh engine, checks that saving it again
// reproduces the golden bytes, and that the rest of the stream matches an
// engine that never stopped.
template <typename Fixture>
void ExpectGoldenLoadsAndResumes(const Fixture& fixture,
                                 const std::string& golden_hex) {
  auto loaded = fixture.NewEngine();
  ASSERT_TRUE(ckpt::LoadBlob(Unhex(golden_hex), [&](ckpt::Archive& ar) {
                loaded->Persist(ar);
              }).ok());
  EXPECT_EQ(loaded->next_clip(), kSnapshotClips);
  EXPECT_EQ(
      Hex(ckpt::SaveBlob([&](ckpt::Archive& ar) { loaded->Persist(ar); })),
      golden_hex);

  const ClipIndex num_clips = fixture.scenario.layout().NumClips();
  detect::ModelBundle m1 = detect::ModelBundle::MaskRcnnI3d(
      fixture.scenario.truth(), kModelSeed);
  auto uninterrupted = fixture.NewEngine();
  Push(uninterrupted.get(), &m1, kSnapshotClips);
  const std::vector<bool> expected = Push(uninterrupted.get(), &m1, num_clips);
  uninterrupted->Finish();

  detect::ModelBundle m2 = detect::ModelBundle::MaskRcnnI3d(
      fixture.scenario.truth(), kModelSeed);
  EXPECT_EQ(Push(loaded.get(), &m2, num_clips), expected);
  loaded->Finish();
  EXPECT_EQ(loaded->sequences(), uninterrupted->sequences());
  EXPECT_EQ(loaded->kcrit(), uninterrupted->kcrit());
}

TEST(OnlineGoldenTest, StreamingLayoutUnderFaultsIsFrozen) {
  const std::string golden = ReadGolden("streaming_svaqd_v1.hex");
  ASSERT_FALSE(golden.empty()) << "missing golden streaming_svaqd_v1.hex";
  EXPECT_EQ(Hex(SnapshotAfter40(StreamingFixture())), golden);
}

TEST(OnlineGoldenTest, StreamingGoldenLoadsAndResumes) {
  const std::string golden = ReadGolden("streaming_svaqd_v1.hex");
  ASSERT_FALSE(golden.empty());
  ExpectGoldenLoadsAndResumes(StreamingFixture(), golden);
}

TEST(OnlineGoldenTest, CnfLayoutIsFrozen) {
  const std::string golden = ReadGolden("cnf_stream_v1.hex");
  ASSERT_FALSE(golden.empty()) << "missing golden cnf_stream_v1.hex";
  EXPECT_EQ(Hex(SnapshotAfter40(CnfFixture())), golden);
}

TEST(OnlineGoldenTest, CnfGoldenLoadsAndResumes) {
  const std::string golden = ReadGolden("cnf_stream_v1.hex");
  ASSERT_FALSE(golden.empty());
  ExpectGoldenLoadsAndResumes(CnfFixture(), golden);
}

}  // namespace
}  // namespace online
}  // namespace vaq
