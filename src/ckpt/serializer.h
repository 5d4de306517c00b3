// Checkpoint framing layer (DESIGN.md §10).
//
// A checkpoint *blob* is a fixed header (magic + format version) followed
// by a sequence of tagged, length-prefixed, individually checksummed
// records:
//
//   blob   := magic:u64 version:u32 record*
//   record := tag:u32 length:u32 payload:length crc:u64
//
// where crc is the FNV-1a 64-bit hash of tag||length||payload — the same
// checksum scheme storage::PagedTable uses for its integrity pages. All
// integers are little-endian regardless of host, so blobs are portable
// and the golden-file test (tests/ckpt_golden_test.cc) pins the byte
// layout.
//
// Forward compatibility: readers skip records whose tag they do not
// recognise (the checksum is still verified), so a newer writer may add
// record types without breaking an older reader of the same format
// version. Removing or re-encoding an existing record type requires a
// kFormatVersion bump.
//
// A write-ahead log reuses the *record* framing without the blob header:
// records are appended to a bare byte stream, and a torn tail (partial
// final record after a crash) parses as a clean truncation, not an
// error. See AppendRecord / ReadRecord.
#ifndef VAQ_CKPT_SERIALIZER_H_
#define VAQ_CKPT_SERIALIZER_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace vaq {
namespace ckpt {

// Bump when an existing record encoding changes incompatibly.
inline constexpr uint32_t kFormatVersion = 1;

// "VAQCKPT\x01" little-endian.
inline constexpr uint64_t kBlobMagic = 0x0154504b43514156ULL;

// FNV-1a 64-bit, identical to the storage::PagedTable page checksum.
uint64_t Fnv1a64(const char* data, size_t size);

struct Record {
  uint32_t tag = 0;
  std::string payload;
};

// Appends one framed record (tag, length, payload, checksum) to *out.
void AppendRecord(std::string* out, uint32_t tag, std::string_view payload);

// Parses one record at *offset, advancing it past the record. Returns
// kOutOfRange at a clean end of input (*offset == bytes.size()),
// kCorruption on a bad checksum, and kIoError on a torn frame (fewer
// bytes remain than the frame claims — the WAL tail after a crash).
Status ReadRecord(std::string_view bytes, size_t* offset, Record* out);

// Blob reader. Open() validates the header and rejects blobs written by
// a *newer* format version (kUnimplemented); older versions are read
// under this version's record schemas (append-only evolution).
class Deserializer {
 public:
  static StatusOr<Deserializer> Open(std::string_view blob);

  uint32_t version() const { return version_; }

  // Next record, in blob order. kOutOfRange at the clean end; any
  // damage (bad frame, bad checksum) is an error — snapshots, unlike
  // WAL tails, must be intact end to end.
  Status Next(Record* out);

 private:
  Deserializer(std::string_view blob, size_t offset, uint32_t version)
      : blob_(blob), offset_(offset), version_(version) {}

  std::string_view blob_;
  size_t offset_ = 0;
  uint32_t version_ = 0;
};

// Parses a full snapshot blob: header check plus every record checksum.
// The cheap way for recovery to decide whether a snapshot is usable
// before mutating any engine state.
StatusOr<std::vector<Record>> ParseBlob(std::string_view blob);

// Field-level archive: the one body each checkpointed component writes
// (DESIGN.md §10). A component's `Persist(Archive&)` names every field
// once, in format order, and serves both directions: a saving archive
// appends each field's bytes, a loading archive assigns them. Fixed-width
// little-endian scalars, IEEE-754 doubles as bit patterns (they
// round-trip exactly), u32-length-prefixed strings; payloads carry no
// per-field tags, each record tag implies its payload schema.
//
// The first load error sticks: every later field read and record lookup
// becomes a no-op, and `status()` reports it once the body returns. So a
// Persist body needs no error plumbing between fields.
class Archive {
 public:
  enum class Framing {
    kBlob,          // Blob header, then records (snapshots).
    kRecordStream,  // Bare records (a WAL segment).
  };

  // A saving archive.
  explicit Archive(Framing framing = Framing::kBlob);
  // A loading archive over parsed records (ParseBlob's output, or one WAL
  // record); `records` must outlive it.
  explicit Archive(std::span<const ckpt::Record> records)
      : loading_(true), at_{records, 0, {}, 0} {}

  bool loading() const { return loading_; }
  const Status& status() const { return status_; }
  bool ok() const { return status_.ok(); }
  // Keeps `s` unless an error is already held.
  void Fail(Status s) {
    if (status_.ok()) status_ = std::move(s);
  }

  void U32(uint32_t& v);
  void U64(uint64_t& v);
  void I64(int64_t& v);
  void F64(double& v);
  void Bool(bool& v);
  void String(std::string& v);

  // An element count: saving writes `n` and returns it; loading reads it
  // and trusts it only once `count * element_bytes + tail_bytes` bytes
  // remain in the record (kCorruption, and 0, otherwise).
  uint32_t Count(size_t n, size_t element_bytes, size_t tail_bytes = 0);

  // A counted vector, `element(v[i])` per entry; `element_bytes` is the
  // smallest encoding of one element.
  template <typename T, typename Fn>
  void Vector(std::vector<T>& v, size_t element_bytes, Fn&& element) {
    v.resize(Count(v.size(), element_bytes));
    for (T& e : v) element(e);
  }

  // One framed record whose payload `body()` persists. Saving appends it.
  // Loading runs `body` over the first unread record with this tag (the
  // records passed over belong to a newer writer and are skipped) and
  // returns false, running nothing, when no such record remains.
  template <typename Body>
  bool Record(uint32_t tag, Body&& body) {
    if (!ok()) return false;
    if (!loading_) {
      const size_t frame = BeginRecord(tag);
      body();
      EndRecord(frame);
      return true;
    }
    const ckpt::Record* record = NextRecord(tag);
    if (record == nullptr) return false;
    const Cursor outer = at_;
    at_.payload = record->payload;
    at_.offset = 0;
    body();
    at_ = outer;
    return true;
  }

  // A record present exactly when `slot` holds a value; loading fills it.
  template <typename T>
  void Optional(uint32_t tag, std::optional<T>& slot) {
    if (!loading_) {
      if (slot.has_value()) Record(tag, [&] { slot->Persist(*this); });
      return;
    }
    Record(tag, [&] {
      if (!slot.has_value()) slot.emplace();
      slot->Persist(*this);
    });
  }

  // A length-prefixed nested blob (header and records of its own, e.g.
  // an engine snapshot inside a server record) whose records `body()`
  // persists. Loading validates every nested checksum first.
  template <typename Body>
  void Blob(Body&& body) {
    if (!ok()) return;
    if (!loading_) {
      const size_t length_at = BeginBlob();
      body();
      EndBlob(length_at);
      return;
    }
    std::vector<ckpt::Record> nested;
    if (!ReadBlob(&nested)) return;
    const Cursor outer = at_;
    at_ = Cursor{nested, 0, {}, 0};
    body();
    at_ = outer;
  }

  // Saving: everything written.
  std::string TakeBytes() && { return std::move(out_); }

 private:
  size_t BeginRecord(uint32_t tag);
  void EndRecord(size_t frame);
  const ckpt::Record* NextRecord(uint32_t tag);
  size_t BeginBlob();
  void EndBlob(size_t length_at);
  bool ReadBlob(std::vector<ckpt::Record>* out);
  // Loading: the next `n` payload bytes, or null (and kCorruption).
  const char* Take(size_t n, const char* what);

  // Loading position: the records, the next unread one, and the payload
  // being read.
  struct Cursor {
    std::span<const ckpt::Record> records;
    size_t next_record = 0;
    std::string_view payload;
    size_t offset = 0;
  };

  bool loading_ = false;
  Status status_;
  std::string out_;  // Saving.
  Cursor at_;        // Loading.
};

// The blob `persist(archive)` saves.
template <typename Persist>
std::string SaveBlob(Persist&& persist) {
  Archive archive;
  persist(archive);
  return std::move(archive).TakeBytes();
}

// Runs `persist(archive)` over `blob` once its header and every record
// checksum are validated, so a damaged blob changes no state.
template <typename Persist>
Status LoadBlob(std::string_view blob, Persist&& persist) {
  auto records = ParseBlob(blob);
  if (!records.ok()) return records.status();
  Archive archive(records.value());
  persist(archive);
  return archive.status();
}

}  // namespace ckpt
}  // namespace vaq

#endif  // VAQ_CKPT_SERIALIZER_H_
