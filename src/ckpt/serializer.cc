#include "ckpt/serializer.h"

#include <cstring>

namespace vaq {
namespace ckpt {

namespace {

// Explicit little-endian encoding keeps blobs byte-stable across hosts
// (and keeps the golden file honest even if the build moves).
void PutLe32(std::string* out, uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v & 0xff);
  b[1] = static_cast<char>((v >> 8) & 0xff);
  b[2] = static_cast<char>((v >> 16) & 0xff);
  b[3] = static_cast<char>((v >> 24) & 0xff);
  out->append(b, 4);
}

void PutLe64(std::string* out, uint64_t v) {
  PutLe32(out, static_cast<uint32_t>(v & 0xffffffffULL));
  PutLe32(out, static_cast<uint32_t>(v >> 32));
}

// Overwrites the 4 bytes at `at`: record and nested-blob lengths are
// patched in once their payload is written.
void SetLe32(std::string* out, size_t at, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) {
    (*out)[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

uint32_t GetLe32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

uint64_t GetLe64(const char* p) {
  return static_cast<uint64_t>(GetLe32(p)) |
         static_cast<uint64_t>(GetLe32(p + 4)) << 32;
}

}  // namespace

uint64_t Fnv1a64(const char* data, size_t size) {
  uint64_t hash = 14695981039346656037ULL;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 1099511628211ULL;
  }
  return hash;
}

void AppendRecord(std::string* out, uint32_t tag, std::string_view payload) {
  const size_t frame_start = out->size();
  PutLe32(out, tag);
  PutLe32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload.data(), payload.size());
  const uint64_t crc = Fnv1a64(out->data() + frame_start,
                               out->size() - frame_start);
  PutLe64(out, crc);
}

Status ReadRecord(std::string_view bytes, size_t* offset, Record* out) {
  const size_t start = *offset;
  if (start == bytes.size()) return Status::OutOfRange("end of records");
  if (bytes.size() - start < 8) return Status::IoError("torn record header");
  const uint32_t tag = GetLe32(bytes.data() + start);
  const uint32_t length = GetLe32(bytes.data() + start + 4);
  if (bytes.size() - start - 8 < static_cast<size_t>(length) + 8) {
    return Status::IoError("torn record body");
  }
  const uint64_t want = GetLe64(bytes.data() + start + 8 + length);
  const uint64_t got = Fnv1a64(bytes.data() + start, 8 + length);
  if (want != got) return Status::Corruption("record checksum mismatch");
  out->tag = tag;
  out->payload.assign(bytes.data() + start + 8, length);
  *offset = start + 8 + length + 8;
  return Status::OK();
}

StatusOr<Deserializer> Deserializer::Open(std::string_view blob) {
  if (blob.size() < 12) return Status::Corruption("checkpoint header torn");
  if (GetLe64(blob.data()) != kBlobMagic) {
    return Status::Corruption("bad checkpoint magic");
  }
  const uint32_t version = GetLe32(blob.data() + 8);
  if (version > kFormatVersion) {
    return Status::Unimplemented("checkpoint format version " +
                                 std::to_string(version) +
                                 " is newer than this build");
  }
  return Deserializer(blob, /*offset=*/12, version);
}

Status Deserializer::Next(Record* out) {
  Status s = ReadRecord(blob_, &offset_, out);
  // A torn frame inside a snapshot blob is corruption, not a WAL-style
  // clean truncation.
  if (s.code() == StatusCode::kIoError) {
    return Status::Corruption(s.message());
  }
  return s;
}

StatusOr<std::vector<Record>> ParseBlob(std::string_view blob) {
  auto reader = Deserializer::Open(blob);
  if (!reader.ok()) return reader.status();
  std::vector<Record> records;
  Record record;
  for (;;) {
    Status s = reader.value().Next(&record);
    if (s.code() == StatusCode::kOutOfRange) break;
    if (!s.ok()) return s;
    records.push_back(std::move(record));
  }
  return records;
}

Archive::Archive(Framing framing) {
  if (framing == Framing::kBlob) {
    PutLe64(&out_, kBlobMagic);
    PutLe32(&out_, kFormatVersion);
  }
}

const char* Archive::Take(size_t n, const char* what) {
  if (!ok()) return nullptr;
  if (at_.payload.size() - at_.offset < n) {
    Fail(Status::Corruption(std::string("payload underrun (") + what + ")"));
    return nullptr;
  }
  const char* p = at_.payload.data() + at_.offset;
  at_.offset += n;
  return p;
}

void Archive::U32(uint32_t& v) {
  if (!loading_) {
    PutLe32(&out_, v);
  } else if (const char* p = Take(4, "u32")) {
    v = GetLe32(p);
  }
}

void Archive::U64(uint64_t& v) {
  if (!loading_) {
    PutLe64(&out_, v);
  } else if (const char* p = Take(8, "u64")) {
    v = GetLe64(p);
  }
}

void Archive::I64(int64_t& v) {
  uint64_t bits = static_cast<uint64_t>(v);
  U64(bits);
  v = static_cast<int64_t>(bits);
}

void Archive::F64(double& v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
  std::memcpy(&v, &bits, sizeof(v));
}

void Archive::Bool(bool& v) {
  if (!loading_) {
    out_.push_back(v ? '\1' : '\0');
  } else if (const char* p = Take(1, "bool")) {
    v = *p != '\0';
  }
}

void Archive::String(std::string& v) {
  uint32_t size = static_cast<uint32_t>(v.size());
  U32(size);
  if (!loading_) {
    out_.append(v.data(), v.size());
  } else if (const char* p = Take(size, "string")) {
    v.assign(p, size);
  }
}

uint32_t Archive::Count(size_t n, size_t element_bytes, size_t tail_bytes) {
  uint32_t count = static_cast<uint32_t>(n);
  U32(count);
  if (!loading_) return count;
  if (!ok()) return 0;
  if (uint64_t{count} * element_bytes + tail_bytes >
      at_.payload.size() - at_.offset) {
    Fail(Status::Corruption("element count overruns its record"));
    return 0;
  }
  return count;
}

size_t Archive::BeginRecord(uint32_t tag) {
  const size_t frame = out_.size();
  PutLe32(&out_, tag);
  PutLe32(&out_, 0);  // Length, patched by EndRecord.
  return frame;
}

void Archive::EndRecord(size_t frame) {
  SetLe32(&out_, frame + 4, static_cast<uint32_t>(out_.size() - frame - 8));
  PutLe64(&out_, Fnv1a64(out_.data() + frame, out_.size() - frame));
}

const ckpt::Record* Archive::NextRecord(uint32_t tag) {
  for (size_t i = at_.next_record; i < at_.records.size(); ++i) {
    if (at_.records[i].tag == tag) {
      at_.next_record = i + 1;
      return &at_.records[i];
    }
  }
  return nullptr;
}

size_t Archive::BeginBlob() {
  const size_t length_at = out_.size();
  PutLe32(&out_, 0);  // Length, patched by EndBlob.
  PutLe64(&out_, kBlobMagic);
  PutLe32(&out_, kFormatVersion);
  return length_at;
}

void Archive::EndBlob(size_t length_at) {
  SetLe32(&out_, length_at,
          static_cast<uint32_t>(out_.size() - length_at - 4));
}

bool Archive::ReadBlob(std::vector<ckpt::Record>* out) {
  uint32_t size = 0;
  U32(size);
  const char* p = Take(size, "blob");
  if (p == nullptr) return false;
  auto records = ParseBlob(std::string_view(p, size));
  if (!records.ok()) {
    Fail(records.status());
    return false;
  }
  *out = std::move(records).value();
  return true;
}

}  // namespace ckpt
}  // namespace vaq
