#include "storage/snapshot.h"

#include <bit>
#include <cstring>
#include <ostream>
#include <string>

#include "storage/crc64.h"

namespace fsi::storage {
namespace {

[[noreturn]] void Fail(SnapshotErrorCode code, const std::string& what) {
  throw SnapshotError(code, "snapshot: " + what);
}

// std::byteswap is C++23; this build is C++20.
constexpr std::uint64_t Bswap64(std::uint64_t v) {
  v = ((v & 0x00FF00FF00FF00FFULL) << 8) | ((v >> 8) & 0x00FF00FF00FF00FFULL);
  v = ((v & 0x0000FFFF0000FFFFULL) << 16) |
      ((v >> 16) & 0x0000FFFF0000FFFFULL);
  return (v << 32) | (v >> 32);
}

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotWriter

SnapshotWriter::SnapshotWriter(std::ostream& out) : out_(out) {
  if constexpr (std::endian::native != std::endian::little) {
    Fail(SnapshotErrorCode::kForeignEndian,
         "writing snapshots requires a little-endian host");
  }
  // Placeholder header; Finish() seeks back and writes the real one.
  FileHeader header;
  WriteRaw(&header, sizeof(header));
}

void SnapshotWriter::WriteRaw(const void* data, std::size_t bytes) {
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(bytes));
  if (!out_) Fail(SnapshotErrorCode::kIo, "write failed");
  offset_ += bytes;
}

void SnapshotWriter::PadTo(std::size_t alignment) {
  static constexpr char kZeros[kFlatAlignment] = {};
  const std::size_t rem = offset_ % alignment;
  if (rem != 0) WriteRaw(kZeros, alignment - rem);
}

void SnapshotWriter::AddSection(std::uint32_t type,
                                std::span<const std::byte> bytes,
                                std::uint32_t flags) {
  if (finished_) Fail(SnapshotErrorCode::kIo, "AddSection after Finish");
  PadTo(kFlatAlignment);
  SectionEntry entry;
  entry.type = type;
  entry.flags = flags;
  entry.offset = offset_;
  entry.size = bytes.size();
  entry.crc64 = Crc64(bytes.data(), bytes.size());
  entries_.push_back(entry);
  if (!bytes.empty()) WriteRaw(bytes.data(), bytes.size());
}

void SnapshotWriter::Finish() {
  if (finished_) Fail(SnapshotErrorCode::kIo, "Finish called twice");
  finished_ = true;
  PadTo(kFlatAlignment);
  const std::size_t table_offset = offset_;
  if (!entries_.empty()) {
    WriteRaw(entries_.data(), entries_.size() * sizeof(SectionEntry));
  }

  FileHeader header;
  header.table_offset = table_offset;
  header.section_count = static_cast<std::uint32_t>(entries_.size());
  header.file_size = offset_;
  header.header_crc = Crc64(&header, kHeaderCrcBytes);

  out_.seekp(0);
  if (!out_) Fail(SnapshotErrorCode::kIo, "seek failed (stream not seekable?)");
  out_.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out_.seekp(static_cast<std::streamoff>(offset_));
  out_.flush();
  if (!out_) Fail(SnapshotErrorCode::kIo, "write failed");
}

// ---------------------------------------------------------------------------
// SnapshotReader

SnapshotReader::SnapshotReader(std::span<const std::byte> file,
                               Options options)
    : file_(file) {
  if (file_.size() < sizeof(FileHeader)) {
    Fail(SnapshotErrorCode::kTruncated,
         "file smaller than header (" + std::to_string(file_.size()) +
             " bytes)");
  }
  std::memcpy(&header_, file_.data(), sizeof(header_));

  if (header_.magic != kSnapshotMagic) {
    // A foreign-endian header also garbles the magic; distinguish the
    // byte-swapped magic so the error says what actually happened.
    if (header_.magic == Bswap64(kSnapshotMagic)) {
      Fail(SnapshotErrorCode::kForeignEndian,
           "file written on a foreign-endian host");
    }
    Fail(SnapshotErrorCode::kBadMagic, "bad magic (not a snapshot file)");
  }
  if (header_.endian != kEndianStamp) {
    Fail(SnapshotErrorCode::kForeignEndian,
         "file written on a foreign-endian host");
  }
  if (Crc64(file_.data(), kHeaderCrcBytes) != header_.header_crc) {
    Fail(SnapshotErrorCode::kChecksum, "header checksum mismatch");
  }
  if (header_.version_major != kFormatVersionMajor) {
    Fail(SnapshotErrorCode::kBadVersion,
         "format version " + std::to_string(header_.version_major) + "." +
             std::to_string(header_.version_minor) +
             " (this build reads " + std::to_string(kFormatVersionMajor) +
             ".x)");
  }
  if (header_.elem_size != sizeof(std::uint32_t) ||
      header_.word_size != sizeof(std::uint64_t)) {
    Fail(SnapshotErrorCode::kAbiMismatch,
         "element/word width mismatch (file: " +
             std::to_string(header_.elem_size) + "/" +
             std::to_string(header_.word_size) + ", build: 4/8)");
  }
  if (header_.file_size > file_.size()) {
    Fail(SnapshotErrorCode::kTruncated,
         "file truncated (header says " + std::to_string(header_.file_size) +
             " bytes, have " + std::to_string(file_.size()) + ")");
  }

  const std::uint64_t table_bytes =
      std::uint64_t{header_.section_count} * sizeof(SectionEntry);
  if (header_.table_offset > header_.file_size ||
      table_bytes > header_.file_size - header_.table_offset) {
    Fail(SnapshotErrorCode::kTruncated, "section table out of bounds");
  }
  entries_.resize(header_.section_count);
  if (table_bytes > 0) {
    std::memcpy(entries_.data(), file_.data() + header_.table_offset,
                table_bytes);
  }

  for (const SectionEntry& entry : entries_) {
    if (entry.offset % kFlatAlignment != 0) {
      Fail(SnapshotErrorCode::kCorrupt,
           "section " + std::to_string(entry.type) + " misaligned");
    }
    if (entry.offset > header_.file_size ||
        entry.size > header_.file_size - entry.offset) {
      Fail(SnapshotErrorCode::kTruncated,
           "section " + std::to_string(entry.type) + " out of bounds");
    }
    if (options.verify_checksums &&
        Crc64(file_.data() + entry.offset, entry.size) != entry.crc64) {
      Fail(SnapshotErrorCode::kChecksum,
           "section " + std::to_string(entry.type) + " checksum mismatch");
    }
    // Unknown section types are skipped (minor-version additions land
    // here) unless the writer marked them critical.
    if ((entry.flags & kSectionFlagCritical) != 0 &&
        entry.type > kSectionShardMap) {
      Fail(SnapshotErrorCode::kBadVersion,
           "unknown critical section " + std::to_string(entry.type) +
               " (written by a newer version)");
    }
  }
}

std::optional<std::span<const std::byte>> SnapshotReader::Section(
    std::uint32_t type) const noexcept {
  for (const SectionEntry& entry : entries_) {
    if (entry.type == type) {
      return file_.subspan(entry.offset, entry.size);
    }
  }
  return std::nullopt;
}

std::span<const std::byte> SnapshotReader::RequireSection(
    std::uint32_t type, const char* what) const {
  if (auto bytes = Section(type)) return *bytes;
  Fail(SnapshotErrorCode::kCorrupt,
       std::string("missing required section: ") + what);
}

}  // namespace fsi::storage
