// The versioned snapshot container: a section-table file format whose
// payload sections are the in-memory layouts (see storage/layout.h).
//
// File layout (all integers little-endian):
//
//   offset  size  field
//   ------  ----  ---------------------------------------------------
//        0    64  FileHeader (magic, version, endian + ABI stamps,
//                 section-table offset/count, file size, header CRC64)
//       64     —  sections, each padded to a 64-byte boundary
//        …     —  section table: section_count × SectionEntry (40 B)
//
// Sections are typed blobs; the well-known types are below.  Readers skip
// entries whose type they don't recognize — unless kSectionFlagCritical
// is set, in which case an unknown type means "a future writer put
// something here you must understand", and the read fails with
// kBadVersion.  That is the forward-compatibility contract: minor-version
// additions are new non-critical sections; layout breaks bump
// kFormatVersionMajor.
//
// Integrity: every section carries its CRC-64/XZ; the header carries its
// own over the first 56 bytes.  SnapshotReader verifies header → version
// → endianness → ABI → bounds → per-section CRC before anything aliases
// the bytes, so a corrupt file yields a typed SnapshotError, never UB.
//
// SnapshotWriter targets any seekable std::ostream (the header is patched
// in place at Finish); SnapshotReader reads a byte span — typically a
// MappedFile's — and owns nothing.

#ifndef FSI_STORAGE_SNAPSHOT_H_
#define FSI_STORAGE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "storage/layout.h"

namespace fsi::storage {

/// "FSISNAP1" read as a little-endian u64.
inline constexpr std::uint64_t kSnapshotMagic = 0x3150414E53495346ULL;

inline constexpr std::uint32_t kFormatVersionMajor = 1;
inline constexpr std::uint32_t kFormatVersionMinor = 0;

/// Written as the literal 0x01020304; reads back differently on a
/// foreign-endian host, which is how we detect one.
inline constexpr std::uint32_t kEndianStamp = 0x01020304;

// Well-known section types.  0 is reserved (never valid).
inline constexpr std::uint32_t kSectionEngineMeta = 1;   // spec/seed/set count
inline constexpr std::uint32_t kSectionCalibration = 2;  // planner JSON
inline constexpr std::uint32_t kSectionSetTable = 3;     // SetRecord array
inline constexpr std::uint32_t kSectionPayload = 4;      // flat arrays
inline constexpr std::uint32_t kSectionTermTable = 5;    // InvertedIndex terms
/// Compressed-set records (api/engine_snapshot.cc): sets whose SetRecord
/// kind is kElements but which were prepared under a space budget carry a
/// block-compressed image here.  Deliberately NOT critical: old readers
/// skip it and rebuild uncompressed from the elements — forward compatible.
inline constexpr std::uint32_t kSectionCompressed = 6;
/// Critical in every ShardedEngine shard image (serve/sharded_engine.cc):
/// shard count, this image's shard index, universe bound, set count and
/// the id of the save it belongs to.
inline constexpr std::uint32_t kSectionShardMap = 7;

/// Set on sections a reader must understand to use the file at all.
inline constexpr std::uint32_t kSectionFlagCritical = 1u << 0;

struct FileHeader {
  std::uint64_t magic = kSnapshotMagic;
  std::uint32_t version_major = kFormatVersionMajor;
  std::uint32_t version_minor = kFormatVersionMinor;
  std::uint32_t endian = kEndianStamp;
  std::uint16_t elem_size = 4;  // sizeof(fsi::Elem)
  std::uint16_t word_size = 8;  // sizeof(fsi::Word)
  std::uint64_t table_offset = 0;
  std::uint32_t section_count = 0;
  std::uint32_t reserved0 = 0;
  std::uint64_t file_size = 0;
  std::uint64_t reserved1 = 0;
  std::uint64_t header_crc = 0;  // CRC-64/XZ over bytes [0, 56)
};
static_assert(sizeof(FileHeader) == 64 &&
              std::is_trivially_copyable_v<FileHeader>);

/// Bytes of the header covered by header_crc.
inline constexpr std::size_t kHeaderCrcBytes =
    sizeof(FileHeader) - sizeof(std::uint64_t);

struct SectionEntry {
  std::uint32_t type = 0;
  std::uint32_t flags = 0;
  std::uint64_t offset = 0;  // from start of file; 64-byte aligned
  std::uint64_t size = 0;    // exact payload bytes (padding not included)
  std::uint64_t crc64 = 0;   // CRC-64/XZ of the payload bytes
  std::uint64_t reserved = 0;
};
static_assert(sizeof(SectionEntry) == 40 &&
              std::is_trivially_copyable_v<SectionEntry>);

/// Streams a snapshot: header placeholder, sections (64-byte aligned,
/// CRC'd as they pass through), section table, then seeks back to patch
/// the header.  The stream must therefore be seekable.  Refuses to run on
/// big-endian hosts (the format is little-endian and the writer does not
/// byte-swap).
class SnapshotWriter {
 public:
  explicit SnapshotWriter(std::ostream& out);

  /// Appends one section.  Sections are laid out in call order.
  void AddSection(std::uint32_t type, std::span<const std::byte> bytes,
                  std::uint32_t flags = 0);

  /// Writes the section table, patches the header, flushes.  Must be
  /// called exactly once; no AddSection after.  Throws
  /// SnapshotError(kIo) if the stream went bad.
  void Finish();

  std::size_t bytes_written() const noexcept { return offset_; }

 private:
  void WriteRaw(const void* data, std::size_t bytes);
  void PadTo(std::size_t alignment);

  std::ostream& out_;
  std::vector<SectionEntry> entries_;
  std::size_t offset_ = 0;  // bytes written so far
  bool finished_ = false;
};

/// Validates and indexes a snapshot held in `file` (not owned — typically
/// a MappedFile's bytes, which must outlive the reader and anything
/// resolved out of it).  All validation happens in the constructor.
class SnapshotReader {
 public:
  struct Options {
    /// Verify per-section CRC64s (the header CRC is always checked).
    /// Costs one linear pass over the file; on by default because it is
    /// the only thing standing between a bit flip and wrong results.
    bool verify_checksums = true;
  };

  explicit SnapshotReader(std::span<const std::byte> file)
      : SnapshotReader(file, Options()) {}
  SnapshotReader(std::span<const std::byte> file, Options options);

  const FileHeader& header() const noexcept { return header_; }
  std::span<const SectionEntry> entries() const noexcept { return entries_; }

  /// Bytes of the first section of `type`, or nullopt when absent.
  std::optional<std::span<const std::byte>> Section(
      std::uint32_t type) const noexcept;

  /// Like Section, but a missing section throws SnapshotError(kCorrupt).
  std::span<const std::byte> RequireSection(std::uint32_t type,
                                            const char* what) const;

  /// The whole file as loaded (for "does this span alias the mapping?"
  /// checks and size reporting).
  std::span<const std::byte> file() const noexcept { return file_; }

 private:
  std::span<const std::byte> file_;
  FileHeader header_;
  std::vector<SectionEntry> entries_;
};

}  // namespace fsi::storage

#endif  // FSI_STORAGE_SNAPSHOT_H_
