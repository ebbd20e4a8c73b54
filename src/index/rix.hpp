#pragma once
// .rix — the mappable index container and the one on-disk index format.
//
// The layout cost is paid once at `repute index build` time, so loads
// are O(sections) — open, checksum, point spans at the mapping — rather
// than a construction-shaped burst of CPU that doubles peak memory. A
// daemon holding one index resident for hours wants exactly that trade.
//
// Layout (little-endian only; the header carries an endian tag so a
// foreign-order file is rejected, not misread):
//
//   page 0:        RixHeader (magic "RIX2", version, endian tag, FmIndex
//                  geometry, reference length, section table, FNV-1a
//                  checksum of the header bytes)
//   section k:     raw array bytes, each starting on a 4096-byte page
//                  boundary (=> 64-byte alignment for the rank blocks
//                  under any page-aligned mmap base), zero-padded to the
//                  next page. Every section carries its own FNV-1a 64
//                  checksum in the header table; load verifies all of
//                  them before any span is handed out.
//
// Sections, in file order:
//   RankBlocks   FmIndex interleaved rank-block image (u64 words)
//   SaMarkBits   sampled-row bit words (rank dirs rebuilt on load)
//   SaSamples    SA values at marked rows (u32)
//   QgramRanges  jump-table ranges (2 x u32 each; empty when q = 0)
//   RefWords     2-bit packed reference text (u64 words)
//   SeqNames     string blob: concatenated-reference name, then one
//                name per sequence (u64 count + u64 len + bytes each)
//   SeqStarts    sequence boundaries (u32, sequence_count + 1 entries)
//
// Images in the retired "FMIX"/"FMI2" iostream formats (written by
// earlier releases) and truncated or bit-flipped files fail with
// distinct, actionable errors (test_rix.cpp pins them).

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "genomics/multi_reference.hpp"
#include "index/fm_index.hpp"
#include "util/mmap_file.hpp"

namespace repute::index {

namespace rix {

constexpr std::uint32_t kMagic = 0x52495832u; // "RIX2"
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::uint32_t kPageBytes = 4096;

enum SectionId : std::uint32_t {
    kRankBlocks = 0,
    kSaMarkBits = 1,
    kSaSamples = 2,
    kQgramRanges = 3,
    kRefWords = 4,
    kSeqNames = 5,
    kSeqStarts = 6,
    kSectionCount = 7,
};

struct Section {
    std::uint64_t offset = 0; ///< from file start; page-aligned
    std::uint64_t bytes = 0;  ///< payload bytes (before page padding)
    std::uint64_t checksum = 0; ///< FNV-1a 64 over the payload bytes
};

struct Header {
    std::uint32_t magic = kMagic;
    std::uint32_t version = kVersion;
    std::uint32_t endian = kEndianTag;
    std::uint32_t page_bytes = kPageBytes;
    std::uint64_t file_bytes = 0;
    // FmIndex geometry (qgram_length is the *effective* q after the
    // table-budget cap, so the view rebuilds nothing).
    std::uint64_t text_length = 0;
    std::array<std::uint32_t, 5> c{};
    std::uint32_t sentinel_row = 0;
    std::uint32_t sa_sample = 1;
    std::uint32_t checkpoint_every = 128;
    std::uint32_t qgram_length = 0;
    std::uint64_t sequence_count = 0;
    std::array<Section, kSectionCount> sections{};
    std::uint64_t header_checksum = 0; ///< FNV-1a with this field zeroed
};
static_assert(std::is_trivially_copyable_v<Header>);

/// Reads and validates just the header of a .rix container (magic,
/// version, endian, checksum) without mapping the sections — what the
/// .rixm manifest layer uses to pin shard identity. Throws
/// std::runtime_error with the same distinct messages as
/// MappedIndex::open for each failure mode.
Header read_header(const std::string& path);

} // namespace rix

/// Writes `multi` + its built FmIndex as a .rix container at `path`
/// (atomic: written to `path + ".tmp"`, then renamed). Throws
/// std::runtime_error on I/O failure.
void write_rix(const std::string& path,
               const genomics::MultiReference& multi, const FmIndex& fm);

/// A .rix container mapped into the process: owns the mapping, a view
/// FmIndex and a view-backed MultiReference whose big arrays all point
/// into it. Move-only; the accessors stay valid for the object's
/// lifetime (spans into the mapping die with it).
class MappedIndex {
public:
    /// Maps and validates `path`: magic/version/endian/size checks,
    /// then FNV-1a verification of the header and every section, then
    /// zero-copy view construction. Throws std::runtime_error with a
    /// distinct message per failure mode; legacy FMIX/FMI2 stream
    /// images are recognized and reported as such.
    static MappedIndex open(const std::string& path);

    MappedIndex(MappedIndex&&) noexcept = default;
    MappedIndex& operator=(MappedIndex&&) noexcept = default;

    const FmIndex& fm() const noexcept { return *fm_; }
    const genomics::MultiReference& multi() const noexcept {
        return *multi_;
    }
    const std::string& path() const noexcept { return path_; }

    /// Bytes of the file mapping (shared, demand-paged, evictable).
    std::size_t mapped_bytes() const noexcept { return map_.size(); }

    /// Private heap actually owned: rebuilt rank directories, name and
    /// boundary tables — the true resident cost of holding the index.
    std::size_t resident_bytes() const noexcept;

private:
    MappedIndex() = default;

    util::MmapFile map_;
    std::string path_;
    // unique_ptrs keep the spans inside fm_/multi_ stable across moves
    // of the MappedIndex itself.
    std::unique_ptr<FmIndex> fm_;
    std::unique_ptr<genomics::MultiReference> multi_;
};

} // namespace repute::index
