#pragma once
// SAM-lite record: the fields core::paired_to_sam fills per mate.
//
// The paper's REPUTE reports (position, edit distance, strand) per
// mapping and defers full SAM/CIGAR to future work. SAM text is written
// in one place, pipeline::SamEmitter; this struct only carries a paired
// record's fields (and the flag constants) on the way there.

#include <cstdint>
#include <string>

#include "genomics/sequence.hpp"

namespace repute::genomics {

struct SamRecord {
    std::string qname;       ///< read name
    std::uint16_t flag = 0;  ///< 0x10 = reverse strand, 0x4 = unmapped
    std::string rname;       ///< reference name ('*' if unmapped)
    std::uint32_t pos = 0;   ///< 1-based leftmost position (0 if unmapped)
    std::uint8_t mapq = 255;
    std::string cigar = "*";
    std::string seq = "*";
    std::uint32_t edit_distance = 0; ///< emitted as NM:i tag

    static constexpr std::uint16_t kFlagPaired = 0x1;
    static constexpr std::uint16_t kFlagProperPair = 0x2;
    static constexpr std::uint16_t kFlagUnmapped = 0x4;
    static constexpr std::uint16_t kFlagMateUnmapped = 0x8;
    static constexpr std::uint16_t kFlagReverse = 0x10;
    static constexpr std::uint16_t kFlagMateReverse = 0x20;
    static constexpr std::uint16_t kFlagFirstInPair = 0x40;
    static constexpr std::uint16_t kFlagSecondInPair = 0x80;
    static constexpr std::uint16_t kFlagSecondary = 0x100;

    // Mate fields (RNEXT/PNEXT/TLEN); defaults match single-end output.
    std::string rnext = "*";
    std::uint32_t pnext = 0;
    std::int32_t tlen = 0;

    bool unmapped() const noexcept { return flag & kFlagUnmapped; }
    Strand strand() const noexcept {
        return (flag & kFlagReverse) ? Strand::Reverse : Strand::Forward;
    }
};

} // namespace repute::genomics
