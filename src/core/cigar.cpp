#include "core/cigar.hpp"

#include <algorithm>

#include "util/packed_dna.hpp"

namespace repute::core {

void CigarAnnotator::set_read(const genomics::Read& read) {
    read_ = &read;
    have_reverse_ = false;
}

bool CigarAnnotator::annotate(const genomics::Reference& reference,
                              const ReadMapping& mapping,
                              std::uint32_t delta, AnnotatedMapping& out) {
    const auto n = static_cast<std::uint32_t>(read_->length());
    const auto text_len = static_cast<std::uint32_t>(reference.size());

    const std::uint32_t win_lo =
        mapping.position >= delta ? mapping.position - delta : 0;
    if (win_lo >= text_len) return false;
    const std::uint32_t win_len =
        std::min<std::uint32_t>(n + 2 * delta, text_len - win_lo);

    if (mapping.strand == genomics::Strand::Reverse && !have_reverse_) {
        read_->reverse_complement(reverse_);
        have_reverse_ = true;
    }
    const std::vector<std::uint8_t>& pattern =
        mapping.strand == genomics::Strand::Reverse ? reverse_
                                                    : read_->codes;
    window_.resize(win_len);
    reference.sequence().extract(win_lo, win_len, window_.data());

    if (!aligner_.align(pattern, window_, delta, alignment_)) return false;

    out.mapping = mapping;
    out.mapping.edit_distance =
        static_cast<std::uint16_t>(alignment_.distance);
    out.precise_position = win_lo + alignment_.text_start;
    out.cigar.assign(alignment_.cigar);
    return true;
}

std::optional<AnnotatedMapping> annotate_mapping(
    const genomics::Reference& reference, const genomics::Read& read,
    const ReadMapping& mapping, std::uint32_t delta) {
    thread_local CigarAnnotator annotator;
    annotator.set_read(read);
    AnnotatedMapping out;
    if (!annotator.annotate(reference, mapping, delta, out)) {
        return std::nullopt;
    }
    return out;
}

} // namespace repute::core
