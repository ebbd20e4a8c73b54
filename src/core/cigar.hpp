#pragma once
// CIGAR annotation — the paper's announced extension ("future versions
// of REPUTE will deliver ... SAM output format", §IV).
//
// The mapping kernel reports candidate-diagonal positions and edit
// distances only (cheap, GPU-friendly). This host-side pass re-aligns
// each reported mapping against its window of n + 2*delta reference
// bases to recover the precise alignment start and the CIGAR string;
// pipeline::SamEmitter calls it per emitted mapping to write spec-level
// records. The re-alignment is align::SemiGlobalAligner: a bit-parallel
// forward pass of O((n + 2*delta) * ceil(n/64)) word operations (the
// kernel's own Myers recurrence, with each column's bit-vectors kept,
// ~3.5 KB at n = 100) plus an O(n + delta) traceback that reads the
// exact DP cells back out of them. It is paid only for the mappings
// actually emitted.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "align/edit_distance.hpp"
#include "core/mapping.hpp"
#include "genomics/sequence.hpp"

namespace repute::core {

struct AnnotatedMapping {
    ReadMapping mapping;                ///< as reported by the kernel
    std::uint32_t precise_position = 0; ///< exact 0-based alignment start
    std::string cigar;                  ///< M/I/D operations
};

/// Re-aligns the mappings of one read at a time with scratch kept
/// across calls: the read's reverse complement (built at most once per
/// read, on its first reverse-strand mapping), the reference window and
/// the aligner's state. Once warmed to the longest read and window it
/// allocates nothing, and `out.cigar` reuses its capacity. Not
/// thread-safe; one per rendering thread.
class CigarAnnotator {
public:
    /// Targets `read` for the annotate() calls that follow; `read` must
    /// outlive them.
    void set_read(const genomics::Read& read);

    /// Re-aligns one mapping of the current read into `out`. Returns
    /// false when the re-alignment cannot reproduce a distance <= delta
    /// (should not happen for kernel output; guards against stale
    /// results).
    bool annotate(const genomics::Reference& reference,
                  const ReadMapping& mapping, std::uint32_t delta,
                  AnnotatedMapping& out);

private:
    const genomics::Read* read_ = nullptr;
    bool have_reverse_ = false;
    std::vector<std::uint8_t> reverse_; ///< current read, reverse strand
    std::vector<std::uint8_t> window_;
    align::SemiGlobalAligner aligner_;
    align::SemiGlobalAlignment alignment_;
};

/// One-shot re-alignment of one mapping through a thread-local
/// CigarAnnotator. Returns std::nullopt when the re-alignment cannot
/// reproduce a distance <= delta.
std::optional<AnnotatedMapping> annotate_mapping(
    const genomics::Reference& reference, const genomics::Read& read,
    const ReadMapping& mapping, std::uint32_t delta);

} // namespace repute::core
