#pragma once
// CIGAR annotation — the paper's announced extension ("future versions
// of REPUTE will deliver ... SAM output format", §IV).
//
// The mapping kernel reports candidate-diagonal positions and edit
// distances only (cheap, GPU-friendly). This host-side pass re-aligns
// each reported mapping with the full-traceback DP to recover the
// precise alignment start and the CIGAR string; pipeline::SamEmitter
// calls it per emitted mapping to write spec-level records. Cost is
// O(n * (n + 2*delta)) per mapping, paid only for the mappings actually
// emitted.

#include <optional>
#include <string>
#include <vector>

#include "core/mapping.hpp"
#include "genomics/sequence.hpp"

namespace repute::core {

struct AnnotatedMapping {
    ReadMapping mapping;            ///< as reported by the kernel
    std::uint32_t precise_position; ///< exact 0-based alignment start
    std::string cigar;              ///< M/I/D operations
};

/// Re-aligns one mapping. Returns std::nullopt when the re-alignment
/// cannot reproduce a distance <= delta (should not happen for kernel
/// output; guards against stale results).
std::optional<AnnotatedMapping> annotate_mapping(
    const genomics::Reference& reference, const genomics::Read& read,
    const ReadMapping& mapping, std::uint32_t delta);

} // namespace repute::core
