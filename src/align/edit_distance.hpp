#pragma once
// Edit-distance references and the CIGAR aligner.
//
// levenshtein / semiglobal_distance / banded_semiglobal_distance are
// plain dynamic-programming references the fast kernels are tested and
// benchmarked against. semiglobal_align is the traceback used to emit
// CIGAR strings (the paper lists CIGAR output as future work; we ship it
// as the extension feature). It is bit-parallel: a forward pass runs
// Myers' column recurrence (Myers 1999, the verification kernel's) and
// keeps every column's VP/VN words, 2*ceil(m/64) u64 per text column,
// and the traceback reads each cell back exactly as
//   D[i][j] = popcount(VP_j & low_i) - popcount(VN_j & low_i)
// (low_i = the pattern's first i bits). The values are the exact
// full-DP values, so the result, tie-breaks included, is the one a
// full (m+1) x (t+1) table would give; that table survives only as the
// test oracle (tests/full_dp_oracle.hpp). Semi-global here means: the
// whole pattern must align, the text prefix and suffix are free — the
// standard verification setting where the text is a candidate window
// around a seed hit.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace repute::align {

/// Plain Levenshtein distance (global on both strings). O(|a||b|) time,
/// O(min) space.
std::uint32_t levenshtein(std::span<const std::uint8_t> a,
                          std::span<const std::uint8_t> b);

/// Minimum edit distance of `pattern` against any substring of `text`
/// (free text start and end). O(|p||t|) time, O(|t|) space.
std::uint32_t semiglobal_distance(std::span<const std::uint8_t> pattern,
                                  std::span<const std::uint8_t> text);

/// Banded variant: explores only diagonals within +-band of the main
/// diagonal family. Returns the exact distance when it is <= band,
/// otherwise band+1 (a lower-bound cutoff). O(|p| * band) time.
std::uint32_t banded_semiglobal_distance(
    std::span<const std::uint8_t> pattern,
    std::span<const std::uint8_t> text, std::uint32_t band);

struct SemiGlobalAlignment {
    std::uint32_t distance = 0;
    std::uint32_t text_start = 0; ///< aligned window [text_start, text_end)
    std::uint32_t text_end = 0;
    std::string cigar;            ///< M/I/D ops, pattern-relative
};

/// Semi-global alignment with traceback, any pattern length. Among the
/// best-distance alignments it picks the leftmost text end, then traces
/// back preferring the diagonal, then I (pattern base only), then D
/// (text base only). Keeps its scratch (Peq, the per-column VP/VN
/// words, the op trail) across calls, so a warmed aligner allocates
/// nothing. O(t * ceil(m/64)) forward, O(m + t) traceback steps.
class SemiGlobalAligner {
public:
    /// Writes the alignment into `out` (its cigar's capacity is reused)
    /// and returns true, or returns false when the best distance exceeds
    /// `max_distance`.
    bool align(std::span<const std::uint8_t> pattern,
               std::span<const std::uint8_t> text,
               std::uint32_t max_distance, SemiGlobalAlignment& out);

private:
    std::vector<std::uint64_t> peq_;     ///< Peq[c * words + w]
    std::vector<std::uint64_t> columns_; ///< column j: VP words, VN words
    std::string ops_;                    ///< traceback trail, end first
};

/// One-shot semi-global alignment through a thread-local
/// SemiGlobalAligner. Returns std::nullopt when the best distance
/// exceeds `max_distance`.
std::optional<SemiGlobalAlignment> semiglobal_align(
    std::span<const std::uint8_t> pattern,
    std::span<const std::uint8_t> text, std::uint32_t max_distance);

} // namespace repute::align
