#pragma once
// Myers bit-vector approximate matcher (Myers 1999), multi-word variant.
//
// This is the paper's verification kernel (§II-A): the read is the
// pattern, a candidate window of the reference is the text, and we need
// the minimum semi-global edit distance (free text prefix/suffix). One
// text character costs O(ceil(m/64)) word operations — 2 words for
// n = 100 reads, 3 for n = 150.
//
// The implementation treats the column state (VP/VN) as an m-bit big
// integer: additions carry across words, shifts propagate, and the score
// is tracked at bit m-1. This avoids the padding subtleties of
// block-chained formulations while keeping the inner loop branch-free
// per word.
//
// best_in_bounded() is the δ-banded early-exit variant used by the
// verification funnel: it only answers "distance ≤ δ, and if so which
// distance/end", which lets it skip words whose rows provably cannot
// lie on any ≤ δ alignment path and abandon the window once the bottom
// row cannot come back under δ in the remaining columns (the bottom row
// is 1-Lipschitz along the text). See DESIGN.md "Verification funnel"
// for the exactness argument.

#include <cstdint>
#include <span>
#include <vector>

namespace repute::align {

class MyersMatcher {
public:
    /// Patterns up to kMaxPatternLength (512) bases, codes 0..3.
    /// Throws std::invalid_argument on empty or oversized patterns.
    explicit MyersMatcher(std::span<const std::uint8_t> pattern);

    /// Empty matcher for deferred set_pattern(); best_in() is invalid
    /// until a pattern is set.
    MyersMatcher() = default;

    /// Re-targets the matcher to a new pattern, reusing the Peq storage
    /// (no allocation once warmed to the largest pattern seen).
    void set_pattern(std::span<const std::uint8_t> pattern);

    static constexpr std::size_t kMaxPatternLength = 512;

    /// Builds the Peq bit table set_pattern() uses — bit i of word
    /// peq[c * ceil(m/64) + i/64] is set where pattern[i] == c — for
    /// any pattern length, reusing `peq`'s capacity. The CIGAR aligner
    /// (align::SemiGlobalAligner) shares it; the 512-base cap belongs
    /// to this class's fixed-size scan state, not to the table.
    static void build_peq(std::span<const std::uint8_t> pattern,
                          std::vector<std::uint64_t>& peq);

    struct Hit {
        std::uint32_t distance = 0;
        std::uint32_t text_end = 0; ///< one past the last aligned text char
    };

    /// Minimum edit distance of the pattern over all end positions in
    /// `text`, with the earliest end position achieving it.
    Hit best_in(std::span<const std::uint8_t> text) const noexcept;

    /// Result of the banded scan. `distance` and `text_end` equal
    /// best_in()'s whenever the true distance is ≤ the delta bound;
    /// otherwise distance is some value > delta (the window would be
    /// rejected either way, so the exact overshoot is not computed).
    struct BoundedHit {
        std::uint32_t distance = 0;
        std::uint32_t text_end = 0;
        bool early_exit = false; ///< scan abandoned before the last column
    };

    /// δ-banded early-exit scan: exact for every outcome the kernel
    /// acts on (accept/reject at threshold `delta`, and the reported
    /// distance + earliest end when accepted), while touching only the
    /// Peq words whose rows can still lie on a ≤ delta alignment path.
    BoundedHit best_in_bounded(std::span<const std::uint8_t> text,
                               std::uint32_t delta) const noexcept;

    std::size_t pattern_length() const noexcept { return m_; }
    std::size_t word_count() const noexcept { return words_; }

    /// Approximate work units (word-ops) to scan a text of length t —
    /// used by the device cost model for a full (unbanded) scan.
    std::size_t scan_cost(std::size_t text_length) const noexcept {
        return text_length * words_;
    }

    /// Word-columns actually executed by the most recent best_in() /
    /// best_in_bounded() call — the honest input to the device cost
    /// model (a banded early-exit scan does far fewer than
    /// scan_cost()). Per-matcher state: matchers are per-work-item.
    std::uint64_t last_word_ops() const noexcept { return last_word_ops_; }

private:
    std::size_t m_ = 0;
    std::size_t words_ = 0;
    std::uint64_t top_mask_ = 0;   ///< valid-bit mask for the last word
    std::uint64_t score_bit_ = 0;  ///< bit (m-1) % 64 within the last word
    std::vector<std::uint64_t> peq_; ///< Peq[c * words_ + w]
    mutable std::uint64_t last_word_ops_ = 0;
};

} // namespace repute::align
