#pragma once
// Succinct bit vector with O(1) rank support.
//
// Used by the FM-Index occurrence structure and by the filtration kernels
// for compact per-read masks. Rank is implemented with two-level
// directories (512-bit superblocks / 64-bit words), i.e. the classic
// "rank9-lite" layout: ~25% space overhead, two cache lines per query.
//
// Storage is either owned (the normal mutable build path) or a
// read-only *view* over externally owned words — the zero-copy mode the
// mmap'd .rix index container uses (view_of()). A view borrows the bit
// words but always owns its rank directories (they are ~3% of the bits
// and rebuilt in one linear pass at load). Mutation (set()) is only
// valid on owning vectors.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace repute::util {

class BitVector {
public:
    BitVector() = default;
    /// Creates an owning vector of `n` bits, all initialized to `value`.
    explicit BitVector(std::size_t n, bool value = false);

    /// Read-only view over externally owned words (little-endian bit
    /// order, 64 bits per word, zero-padded tail). `words` must hold
    /// exactly ceil(n/64) entries and outlive the view; the rank
    /// directories are built (owned) immediately. Throws
    /// std::runtime_error on a word-count mismatch.
    static BitVector view_of(std::span<const std::uint64_t> words,
                             std::size_t n);

    BitVector(const BitVector& other);
    BitVector& operator=(const BitVector& other);
    BitVector(BitVector&&) noexcept = default;
    BitVector& operator=(BitVector&&) noexcept = default;
    ~BitVector() = default;

    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }

    /// True when the bit words are borrowed (view_of), not owned.
    bool is_view() const noexcept {
        return words_.data() != nullptr &&
               words_.data() != owned_words_.data();
    }

    /// The backing words (borrowed or owned) — what the .rix writer
    /// serializes.
    std::span<const std::uint64_t> words() const noexcept { return words_; }

    bool get(std::size_t i) const noexcept {
        return (words_[i >> 6] >> (i & 63)) & 1ULL;
    }
    bool operator[](std::size_t i) const noexcept { return get(i); }

    /// Setting bits invalidates rank structures until build_rank() is
    /// re-run; rank1() on a stale index is undefined. Only valid on
    /// owning vectors (never on a view).
    void set(std::size_t i, bool value = true) noexcept {
        const std::uint64_t mask = 1ULL << (i & 63);
        if (value)
            owned_words_[i >> 6] |= mask;
        else
            owned_words_[i >> 6] &= ~mask;
    }

    /// Number of set bits in [0, i). Requires a prior build_rank().
    std::size_t rank1(std::size_t i) const noexcept;
    /// Number of clear bits in [0, i). Requires a prior build_rank().
    std::size_t rank0(std::size_t i) const noexcept { return i - rank1(i); }

    /// Position of the (k+1)-th set bit (0-based k); size() if none.
    /// Binary search over superblocks + word scan: O(log n).
    std::size_t select1(std::size_t k) const noexcept;

    /// Total number of set bits. Requires a prior build_rank().
    std::size_t count_ones() const noexcept { return total_ones_; }

    /// Total bytes reachable: bit words (owned or mapped) plus both
    /// rank directories.
    std::size_t memory_bytes() const noexcept {
        return words_.size() * sizeof(std::uint64_t) +
               superblock_.size() * sizeof(std::uint64_t) +
               block_.size() * sizeof(std::uint16_t);
    }

    /// Heap bytes actually owned — excludes borrowed (mmap'd) words, so
    /// a view reports only its rank directories.
    std::size_t heap_bytes() const noexcept {
        return owned_words_.size() * sizeof(std::uint64_t) +
               superblock_.size() * sizeof(std::uint64_t) +
               block_.size() * sizeof(std::uint16_t);
    }

    /// Builds the rank directories; call after the last mutation.
    void build_rank();

private:
    std::size_t size_ = 0;
    std::size_t total_ones_ = 0;
    std::vector<std::uint64_t> owned_words_;
    std::span<const std::uint64_t> words_; ///< owned_words_ or borrowed
    // superblock_[j] = popcount of words [0, 8j)
    std::vector<std::uint64_t> superblock_;
    // block_[i] = popcount within the superblock up to word i (u16 fits 512)
    std::vector<std::uint16_t> block_;
};

} // namespace repute::util
