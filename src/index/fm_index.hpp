#pragma once
// FM-Index (Ferragina & Manzini 2000) over 2-bit DNA with a sampled
// suffix array for locate queries — the preprocessing data structure of
// the paper (§II-A), shared by REPUTE, CORAL and the FM-based baselines.
//
// Layout choices match the paper's memory-footprint concerns, tuned for
// the occ() hot path (the filtration stage is memory-bound on it):
//   * the BWT and its occ rank directory are fused into interleaved
//     cache-line-aligned blocks: each block carries the absolute counts
//     at the block start, the packed 2-bit BWT words of the block, and
//     (for checkpoint spacings <= 256) 8-bit per-word prefix counts —
//     at the default spacing of 128 one occ() is a single 64-byte line
//     (counts + sub-count + one masked popcount) instead of two streams
//     over separate checkpoint and BWT arrays,
//   * the suffix array is sampled every `sa_sample` text positions
//     (paper §IV cites Bowtie2-style interval sampling as the fix for
//     its full-SA footprint — we implement that fix),
//   * an optional q-gram jump table (see qgram_table.hpp) precomputes
//     the FM range of every pattern of length <= q so backward scans
//     start q symbols deep.

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "genomics/sequence.hpp"
#include "util/bitvector.hpp"
#include "util/packed_dna.hpp"

namespace repute::index {

class QGramTable;

class FmIndex {
public:
    /// Half-open row interval [lo, hi) in the conceptual sorted-suffix
    /// matrix. Empty when lo >= hi.
    struct Range {
        std::uint32_t lo = 0;
        std::uint32_t hi = 0;

        std::uint32_t count() const noexcept { return hi - lo; }
        bool empty() const noexcept { return lo >= hi; }
        bool operator==(const Range&) const noexcept = default;
    };

    /// Default q of the q-gram jump table built alongside the index
    /// (4^8 + ... + 4 ranges, ~700 KB). Pass 0 to skip the table.
    static constexpr std::uint32_t kDefaultQgramLength = 8;

    /// Builds the index for `reference`. `sa_sample` = 1 keeps the full
    /// suffix array (fastest locate, paper's original configuration);
    /// larger values trade locate speed for memory. `checkpoint_every`
    /// (a power of two, >= 32) spaces the occ checkpoints: wider spacing
    /// shrinks the rank directory but lengthens each occ scan — the
    /// second index-footprint knob the paper's §IV discussion points at.
    /// `qgram_length` sizes the jump table (0 disables it).
    explicit FmIndex(const genomics::Reference& reference,
                     std::uint32_t sa_sample = 4,
                     std::uint32_t checkpoint_every = 128,
                     std::uint32_t qgram_length = kDefaultQgramLength);

    /// Everything from_view() needs besides the four arrays — the
    /// header fields of the .rix container.
    struct ViewGeometry {
        std::uint64_t n = 0;               ///< text length (no sentinel)
        std::array<std::uint32_t, 5> c{};  ///< C array, c[4] = n + 1
        std::uint32_t sentinel_row = 0;
        std::uint32_t sa_sample = 1;
        std::uint32_t checkpoint_every = 128;
        /// Effective q of `qgram_ranges` (0 = no jump table).
        std::uint32_t qgram_length = 0;
    };

    /// Zero-copy construction over externally owned arrays — the mmap
    /// load path of the .rix container (index/rix.hpp). The spans must
    /// outlive the index:
    ///   * `rank_words`  — the interleaved rank-block image, exactly
    ///     rank_words_for(n, checkpoint_every) u64 words, 64-byte
    ///     aligned (page alignment in the container guarantees this),
    ///   * `sa_mark_words` — the sampled-row bit words (rank
    ///     directories are rebuilt, they are ~3% of the bits),
    ///   * `sa_samples` — SA values at marked rows, in row order,
    ///   * `qgram_ranges` — the jump-table range array (empty when
    ///     geometry.qgram_length is 0).
    /// Throws std::runtime_error on any size/alignment mismatch; the
    /// caller (the .rix loader) has already checksummed the bytes.
    static FmIndex from_view(const ViewGeometry& geometry,
                             std::span<const std::uint64_t> rank_words,
                             std::span<const std::uint64_t> sa_mark_words,
                             std::span<const std::uint32_t> sa_samples,
                             std::span<const Range> qgram_ranges);

    /// u64 words the interleaved rank-block image occupies for a text
    /// of length `n` at the given checkpoint spacing — the .rix
    /// writer/loader sizing contract.
    static std::size_t rank_words_for(std::uint64_t n,
                                      std::uint32_t checkpoint_every);

    FmIndex(FmIndex&&) noexcept;
    FmIndex& operator=(FmIndex&&) noexcept;
    ~FmIndex();

    /// Text length (without sentinel).
    std::size_t size() const noexcept { return n_; }

    /// Range covering every suffix (n+1 rows including the sentinel).
    Range whole_range() const noexcept {
        return {0, static_cast<std::uint32_t>(n_ + 1)};
    }

    /// Backward-search step: narrows `r` for pattern P to the range for
    /// pattern cP. O(1).
    Range extend(Range r, std::uint8_t code) const noexcept;

    /// Full backward search of `pattern` (2-bit codes, searched from its
    /// last symbol to its first). O(|pattern|). Performs every extend
    /// step — callers that may start q symbols deep (the filtration
    /// scanners) go through qgrams() so the saved work is accounted.
    Range search(std::span<const std::uint8_t> pattern) const noexcept;

    /// Text position of the suffix at `row`. O(sa_sample) LF steps.
    std::uint32_t locate(std::uint32_t row) const noexcept;

    /// Locates up to `max_hits` rows of `r` into `out` (appended).
    void locate_range(Range r, std::size_t max_hits,
                      std::vector<std::uint32_t>& out) const;

    /// Number of occurrences of `code` in BWT[0, row).
    std::uint32_t occ(std::uint8_t code, std::uint32_t row) const noexcept;

    /// Last-to-first mapping.
    std::uint32_t lf(std::uint32_t row) const noexcept;

    /// Row whose BWT symbol is the sentinel (needed by bidirectional
    /// range synchronization).
    std::uint32_t sentinel_row() const noexcept { return sentinel_row_; }

    std::uint32_t sa_sample() const noexcept { return sa_sample_; }
    std::uint32_t checkpoint_every() const noexcept {
        return checkpoint_every_;
    }

    /// The q-gram jump table, or nullptr when built with
    /// qgram_length = 0.
    const QGramTable* qgrams() const noexcept { return qgrams_.get(); }
    std::uint32_t qgram_length() const noexcept { return qgram_length_; }

    /// Total bytes reachable through the index (footprint accounting
    /// for the device memory ceilings): rank blocks incl. alignment
    /// padding, C array, SA samples with their rank directories, and
    /// the q-gram table — mapped or not. Always equals
    /// mapped_bytes() + resident_bytes().
    std::size_t memory_bytes() const noexcept;

    /// Bytes borrowed from an external mapping (the .rix file) — zero
    /// for a built or stream-loaded index. These pages are shared,
    /// demand-paged and evictable; they are NOT resident heap.
    std::size_t mapped_bytes() const noexcept;

    /// Bytes of process-private heap actually owned: everything for a
    /// built index; just the rebuilt rank directories and offsets for a
    /// mapped view.
    std::size_t resident_bytes() const noexcept {
        return memory_bytes() - mapped_bytes();
    }

    /// True when the big arrays are views over an external mapping.
    bool is_view() const noexcept { return view_; }

    /// The serialized-array accessors the .rix writer uses.
    std::span<const std::uint64_t> rank_words() const noexcept {
        return {reinterpret_cast<const std::uint64_t*>(lines_),
                line_count_ * (sizeof(Line) / sizeof(std::uint64_t))};
    }
    const util::BitVector& sampled_rows() const noexcept {
        return sampled_rows_;
    }
    std::span<const std::uint32_t> sa_samples() const noexcept {
        return samples_;
    }
    const std::array<std::uint32_t, 5>& c_array() const noexcept {
        return c_;
    }

    /// BWT words examined by occ() on the calling thread since thread
    /// start — sampled around kernel executions to feed the
    /// `index.occ_words_scanned` metric (one unconditional thread-local
    /// add per occ; no atomics on the hot path).
    static std::uint64_t thread_occ_words() noexcept;

private:
    FmIndex() = default; // for from_view()

    /// 64-byte-aligned backing storage for the interleaved blocks.
    struct alignas(64) Line {
        std::uint64_t w[8] = {};
    };

    std::size_t n_ = 0;                ///< text length
    std::array<std::uint32_t, 5> c_{}; ///< C[c], c_[4] = n+1
    std::uint32_t sentinel_row_ = 0;   ///< row whose BWT char is $

    // Interleaved rank blocks. Block b (rows [b*cpe, (b+1)*cpe)) spans
    // stride_words_ u64 words:
    //   words [0, 2):                     occ counts at the block start
    //                                     (4 x u32, code-major),
    //   words [2, 2+W):                   packed BWT, W = cpe/32,
    //   words [2+W, ...)  (cpe <= 256):   u8 prefix counts per (word,
    //                                     code): symbols equal to `code`
    //                                     in words [0, w) of the block.
    // The stride is padded to a multiple of 8 words so blocks start on
    // cache-line boundaries (exactly one line at the default cpe = 128).
    // `lines_`/`line_count_` describe the active image: the owned
    // vector for a built index, the mmap'd section for a .rix view.
    std::vector<Line> owned_lines_;
    const Line* lines_ = nullptr;
    std::size_t line_count_ = 0;
    bool view_ = false;
    std::uint32_t words_per_block_ = 0;
    std::uint32_t stride_words_ = 0;
    std::uint32_t sub_base_ = 0; ///< word offset of the u8 prefix counts
    std::uint32_t log2_cpe_ = 0;
    bool has_sub_counts_ = false;

    std::uint32_t sa_sample_ = 4;
    std::uint32_t checkpoint_every_ = 128;
    std::uint32_t qgram_length_ = kDefaultQgramLength;
    util::BitVector sampled_rows_; ///< rank-enabled marks
    std::vector<std::uint32_t> owned_samples_;
    std::span<const std::uint32_t> samples_; ///< SA values at marked rows
    std::unique_ptr<QGramTable> qgrams_;

    std::uint32_t rows() const noexcept {
        return static_cast<std::uint32_t>(n_ + 1);
    }
    const std::uint64_t* block_words(std::uint32_t b) const noexcept {
        return reinterpret_cast<const std::uint64_t*>(lines_) +
               static_cast<std::size_t>(b) * stride_words_;
    }
    std::uint64_t* mutable_block_words(std::uint32_t b) noexcept {
        return reinterpret_cast<std::uint64_t*>(owned_lines_.data()) +
               static_cast<std::size_t>(b) * stride_words_;
    }
    std::uint8_t bwt_code(std::uint32_t i) const noexcept {
        const std::uint64_t* blk = block_words(i >> log2_cpe_);
        const std::uint32_t r = i & (checkpoint_every_ - 1);
        return static_cast<std::uint8_t>(
            (blk[2 + (r >> 5)] >> ((r & 31u) * 2)) & 3u);
    }

    void validate_geometry() const;
    /// Computes words_per_block_/stride_words_/sub_base_/... from
    /// checkpoint_every_ — shared by the build and view paths.
    void derive_geometry();
    void build_blocks(std::span<const std::uint64_t> flat_bwt);
    void build_qgrams();
};

} // namespace repute::index
