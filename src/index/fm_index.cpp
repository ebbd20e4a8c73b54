#include "index/fm_index.hpp"

#include <bit>
#include <stdexcept>

#include "index/qgram_table.hpp"
#include "index/suffix_array.hpp"

namespace repute::index {

namespace {

constexpr std::uint64_t kLowBits = 0x5555555555555555ULL;

/// 2-bit replication patterns for codes 0..3.
constexpr std::uint64_t kReplicate[4] = {
    0x0000000000000000ULL, kLowBits, ~kLowBits, ~0ULL};

/// Count of symbols equal to `code` among the first `m` (<=32) symbols
/// packed in `word`.
inline std::uint32_t count_eq(std::uint64_t word, std::uint8_t code,
                              std::uint32_t m) noexcept {
    const std::uint64_t x = word ^ kReplicate[code];
    const std::uint64_t diff = (x | (x >> 1)) & kLowBits;
    const std::uint64_t region =
        (m >= 32) ? ~0ULL : ((1ULL << (2 * m)) - 1);
    return static_cast<std::uint32_t>(
        std::popcount(~diff & kLowBits & region));
}

thread_local std::uint64_t tls_occ_words = 0;

} // namespace

FmIndex::FmIndex(FmIndex&&) noexcept = default;
FmIndex& FmIndex::operator=(FmIndex&&) noexcept = default;
FmIndex::~FmIndex() = default;

void FmIndex::validate_geometry() const {
    if (checkpoint_every_ < 32 ||
        (checkpoint_every_ & (checkpoint_every_ - 1)) != 0) {
        throw std::invalid_argument(
            "FmIndex: checkpoint_every must be a power of two >= 32");
    }
    if (qgram_length_ > QGramTable::kMaxQ) {
        throw std::invalid_argument(
            "FmIndex: qgram_length exceeds QGramTable::kMaxQ");
    }
}

FmIndex::FmIndex(const genomics::Reference& reference,
                 std::uint32_t sa_sample, std::uint32_t checkpoint_every,
                 std::uint32_t qgram_length)
    : n_(reference.size()), sa_sample_(sa_sample == 0 ? 1 : sa_sample),
      checkpoint_every_(checkpoint_every), qgram_length_(qgram_length) {
    validate_geometry();
    const auto& text = reference.sequence();
    const auto sa = build_suffix_array(text); // n+1 rows, SA[0] == n
    const auto n_rows = static_cast<std::uint32_t>(sa.size());

    // C array: sentinel sorts before everything and occupies one row.
    std::array<std::uint32_t, 4> counts{};
    for (std::size_t i = 0; i < n_; ++i) ++counts[text.code_at(i)];
    c_[0] = 1;
    for (int c = 1; c <= 4; ++c) {
        c_[static_cast<std::size_t>(c)] =
            c_[static_cast<std::size_t>(c - 1)] +
            counts[static_cast<std::size_t>(c - 1)];
    }

    // BWT[i] = text[SA[i] - 1]; the row with SA[i] == 0 holds the
    // sentinel, which we record separately (its packed slot stores 0).
    std::vector<std::uint64_t> flat((n_rows + 31) / 32, 0);
    for (std::uint32_t i = 0; i < n_rows; ++i) {
        std::uint8_t code = 0;
        if (sa[i] == 0) {
            sentinel_row_ = i;
        } else {
            code = text.code_at(static_cast<std::size_t>(sa[i]) - 1);
        }
        flat[i >> 5] |= static_cast<std::uint64_t>(code) << ((i & 31) * 2);
    }
    build_blocks(flat);

    // Suffix-array samples: mark rows whose SA value is a multiple of
    // sa_sample (SA value 0 included, so locate always terminates).
    sampled_rows_ = util::BitVector(n_rows);
    for (std::uint32_t i = 0; i < n_rows; ++i) {
        if (static_cast<std::uint32_t>(sa[i]) % sa_sample_ == 0) {
            sampled_rows_.set(i);
        }
    }
    sampled_rows_.build_rank();
    owned_samples_.reserve(sampled_rows_.count_ones());
    for (std::uint32_t i = 0; i < n_rows; ++i) {
        if (sampled_rows_.get(i)) {
            owned_samples_.push_back(static_cast<std::uint32_t>(sa[i]));
        }
    }
    samples_ = owned_samples_;

    build_qgrams();
}

void FmIndex::derive_geometry() {
    words_per_block_ = checkpoint_every_ / 32;
    log2_cpe_ = static_cast<std::uint32_t>(
        std::countr_zero(checkpoint_every_));
    // u8 prefix counts cap at cpe - 32 = 224 symbols, so they need
    // cpe <= 256; wider spacings fall back to the word-scan occ path.
    has_sub_counts_ = checkpoint_every_ <= 256;
    sub_base_ = 2 + words_per_block_;
    const std::uint32_t sub_words =
        has_sub_counts_ ? (words_per_block_ * 4 + 7) / 8 : 0;
    stride_words_ = (sub_base_ + sub_words + 7u) & ~7u;
}

std::size_t FmIndex::rank_words_for(std::uint64_t n,
                                    std::uint32_t checkpoint_every) {
    FmIndex probe;
    probe.n_ = n;
    probe.checkpoint_every_ = checkpoint_every;
    probe.validate_geometry();
    probe.derive_geometry();
    const std::uint32_t n_blocks =
        probe.rows() / checkpoint_every + 1;
    return static_cast<std::size_t>(n_blocks) * probe.stride_words_;
}

FmIndex FmIndex::from_view(const ViewGeometry& geometry,
                           std::span<const std::uint64_t> rank_words,
                           std::span<const std::uint64_t> sa_mark_words,
                           std::span<const std::uint32_t> sa_samples,
                           std::span<const Range> qgram_ranges) {
    FmIndex fm;
    fm.n_ = geometry.n;
    fm.c_ = geometry.c;
    fm.sentinel_row_ = geometry.sentinel_row;
    fm.sa_sample_ = geometry.sa_sample == 0 ? 1 : geometry.sa_sample;
    fm.checkpoint_every_ = geometry.checkpoint_every;
    fm.qgram_length_ = geometry.qgram_length;
    fm.validate_geometry();
    fm.derive_geometry();

    if (rank_words.size() !=
        rank_words_for(fm.n_, fm.checkpoint_every_)) {
        throw std::runtime_error(
            "FmIndex: view rank-block word count mismatch");
    }
    if (reinterpret_cast<std::uintptr_t>(rank_words.data()) %
            alignof(Line) !=
        0) {
        throw std::runtime_error(
            "FmIndex: view rank blocks not 64-byte aligned");
    }
    fm.lines_ = reinterpret_cast<const Line*>(rank_words.data());
    fm.line_count_ = rank_words.size() / (sizeof(Line) / sizeof(std::uint64_t));

    fm.sampled_rows_ =
        util::BitVector::view_of(sa_mark_words, fm.rows());
    if (sa_samples.size() != fm.sampled_rows_.count_ones()) {
        throw std::runtime_error(
            "FmIndex: view SA sample count mismatch");
    }
    fm.samples_ = sa_samples;

    if (fm.qgram_length_ > 0) {
        fm.qgrams_ = std::make_unique<QGramTable>(
            QGramTable::view_of(fm.qgram_length_, qgram_ranges));
    } else if (!qgram_ranges.empty()) {
        throw std::runtime_error(
            "FmIndex: view has q-gram ranges but qgram_length is 0");
    }
    fm.view_ = true;
    return fm;
}

void FmIndex::build_blocks(std::span<const std::uint64_t> flat_bwt) {
    derive_geometry();

    // One trailing block so occ(rows()) lands on a stored checkpoint.
    const std::uint32_t n_blocks = rows() / checkpoint_every_ + 1;
    owned_lines_.assign(
        static_cast<std::size_t>(n_blocks) * (stride_words_ / 8), Line{});
    lines_ = owned_lines_.data();
    line_count_ = owned_lines_.size();

    // Counts are over the *raw* packed BWT — the sentinel slot counts as
    // its stored code 0 here and is compensated once in occ().
    std::array<std::uint32_t, 4> running{};
    for (std::uint32_t b = 0; b < n_blocks; ++b) {
        std::uint64_t* blk = mutable_block_words(b);
        blk[0] = running[0] |
                 (static_cast<std::uint64_t>(running[1]) << 32);
        blk[1] = running[2] |
                 (static_cast<std::uint64_t>(running[3]) << 32);
        std::array<std::uint32_t, 4> in_block{};
        for (std::uint32_t w = 0; w < words_per_block_; ++w) {
            if (has_sub_counts_) {
                for (std::uint32_t c = 0; c < 4; ++c) {
                    const std::uint32_t byte = w * 4 + c;
                    blk[sub_base_ + (byte >> 3)] |=
                        static_cast<std::uint64_t>(in_block[c] & 0xFFu)
                        << ((byte & 7u) * 8);
                }
            }
            const std::size_t g =
                static_cast<std::size_t>(b) * words_per_block_ + w;
            const std::uint64_t word = g < flat_bwt.size() ? flat_bwt[g] : 0;
            blk[2 + w] = word;
            for (std::uint32_t c = 0; c < 4; ++c) {
                const std::uint32_t k =
                    count_eq(word, static_cast<std::uint8_t>(c), 32);
                in_block[c] += k;
                running[c] += k;
            }
        }
    }
}

void FmIndex::build_qgrams() {
    if (qgram_length_ == 0) return;
    // Effective q is capped so the table never outweighs the text it
    // indexes (~n bytes, with a 4 KiB floor so tiny references still
    // get a few levels): device images ship reference + index + table,
    // and the table's marginal value vanishes past distinct-substring
    // saturation anyway.
    const std::size_t budget = std::max<std::size_t>(n_, 4096);
    std::uint32_t q = qgram_length_;
    // Clamp q to the text length too: a tail shard from a contig-granular
    // split can be shorter than q, and a jump table of patterns longer
    // than the text is all-empty — pure footprint, zero jumps.
    while (q > 0 && (QGramTable::table_bytes(q) > budget || q > n_)) --q;
    if (q > 0) qgrams_ = std::make_unique<QGramTable>(*this, q);
}

std::uint32_t FmIndex::occ(std::uint8_t code,
                           std::uint32_t row) const noexcept {
    const std::uint64_t* blk = block_words(row >> log2_cpe_);
    const std::uint32_t r = row & (checkpoint_every_ - 1);
    const std::uint32_t w = r >> 5;
    std::uint32_t count = static_cast<std::uint32_t>(
        blk[code >> 1] >> ((code & 1u) * 32));
    if (has_sub_counts_) {
        const std::uint32_t byte = w * 4 + code;
        count += static_cast<std::uint32_t>(
                     blk[sub_base_ + (byte >> 3)] >> ((byte & 7u) * 8)) &
                 0xFFu;
        count += count_eq(blk[2 + w], code, r & 31u);
        tls_occ_words += 1;
    } else {
        for (std::uint32_t i = 0; i < w; ++i) {
            count += count_eq(blk[2 + i], code, 32);
        }
        count += count_eq(blk[2 + w], code, r & 31u);
        tls_occ_words += w + 1;
    }
    // The sentinel's packed slot stores code 0; un-count it.
    if (code == 0 && sentinel_row_ < row) --count;
    return count;
}

std::uint64_t FmIndex::thread_occ_words() noexcept { return tls_occ_words; }

std::uint32_t FmIndex::lf(std::uint32_t row) const noexcept {
    if (row == sentinel_row_) return 0;
    const std::uint8_t code = bwt_code(row);
    return c_[code] + occ(code, row);
}

FmIndex::Range FmIndex::extend(Range r, std::uint8_t code) const noexcept {
    return {c_[code] + occ(code, r.lo), c_[code] + occ(code, r.hi)};
}

FmIndex::Range FmIndex::search(
    std::span<const std::uint8_t> pattern) const noexcept {
    Range r = whole_range();
    for (std::size_t i = pattern.size(); i-- > 0 && !r.empty();) {
        r = extend(r, pattern[i]);
    }
    return r;
}

std::uint32_t FmIndex::locate(std::uint32_t row) const noexcept {
    std::uint32_t steps = 0;
    while (!sampled_rows_.get(row)) {
        row = lf(row);
        ++steps;
    }
    return samples_[sampled_rows_.rank1(row)] + steps;
}

void FmIndex::locate_range(Range r, std::size_t max_hits,
                           std::vector<std::uint32_t>& out) const {
    const std::size_t limit =
        std::min<std::size_t>(max_hits, r.count());
    for (std::size_t k = 0; k < limit; ++k) {
        out.push_back(locate(r.lo + static_cast<std::uint32_t>(k)));
    }
}

std::size_t FmIndex::memory_bytes() const noexcept {
    return line_count_ * sizeof(Line) + sizeof(c_) +
           samples_.size() * sizeof(std::uint32_t) +
           sampled_rows_.memory_bytes() +
           (qgrams_ ? qgrams_->memory_bytes() : 0);
}

std::size_t FmIndex::mapped_bytes() const noexcept {
    if (!view_) return 0;
    // Everything borrowed from the .rix mapping: the rank-block image,
    // the sampled-row bit words, the SA samples, and the q-gram range
    // array. The rebuilt rank directories and level offsets stay heap.
    return line_count_ * sizeof(Line) +
           samples_.size() * sizeof(std::uint32_t) +
           (sampled_rows_.memory_bytes() - sampled_rows_.heap_bytes()) +
           (qgrams_ ? qgrams_->memory_bytes() - qgrams_->heap_bytes()
                    : 0);
}

} // namespace repute::index
