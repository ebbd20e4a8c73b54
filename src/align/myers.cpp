#include "align/myers.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace repute::align {

namespace {
constexpr std::size_t kMaxWords =
    MyersMatcher::kMaxPatternLength / 64; // 8
}

MyersMatcher::MyersMatcher(std::span<const std::uint8_t> pattern) {
    set_pattern(pattern);
}

void MyersMatcher::set_pattern(std::span<const std::uint8_t> pattern) {
    m_ = pattern.size();
    words_ = (pattern.size() + 63) / 64;
    if (m_ == 0 || m_ > kMaxPatternLength) {
        throw std::invalid_argument(
            "MyersMatcher: pattern length must be in [1, 512]");
    }
    const std::size_t top_bits = (m_ - 1) % 64 + 1;
    top_mask_ = top_bits == 64 ? ~0ULL : ((1ULL << top_bits) - 1);
    score_bit_ = 1ULL << ((m_ - 1) % 64);

    build_peq(pattern, peq_);
}

void MyersMatcher::build_peq(std::span<const std::uint8_t> pattern,
                             std::vector<std::uint64_t>& peq) {
    const std::size_t words = (pattern.size() + 63) / 64;
    peq.assign(4 * words, 0);
    for (std::size_t i = 0; i < pattern.size(); ++i) {
        peq[pattern[i] * words + i / 64] |= 1ULL << (i % 64);
    }
}

MyersMatcher::Hit MyersMatcher::best_in(
    std::span<const std::uint8_t> text) const noexcept {
    last_word_ops_ = text.size() * words_;
    // Column bit-state as m-bit big integers, low word first.
    std::array<std::uint64_t, kMaxWords> vp{}, vn{};
    for (std::size_t w = 0; w < words_; ++w) vp[w] = ~0ULL;
    vp[words_ - 1] = top_mask_;

    auto score = static_cast<std::uint32_t>(m_);
    Hit best{score, 0};

    for (std::size_t j = 0; j < text.size(); ++j) {
        const std::uint64_t* eq = &peq_[text[j] * words_];

        // Xh = (((Eq & VP) + VP) ^ VP) | Eq, with carry across words.
        std::array<std::uint64_t, kMaxWords> xh;
        std::uint64_t carry = 0;
        for (std::size_t w = 0; w < words_; ++w) {
            const std::uint64_t a = eq[w] & vp[w];
            const std::uint64_t sum_lo = a + vp[w];
            std::uint64_t carry_out = sum_lo < a ? 1ULL : 0ULL;
            const std::uint64_t sum = sum_lo + carry;
            carry_out |= (sum < sum_lo) ? 1ULL : 0ULL;
            xh[w] = (sum ^ vp[w]) | eq[w];
            carry = carry_out;
        }

        // Horizontal deltas; ~ masked to the m valid bits.
        std::array<std::uint64_t, kMaxWords> ph, mh;
        for (std::size_t w = 0; w < words_; ++w) {
            const std::uint64_t valid =
                (w == words_ - 1) ? top_mask_ : ~0ULL;
            ph[w] = (vn[w] | (~(xh[w] | vp[w]) & valid));
            mh[w] = vp[w] & xh[w];
        }

        if (ph[words_ - 1] & score_bit_) {
            ++score;
        } else if (mh[words_ - 1] & score_bit_) {
            --score;
        }
        if (score < best.distance) {
            best.distance = score;
            best.text_end = static_cast<std::uint32_t>(j + 1);
        }

        // Shift Ph/Mh left by one across words. Search mode: the carry
        // into bit 0 is 0 because row 0 of the DP is all zeros.
        std::uint64_t ph_carry = 0, mh_carry = 0;
        for (std::size_t w = 0; w < words_; ++w) {
            const std::uint64_t ph_next = ph[w] >> 63;
            const std::uint64_t mh_next = mh[w] >> 63;
            ph[w] = (ph[w] << 1) | ph_carry;
            mh[w] = (mh[w] << 1) | mh_carry;
            ph_carry = ph_next;
            mh_carry = mh_next;
        }

        // Vertical state update: VP = Mh | ~(Xv | Ph); VN = Ph & Xv
        // where Xv = Eq | VN (old VN).
        for (std::size_t w = 0; w < words_; ++w) {
            const std::uint64_t valid =
                (w == words_ - 1) ? top_mask_ : ~0ULL;
            const std::uint64_t xv = eq[w] | vn[w];
            vp[w] = (mh[w] | (~(xv | ph[w]))) & valid;
            vn[w] = ph[w] & xv & valid;
        }
    }
    return best;
}

MyersMatcher::BoundedHit MyersMatcher::best_in_bounded(
    std::span<const std::uint8_t> text,
    std::uint32_t delta) const noexcept {
    // δ-banded variant. Only words whose rows can lie on an alignment
    // path of total cost ≤ δ are computed each column:
    //
    //   * rows below the band (i > column + δ) are dead because
    //     D(i,j) ≥ i - j — skip high words until the band reaches them
    //     (activation). An activated word starts from the column-0
    //     state (all +1 vertical deltas, value = i), which is ≥ the
    //     true value, so by DP monotonicity every computed cell stays
    //     ≥ its true value. Activation happens 2 columns before the
    //     word's first row enters the band, so cells that can lie on a
    //     ≤ δ path are never computed from a same-word stale column.
    //   * rows that cannot reach row m within the remaining columns
    //     ((m - i) - (t - column) > δ) are dead — freeze low words once
    //     all their rows are dead (again with 2 columns of slack) and
    //     feed the boundary with carry 0 / Ph 1 / Mh 0, i.e. an implied
    //     +1 horizontal delta and no match propagation, which also only
    //     inflates. The last word never freezes.
    //
    // Cells of an optimal ≤ δ path all live inside the processed zone
    // and are computed exactly, so whenever the true distance is ≤ δ
    // the computed bottom-row minimum, and its earliest end, equal
    // best_in()'s. When it is > δ every computed bottom value is > δ
    // too, so the reject decision also matches.
    //
    // Early exit is judged on the *computed* bottom score, which this
    // scan changes by at most ±1 per column, so "score - remaining ≥
    // bound" proves the computed minimum (= the decision) can no longer
    // change — exact for accepts and rejects alike.
    //
    // The column loop is segmented: activation and freeze columns are
    // closed-form step functions of j, so within a segment the word
    // range [w_lo, w_hi] is constant. Segments whose band fits in ONE
    // word (the common case for read-length patterns: everything except
    // the columns where the band straddles a 64-row boundary) run a
    // fused single-word Myers step with no carry chains and no per-
    // column band bookkeeping; two-word straddle segments run a fused
    // pair step with the carries spelled out on registers. Together
    // they are what makes the banded scan cheaper than best_in() in
    // wall clock, not just in word-ops.
    std::array<std::uint64_t, kMaxWords> vp{}, vn{};
    for (std::size_t w = 0; w < words_; ++w) vp[w] = ~0ULL;
    vp[words_ - 1] = top_mask_;

    const auto t = static_cast<std::int64_t>(text.size());
    const auto m = static_cast<std::int64_t>(m_);
    const auto d = static_cast<std::int64_t>(delta);

    BoundedHit best{static_cast<std::uint32_t>(m_), 0, false};
    std::size_t w_lo = 0;
    std::size_t w_hi = std::min(
        words_ - 1, static_cast<std::size_t>((d + 2) / 64));
    // Value at pattern-prefix row p = min(64*(w_hi+1), m) of the
    // current column; starts at the column-0 value, which is p.
    std::int64_t boundary = std::min<std::int64_t>(64 * (w_hi + 1), m);
    std::uint64_t ops = 0;

    std::int64_t j = 0;
    bool stopped = false;
    while (j < t && !stopped) {
        if (w_hi < words_ - 1 && (j + d + 2) / 64 > std::int64_t(w_hi)) {
            ++w_hi; // band grew into the next word (≤ 1 per column)
            const std::int64_t p_old = 64 * std::int64_t(w_hi);
            const std::int64_t p_new =
                std::min<std::int64_t>(64 * (w_hi + 1), m);
            boundary += p_new - p_old; // stale deltas below p_new are +1
        }
        while (w_lo < w_hi &&
               j + 1 >= 64 * std::int64_t(w_lo + 1) - m + t + d + 2) {
            ++w_lo;
        }

        // Last column before the next activation / freeze; the band
        // state above guarantees both change columns are > j.
        std::int64_t seg_end = t;
        if (w_hi < words_ - 1) {
            seg_end = std::min(seg_end,
                               64 * std::int64_t(w_hi + 1) - d - 2);
        }
        if (w_lo < w_hi) {
            seg_end = std::min(
                seg_end, 64 * std::int64_t(w_lo + 1) - m + t + d + 1);
        }

        const bool at_bottom = w_hi == words_ - 1;
        if (w_lo == w_hi) {
            // Single-word band: the whole column update is the classic
            // one-word Myers step on word w (no carry chains). The
            // frozen row below (when w > 0) feeds Ph carry 1 / Mh
            // carry 0, exactly as the generic path does.
            const std::size_t w = w_lo;
            const std::uint64_t valid = at_bottom ? top_mask_ : ~0ULL;
            const unsigned bshift =
                at_bottom ? static_cast<unsigned>((m_ - 1) % 64) : 63u;
            const std::uint64_t ph_in = w == 0 ? 0ULL : 1ULL;
            std::uint64_t vpw = vp[w], vnw = vn[w];
            std::int64_t b = boundary;
            const std::int64_t seg_start = j;
            for (; j < seg_end; ++j) {
                const std::uint64_t eqw = peq_[text[j] * words_ + w];
                const std::uint64_t a = eqw & vpw;
                std::uint64_t ph_bits = ((a + vpw) ^ vpw) | eqw; // Xh
                std::uint64_t mh_bits = vpw & ph_bits;
                ph_bits = vnw | (~(ph_bits | vpw) & valid);
                // Branchless ±1: the boundary-bit branches are data-
                // dependent coin flips that would mispredict ~half the
                // columns.
                b += std::int64_t((ph_bits >> bshift) & 1) -
                     std::int64_t((mh_bits >> bshift) & 1);
                ph_bits = (ph_bits << 1) | ph_in;
                mh_bits <<= 1;
                const std::uint64_t xv = eqw | vnw;
                vpw = (mh_bits | ~(xv | ph_bits)) & valid;
                vnw = ph_bits & xv & valid;
                if (at_bottom) {
                    if (b < std::int64_t(best.distance)) {
                        best.distance = static_cast<std::uint32_t>(b);
                        best.text_end = static_cast<std::uint32_t>(j + 1);
                        if (b == 0) {
                            best.early_exit = j + 1 < t;
                            stopped = true;
                            ++j;
                            break;
                        }
                    }
                    const std::int64_t bound =
                        std::min<std::int64_t>(best.distance, d + 1);
                    if (b >= bound + (t - j - 1)) {
                        best.early_exit = j + 1 < t;
                        stopped = true;
                        ++j;
                        break;
                    }
                }
            }
            vp[w] = vpw;
            vn[w] = vnw;
            boundary = b;
            ops += std::uint64_t(j - seg_start);
        } else if (w_hi - w_lo == 1) {
            // Fused two-word band: the straddle segments between
            // single-word runs (the band crossing a 64-row boundary).
            // Same dataflow as the generic path with the one-word carry
            // chains spelled out on registers instead of array loops.
            const std::size_t lo = w_lo, hi = w_hi;
            const std::uint64_t valid_hi = at_bottom ? top_mask_ : ~0ULL;
            const unsigned bshift =
                at_bottom ? static_cast<unsigned>((m_ - 1) % 64) : 63u;
            const std::uint64_t ph_in = lo == 0 ? 0ULL : 1ULL;
            std::uint64_t vp0 = vp[lo], vn0 = vn[lo];
            std::uint64_t vp1 = vp[hi], vn1 = vn[hi];
            std::int64_t b = boundary;
            const std::int64_t seg_start = j;
            for (; j < seg_end; ++j) {
                const std::uint64_t* eq = &peq_[text[j] * words_];
                const std::uint64_t eq0 = eq[lo], eq1 = eq[hi];
                const std::uint64_t a0 = eq0 & vp0;
                const std::uint64_t s0 = a0 + vp0;
                const std::uint64_t xh0 = (s0 ^ vp0) | eq0;
                const std::uint64_t a1 = eq1 & vp1;
                const std::uint64_t s1 = a1 + vp1 + (s0 < a0 ? 1ULL : 0ULL);
                const std::uint64_t xh1 = (s1 ^ vp1) | eq1;
                std::uint64_t ph0 = vn0 | ~(xh0 | vp0);
                std::uint64_t mh0 = vp0 & xh0;
                std::uint64_t ph1 = vn1 | (~(xh1 | vp1) & valid_hi);
                std::uint64_t mh1 = vp1 & xh1;
                b += std::int64_t((ph1 >> bshift) & 1) -
                     std::int64_t((mh1 >> bshift) & 1);
                const std::uint64_t ph0_top = ph0 >> 63;
                const std::uint64_t mh0_top = mh0 >> 63;
                ph0 = (ph0 << 1) | ph_in;
                mh0 <<= 1;
                ph1 = (ph1 << 1) | ph0_top;
                mh1 = (mh1 << 1) | mh0_top;
                const std::uint64_t xv0 = eq0 | vn0;
                const std::uint64_t xv1 = eq1 | vn1;
                vp0 = mh0 | ~(xv0 | ph0);
                vn0 = ph0 & xv0;
                vp1 = (mh1 | ~(xv1 | ph1)) & valid_hi;
                vn1 = ph1 & xv1 & valid_hi;
                if (at_bottom) {
                    if (b < std::int64_t(best.distance)) {
                        best.distance = static_cast<std::uint32_t>(b);
                        best.text_end = static_cast<std::uint32_t>(j + 1);
                        if (b == 0) {
                            best.early_exit = j + 1 < t;
                            stopped = true;
                            ++j;
                            break;
                        }
                    }
                    const std::int64_t bound =
                        std::min<std::int64_t>(best.distance, d + 1);
                    if (b >= bound + (t - j - 1)) {
                        best.early_exit = j + 1 < t;
                        stopped = true;
                        ++j;
                        break;
                    }
                }
            }
            vp[lo] = vp0;
            vn[lo] = vn0;
            vp[hi] = vp1;
            vn[hi] = vn1;
            boundary = b;
            ops += 2 * std::uint64_t(j - seg_start);
        } else {
            for (; j < seg_end; ++j) {
                const std::uint64_t* eq = &peq_[text[j] * words_];

                std::array<std::uint64_t, kMaxWords> xh;
                std::uint64_t carry = 0; // frozen boundary: no carry in
                for (std::size_t w = w_lo; w <= w_hi; ++w) {
                    const std::uint64_t a = eq[w] & vp[w];
                    const std::uint64_t sum_lo = a + vp[w];
                    std::uint64_t carry_out = sum_lo < a ? 1ULL : 0ULL;
                    const std::uint64_t sum = sum_lo + carry;
                    carry_out |= (sum < sum_lo) ? 1ULL : 0ULL;
                    xh[w] = (sum ^ vp[w]) | eq[w];
                    carry = carry_out;
                }

                std::array<std::uint64_t, kMaxWords> ph, mh;
                for (std::size_t w = w_lo; w <= w_hi; ++w) {
                    const std::uint64_t valid =
                        (w == words_ - 1) ? top_mask_ : ~0ULL;
                    ph[w] = (vn[w] | (~(xh[w] | vp[w]) & valid));
                    mh[w] = vp[w] & xh[w];
                }

                const unsigned bshift =
                    at_bottom ? static_cast<unsigned>((m_ - 1) % 64)
                              : 63u;
                boundary += std::int64_t((ph[w_hi] >> bshift) & 1) -
                            std::int64_t((mh[w_hi] >> bshift) & 1);
                if (at_bottom && boundary < std::int64_t(best.distance)) {
                    best.distance = static_cast<std::uint32_t>(boundary);
                    best.text_end = static_cast<std::uint32_t>(j + 1);
                }

                // Frozen boundary row: implied horizontal delta +1.
                std::uint64_t ph_carry = w_lo == 0 ? 0 : 1;
                std::uint64_t mh_carry = 0;
                for (std::size_t w = w_lo; w <= w_hi; ++w) {
                    const std::uint64_t ph_next = ph[w] >> 63;
                    const std::uint64_t mh_next = mh[w] >> 63;
                    ph[w] = (ph[w] << 1) | ph_carry;
                    mh[w] = (mh[w] << 1) | mh_carry;
                    ph_carry = ph_next;
                    mh_carry = mh_next;
                }

                for (std::size_t w = w_lo; w <= w_hi; ++w) {
                    const std::uint64_t valid =
                        (w == words_ - 1) ? top_mask_ : ~0ULL;
                    const std::uint64_t xv = eq[w] | vn[w];
                    vp[w] = (mh[w] | (~(xv | ph[w]))) & valid;
                    vn[w] = ph[w] & xv & valid;
                }

                ops += w_hi - w_lo + 1;

                if (best.distance == 0) {
                    best.early_exit = j + 1 < t;
                    stopped = true;
                    ++j;
                    break;
                }
                if (at_bottom) {
                    const std::int64_t remaining = t - j - 1;
                    const std::int64_t bound =
                        std::min<std::int64_t>(best.distance, d + 1);
                    if (boundary >= bound + remaining) {
                        best.early_exit = j + 1 < t;
                        stopped = true;
                        ++j;
                        break;
                    }
                }
            }
        }
    }
    last_word_ops_ = ops;
    return best;
}

} // namespace repute::align
