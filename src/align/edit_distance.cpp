#include "align/edit_distance.hpp"

#include <algorithm>
#include <bit>
#include <charconv>

#include "align/myers.hpp"

namespace repute::align {

std::uint32_t levenshtein(std::span<const std::uint8_t> a,
                          std::span<const std::uint8_t> b) {
    if (a.size() > b.size()) std::swap(a, b);
    std::vector<std::uint32_t> row(a.size() + 1);
    for (std::size_t i = 0; i <= a.size(); ++i) {
        row[i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t j = 1; j <= b.size(); ++j) {
        std::uint32_t diag = row[0];
        row[0] = static_cast<std::uint32_t>(j);
        for (std::size_t i = 1; i <= a.size(); ++i) {
            const std::uint32_t up = row[i];
            row[i] = std::min({row[i] + 1, row[i - 1] + 1,
                               diag + (a[i - 1] == b[j - 1] ? 0u : 1u)});
            diag = up;
        }
    }
    return row[a.size()];
}

std::uint32_t semiglobal_distance(std::span<const std::uint8_t> pattern,
                                  std::span<const std::uint8_t> text) {
    // Column-wise over text; D[0][j] = 0 (free text prefix).
    std::vector<std::uint32_t> col(pattern.size() + 1);
    for (std::size_t i = 0; i <= pattern.size(); ++i) {
        col[i] = static_cast<std::uint32_t>(i);
    }
    std::uint32_t best = col[pattern.size()];
    for (std::size_t j = 1; j <= text.size(); ++j) {
        std::uint32_t diag = col[0];
        col[0] = 0;
        for (std::size_t i = 1; i <= pattern.size(); ++i) {
            const std::uint32_t up = col[i];
            col[i] =
                std::min({col[i] + 1, col[i - 1] + 1,
                          diag + (pattern[i - 1] == text[j - 1] ? 0u : 1u)});
            diag = up;
        }
        best = std::min(best, col[pattern.size()]);
    }
    return best;
}

std::uint32_t banded_semiglobal_distance(
    std::span<const std::uint8_t> pattern,
    std::span<const std::uint8_t> text, std::uint32_t band) {
    // Row-wise over the pattern; for row i only text columns within
    // [i - band, i + band + slack] can be on an alignment path of cost
    // <= band, where slack = |text| - |pattern| absorbs the free ends.
    const std::uint32_t infinity = band + 1;
    const std::size_t m = pattern.size();
    const std::size_t t = text.size();
    if (m == 0) return 0;
    if (t + band < m) return infinity; // too short even with all inserts

    const std::size_t slack = t > m ? t - m : 0;
    const std::size_t width = 2 * band + slack + 1;

    // prev[w] = D[i-1][j] with j = (i-1) - band + w (clamped to >= 0).
    std::vector<std::uint32_t> prev(width + 2, infinity);
    std::vector<std::uint32_t> curr(width + 2, infinity);

    auto col_of = [&](std::size_t i, std::size_t w) -> std::ptrdiff_t {
        return static_cast<std::ptrdiff_t>(i + w) -
               static_cast<std::ptrdiff_t>(band);
    };

    // Row 0: D[0][j] = 0 for all j in band.
    for (std::size_t w = 0; w < width; ++w) {
        const auto j = col_of(0, w);
        if (j >= 0 && j <= static_cast<std::ptrdiff_t>(t)) prev[w] = 0;
    }

    for (std::size_t i = 1; i <= m; ++i) {
        std::fill(curr.begin(), curr.end(), infinity);
        for (std::size_t w = 0; w < width; ++w) {
            const auto j = col_of(i, w);
            if (j < 0 || j > static_cast<std::ptrdiff_t>(t)) continue;
            std::uint32_t best = infinity;
            if (j == 0) {
                best = static_cast<std::uint32_t>(std::min<std::size_t>(
                    i, infinity));
            } else {
                // Same w in prev row is the diagonal neighbour
                // (j - 1 = (i-1) - band + w).
                const std::uint32_t diag = prev[w];
                if (diag != infinity) {
                    best = std::min(
                        best,
                        diag + (pattern[i - 1] ==
                                        text[static_cast<std::size_t>(j - 1)]
                                    ? 0u
                                    : 1u));
                }
                // Up neighbour D[i-1][j] lives at prev[w+1].
                if (w + 1 < width && prev[w + 1] != infinity) {
                    best = std::min(best, prev[w + 1] + 1);
                }
                // Left neighbour D[i][j-1] lives at curr[w-1].
                if (w > 0 && curr[w - 1] != infinity) {
                    best = std::min(best, curr[w - 1] + 1);
                }
            }
            curr[w] = std::min(best, infinity);
        }
        std::swap(prev, curr);
    }

    std::uint32_t best = infinity;
    for (std::size_t w = 0; w < width; ++w) {
        const auto j = col_of(m, w);
        if (j >= 0 && j <= static_cast<std::ptrdiff_t>(t)) {
            best = std::min(best, prev[w]);
        }
    }
    return best;
}

bool SemiGlobalAligner::align(std::span<const std::uint8_t> pattern,
                              std::span<const std::uint8_t> text,
                              std::uint32_t max_distance,
                              SemiGlobalAlignment& out) {
    const std::size_t m = pattern.size();
    const std::size_t t = text.size();
    out.cigar.clear();
    if (m == 0) { // row 0 only: D[0][j] = 0, the empty alignment at 0
        out.distance = 0;
        out.text_start = 0;
        out.text_end = 0;
        return true;
    }

    // Forward pass: Myers' search-mode recurrence, the same column
    // update as MyersMatcher::best_in, with every column's VP/VN words
    // kept for the traceback. Column j holds the vertical deltas
    // D[i][j] - D[i-1][j] of rows 1..m as bits 0..m-1: VP marks +1, VN
    // marks -1. Bits past m - 1 in the top word are left unmasked: the
    // add's carries and the Ph/Mh shifts only move information upward,
    // so they never reach a row, and neither the score nor the
    // traceback reads them.
    const std::size_t words = (m + 63) / 64;
    const std::size_t stride = 2 * words;
    const auto score_shift = static_cast<unsigned>((m - 1) % 64);
    MyersMatcher::build_peq(pattern, peq_);
    if (columns_.size() < (t + 1) * stride) {
        columns_.resize((t + 1) * stride);
    }
    std::uint64_t* const cols = columns_.data();
    // Column 0: D[i][0] = i, every vertical delta +1.
    std::fill(cols, cols + words, ~0ULL);
    std::fill(cols + words, cols + stride, 0ULL);

    // Bottom-row score D[m][j] and its leftmost minimum.
    auto score = static_cast<std::int64_t>(m);
    std::int64_t best = score;
    std::size_t best_j = 0;
    const std::int64_t reject = std::int64_t{max_distance} + 1;
    for (std::size_t j = 0; j < t;) {
        const std::uint64_t* const prev = cols + j * stride;
        std::uint64_t* const cur = cols + (j + 1) * stride;
        const std::uint64_t* const eq = &peq_[text[j] * words];
        // Xh = (((Eq & VP) + VP) ^ VP) | Eq with the add's carry, and
        // the Ph/Mh shift, both rippling from the low word up.
        std::uint64_t carry = 0, ph_in = 0, mh_in = 0;
        std::uint64_t ph_top_word = 0, mh_top_word = 0;
        for (std::size_t w = 0; w < words; ++w) {
            const std::uint64_t vp = prev[w];
            const std::uint64_t vn = prev[words + w];
            const std::uint64_t e = eq[w];
            const std::uint64_t a = e & vp;
            const std::uint64_t sum_lo = a + vp;
            const std::uint64_t sum = sum_lo + carry;
            carry = (sum_lo < a) | (sum < sum_lo);
            const std::uint64_t xh = (sum ^ vp) | e;
            std::uint64_t ph = vn | ~(xh | vp);
            std::uint64_t mh = vp & xh;
            ph_top_word = ph;
            mh_top_word = mh;
            const std::uint64_t ph_out = ph >> 63;
            const std::uint64_t mh_out = mh >> 63;
            ph = (ph << 1) | ph_in; // row 0 is all zeros: carry-in 0
            mh = (mh << 1) | mh_in;
            ph_in = ph_out;
            mh_in = mh_out;
            const std::uint64_t xv = e | vn;
            cur[w] = mh | ~(xv | ph);
            cur[words + w] = ph & xv;
        }
        score += std::int64_t((ph_top_word >> score_shift) & 1) -
                 std::int64_t((mh_top_word >> score_shift) & 1);
        ++j;
        if (score < best) {
            best = score;
            best_j = j;
        }
        // The bottom row moves by at most 1 per column: once it cannot
        // get below min(best, max_distance + 1) in the columns left, no
        // later end can win (or be accepted), so they are not computed.
        if (best == 0 ||
            score - std::int64_t(t - j) >= std::min(best, reject)) {
            break;
        }
    }
    if (best > std::int64_t{max_distance}) return false;

    // D[i][j] read back from column j's first i vertical deltas.
    const auto cell = [&](std::size_t i, std::size_t j) {
        const std::uint64_t* const vp = cols + j * stride;
        const std::uint64_t* const vn = vp + words;
        std::int64_t value = 0;
        const std::size_t full = i / 64;
        for (std::size_t w = 0; w < full; ++w) {
            value += std::popcount(vp[w]) - std::popcount(vn[w]);
        }
        if (const std::size_t rem = i % 64; rem != 0) {
            const std::uint64_t low = (1ULL << rem) - 1;
            value += std::popcount(vp[full] & low) -
                     std::popcount(vn[full] & low);
        }
        return value;
    };

    // Traceback from (m, best_j): diagonal first, then I, then D.
    ops_.clear();
    std::size_t i = m, j = best_j;
    std::int64_t value = best; // D[i][j]
    while (i > 0) {
        // A match always continues the diagonal: adjacent cells differ
        // by at most 1, so neither gap move can undercut D[i-1][j-1],
        // and D[i][j] equals it. Only a mismatch needs the cell.
        if (j > 0 && (pattern[i - 1] == text[j - 1] ||
                      value == cell(i - 1, j - 1) + 1)) {
            ops_.push_back('M');
            if (pattern[i - 1] != text[j - 1]) --value;
            --i;
            --j;
            continue;
        }
        // Neither diagonal: D[i][j] is D[i-1][j] + 1 (a +1 vertical
        // delta, always so in column 0) or else D[i][j-1] + 1.
        const std::uint64_t vp = cols[j * stride + (i - 1) / 64];
        --value;
        if ((vp >> ((i - 1) % 64)) & 1) {
            ops_.push_back('I'); // pattern base consumed, none from text
            --i;
        } else {
            ops_.push_back('D'); // text base consumed, none from pattern
            --j;
        }
    }

    out.distance = static_cast<std::uint32_t>(best);
    out.text_start = static_cast<std::uint32_t>(j);
    out.text_end = static_cast<std::uint32_t>(best_j);
    // Run-length encode the trail, which runs end to start.
    char digits[20];
    for (std::size_t k = ops_.size(); k > 0;) {
        const char op = ops_[k - 1];
        std::size_t run = 0;
        for (; k > 0 && ops_[k - 1] == op; --k) ++run;
        const auto res = std::to_chars(digits, digits + sizeof digits, run);
        out.cigar.append(digits, res.ptr);
        out.cigar.push_back(op);
    }
    return true;
}

std::optional<SemiGlobalAlignment> semiglobal_align(
    std::span<const std::uint8_t> pattern,
    std::span<const std::uint8_t> text, std::uint32_t max_distance) {
    thread_local SemiGlobalAligner aligner;
    SemiGlobalAlignment out;
    if (!aligner.align(pattern, text, max_distance, out)) {
        return std::nullopt;
    }
    return out;
}

} // namespace repute::align
