#include "filter/memopt_seeder.hpp"

#include <algorithm>
#include <limits>

#include "filter/frequency_scanner.hpp"

namespace repute::filter {

namespace {
constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();

std::uint32_t sat_add(std::uint32_t a, std::uint32_t b) noexcept {
    return (a == kInf || b == kInf || a > kInf - b) ? kInf : a + b;
}

/// Best divider for cell (x, p), x >= 2: min over d = d_lo + w',
/// w' <= w, of prev_row[w'] + freq(d, p), where freq(d, p) is
/// scan[d - scan_start]. Scanning ascending with strict `<` and stopping
/// at 0 keeps tie-breaks identical to OptimalSeeder.
std::uint32_t best_divider(const std::uint32_t* prev_row,
                           const std::uint32_t* scan, std::uint32_t d_lo,
                           std::uint32_t w, std::uint16_t& best_d,
                           std::uint64_t& dp_cells) noexcept {
    std::uint32_t best = kInf;
    best_d = 0;
    for (std::uint32_t wp = 0; wp <= w; ++wp) {
        ++dp_cells;
        if (prev_row[wp] == kInf) continue;
        const std::uint32_t total = sat_add(prev_row[wp], scan[wp]);
        if (total < best) {
            best = total;
            best_d = static_cast<std::uint16_t>(d_lo + wp);
            if (best == 0) break;
        }
    }
    return best;
}
} // namespace

void MemoryOptimizedSeeder::select(const index::FmIndex& fm,
                                   std::span<const std::uint8_t> read,
                                   std::uint32_t delta, SeedPlan& plan,
                                   SeedScratch& scratch) const {
    validate_read_parameters(read.size(), delta, s_min_);
    const auto n = static_cast<std::uint32_t>(read.size());
    const std::uint32_t s = s_min_;
    const std::uint32_t e = exploration_space(n, delta, s);
    const std::uint32_t width = e + 1;

    plan.reset();
    FrequencyScanner scanner(fm, read);

    // DP rows of iterations x = 1..delta: rows[(x-1)*width + w] is the
    // best total for the first x k-mers covering [0, p), p = x*s + w.
    // Iteration delta+1 is read back only at p = n, so it is one cell.
    auto& rows = scratch.row_a;
    rows.assign(static_cast<std::size_t>(delta) * width, kInf);
    // dividers[(x-2)*width + w] = best divider d for (x, p), x = 2..delta.
    auto& dividers = scratch.dividers;
    dividers.assign(static_cast<std::size_t>(delta > 0 ? delta - 1 : 0) *
                        width,
                    0);
    // One backward scan buffer; no scan is deeper than a maximal seed
    // (s + e bases).
    auto& freqs = scratch.freqs;
    freqs.resize(s + e);

    // p-major sweep over the ends rows 1..delta hold, [s, delta*s + e].
    // Each end is scanned once, as deep as the shallowest iteration
    // containing it needs, and the scan feeds every iteration x with
    // x*s <= p <= x*s + e. Cell (x, p) reads row x-1 only at ends
    // <= p - s, which earlier sweeps have already finalized.
    const std::uint32_t p_stop = delta > 0 ? delta * s + e : 0;
    for (std::uint32_t p = s; p <= p_stop; ++p) {
        const std::uint32_t x_lo = p <= s + e ? 1 : (p - e + s - 1) / s;
        const std::uint32_t x_hi = std::min(delta, p / s);
        if (x_lo > x_hi) continue; // between windows when e < s - 1
        const std::uint32_t scan_start = (x_lo - 1) * s;
        auto out = std::span<std::uint32_t>(freqs.data(), p - scan_start);
        scanner.suffix_frequencies(scan_start, p, out, plan.fm_extends,
                                   plan.qgram_jumps);
        std::uint32_t x = x_lo;
        if (x == 1) {
            rows[p - s] = out[0]; // freq(0, p)
            ++plan.dp_cells;
            ++x;
        }
        for (; x <= x_hi; ++x) {
            const std::uint32_t w = p - x * s;
            const std::uint32_t d_lo = (x - 1) * s;
            std::uint16_t best_d = 0;
            rows[static_cast<std::size_t>(x - 1) * width + w] =
                best_divider(&rows[static_cast<std::size_t>(x - 2) * width],
                             out.data() + (d_lo - scan_start), d_lo, w,
                             best_d, plan.dp_cells);
            dividers[static_cast<std::size_t>(x - 2) * width + w] = best_d;
        }
    }

    // The collapsed last iteration: the single cell (delta+1, n).
    auto& boundaries = scratch.boundaries;
    boundaries.assign(delta + 1, 0);
    const std::uint32_t d_last = delta * s;
    auto out = std::span<std::uint32_t>(freqs.data(), n - d_last);
    scanner.suffix_frequencies(d_last, n, out, plan.fm_extends,
                               plan.qgram_jumps);
    if (delta == 0) {
        ++plan.dp_cells; // freq(0, n): the read is the one k-mer
    } else {
        std::uint16_t best_d = 0;
        best_divider(&rows[static_cast<std::size_t>(delta - 1) * width],
                     out.data(), d_last, e, best_d, plan.dp_cells);
        boundaries[delta] = best_d;
    }

    // Backtracking (paper Fig. 2, bottom): recover dividers from the
    // last k-mer to the first.
    std::uint32_t p = boundaries[delta];
    for (std::uint32_t x = delta; x >= 2; --x) {
        const std::uint32_t w = p - x * s;
        const std::uint16_t d =
            dividers[static_cast<std::size_t>(x - 2) * width + w];
        boundaries[x - 1] = d;
        p = d;
    }

    plan_from_boundaries(fm, read, boundaries, plan);
    plan.scratch_bytes = (rows.size() + freqs.size()) * sizeof(std::uint32_t) +
                         dividers.size() * sizeof(std::uint16_t);
}

} // namespace repute::filter
