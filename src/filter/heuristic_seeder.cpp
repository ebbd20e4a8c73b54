#include "filter/heuristic_seeder.hpp"

#include <algorithm>

namespace repute::filter {

namespace {
/// Growth granularity of the serial probes: CORAL lengthens a k-mer a
/// few bases at a time, re-examining the candidate count after each
/// step.
constexpr std::uint32_t kGrowthStep = 2;
} // namespace

// CORAL's serial probes deliberately bypass the q-gram jump table: its
// published cost model re-pays the full O(k) search per length probe.
// A probe stops once its range empties, and only the extends it issues
// are charged.
void HeuristicSeeder::select(const index::FmIndex& fm,
                             std::span<const std::uint8_t> read,
                             std::uint32_t delta, SeedPlan& plan,
                             SeedScratch& /*scratch*/) const {
    validate_read_parameters(read.size(), delta, s_min_);
    const std::uint32_t n_seeds = delta + 1;
    const auto n = static_cast<std::uint32_t>(read.size());

    plan.reset();
    plan.seeds.reserve(n_seeds);

    // Serial left-to-right examination (paper §I: "CORAL examines
    // k-mers serially"). Each k-mer starts at the minimum length and is
    // grown while it is unspecific. FM backward search anchors at a
    // k-mer's END, so every length probe is a fresh O(k) search — the
    // cost REPUTE's single-scan DP avoids; it grows with read length
    // and repeat content exactly as Table I's CORAL column does.
    std::uint32_t pos = 0;
    for (std::uint32_t s = 0; s < n_seeds; ++s) {
        const std::uint32_t seeds_after = n_seeds - 1 - s;
        const std::uint32_t max_len = n - pos - seeds_after * s_min_;

        std::uint32_t len = (s == n_seeds - 1) ? max_len
                                               : std::min(s_min_, max_len);
        index::FmIndex::Range range;
        while (true) {
            range = fm.whole_range();
            for (auto i = pos + len; i > pos && !range.empty(); --i) {
                range = fm.extend(range, read[i - 1]);
                ++plan.fm_extends;
            }
            if (s == n_seeds - 1) break; // last k-mer takes the rest
            if (range.empty() || range.count() <= threshold_) break;
            if (len + kGrowthStep > max_len) break;
            len += kGrowthStep;
        }

        Seed seed;
        seed.start = static_cast<std::uint16_t>(pos);
        seed.length = static_cast<std::uint16_t>(len);
        seed.range = range;
        plan.total_candidates += range.count();
        plan.seeds.push_back(seed);
        pos += len;
    }
    plan.scratch_bytes = n_seeds * sizeof(Seed);
}

} // namespace repute::filter
