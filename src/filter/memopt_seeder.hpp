#pragma once
// REPUTE's memory-optimized DP filtration (paper §II-B, Fig. 2).
//
// Produces exactly the partitions of the full Optimal Seed Solver, but
// with the DP confined to the feasible "exploration space" of
// E + 1 = n - s_min*(delta+1) + 1 prefixes per iteration:
//
//   * iteration x (x = 1..delta+1) examines prefix ends
//     p in [x*s_min, x*s_min + E] only — every other prefix cannot be
//     completed into delta+1 seeds of length >= s_min;
//   * the DP sweeps prefix ends p ascending (p-major): each end gets one
//     backward frequency scan, as deep as the shallowest iteration whose
//     window contains it, and that scan feeds every iteration containing
//     p — an end shared by overlapping windows is never re-scanned;
//   * the last iteration is read back only at p = n, so it is computed
//     as that one cell, and ends only it contains need no scan;
//   * storage is delta window-sized DP rows plus (delta-1) rows of u16
//     dividers (the paper's bit-width optimization) and one scan
//     buffer — never the n x Lmax frequency table of the full solver.
//
// The trade-off surface the paper reports falls out directly: smaller
// s_min => larger window => better partitions but more scratch memory
// and more filtration work; larger s_min => tiny window but more
// candidates to verify (Fig. 4).

#include "filter/seed.hpp"

namespace repute::filter {

class MemoryOptimizedSeeder final : public Seeder {
public:
    explicit MemoryOptimizedSeeder(std::uint32_t s_min = 12)
        : s_min_(s_min) {}

    using Seeder::select;
    void select(const index::FmIndex& fm,
                std::span<const std::uint8_t> read, std::uint32_t delta,
                SeedPlan& plan, SeedScratch& scratch) const override;

    std::string_view name() const noexcept override { return "repute-dp"; }

    /// delta window-sized DP rows + (delta-1) rows of u16 dividers + one
    /// scan buffer (the paper's bounded exploration space). Equals the
    /// plan.scratch_bytes every select() reports.
    std::uint64_t scratch_bound(std::size_t read_length,
                                std::uint32_t delta) const override {
        const std::uint64_t width =
            exploration_space(read_length, delta, s_min_) + 1;
        const std::uint64_t divider_rows = delta > 0 ? delta - 1 : 0;
        return (delta * width + (s_min_ + width - 1)) * 4 +
               divider_rows * width * 2;
    }

    std::uint32_t s_min() const noexcept { return s_min_; }

    /// Exploration-space size E for given read parameters (number of
    /// extra prefixes beyond the minimal one, >= 0).
    static std::uint32_t exploration_space(std::size_t read_length,
                                           std::uint32_t delta,
                                           std::uint32_t s_min) noexcept {
        const auto needed =
            static_cast<std::uint32_t>((delta + 1) * s_min);
        const auto n = static_cast<std::uint32_t>(read_length);
        // Saturate: a read shorter than its seed budget is rejected by
        // validate_read_parameters at select() time; the scratch bound
        // must not underflow into a bogus huge allocation before that
        // clear error can surface.
        return n > needed ? n - needed : 0;
    }

private:
    std::uint32_t s_min_;
};

} // namespace repute::filter
