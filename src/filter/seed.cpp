#include "filter/seed.hpp"

#include <stdexcept>
#include <string>

#include "filter/frequency_scanner.hpp"

namespace repute::filter {

void validate_read_parameters(std::size_t read_length, std::uint32_t delta,
                              std::uint32_t s_min) {
    if (s_min == 0) {
        throw std::invalid_argument("minimum k-mer length must be >= 1");
    }
    const std::uint64_t needed =
        static_cast<std::uint64_t>(delta + 1) * s_min;
    if (read_length < needed) {
        throw std::invalid_argument(
            "read of length " + std::to_string(read_length) +
            " cannot host " + std::to_string(delta + 1) +
            " k-mers of minimum length " + std::to_string(s_min));
    }
    if (read_length > 512) {
        throw std::invalid_argument("read length exceeds kernel limit 512");
    }
}

void plan_from_boundaries(const index::FmIndex& fm,
                          std::span<const std::uint8_t> read,
                          std::span<const std::uint16_t> boundaries,
                          SeedPlan& plan) {
    const FrequencyScanner scanner(fm, read);
    plan.seeds.clear();
    plan.seeds.reserve(boundaries.size());
    for (std::size_t s = 0; s < boundaries.size(); ++s) {
        const std::uint16_t start = boundaries[s];
        const std::uint16_t end =
            (s + 1 < boundaries.size())
                ? boundaries[s + 1]
                : static_cast<std::uint16_t>(read.size());
        Seed seed;
        seed.start = start;
        seed.length = static_cast<std::uint16_t>(end - start);
        seed.range = scanner.range(start, end, &plan.fm_extends,
                                   &plan.qgram_jumps);
        plan.total_candidates += seed.range.count();
        plan.seeds.push_back(seed);
    }
}

SeedPlan plan_from_boundaries(const index::FmIndex& fm,
                              std::span<const std::uint8_t> read,
                              std::span<const std::uint16_t> boundaries) {
    SeedPlan plan;
    plan_from_boundaries(fm, read, boundaries, plan);
    return plan;
}

} // namespace repute::filter
