#pragma once
// Incremental k-mer frequency scanning.
//
// The DP seeders need freq(d, e) — the number of reference occurrences of
// read[d, e) — for many (d, e) pairs sharing the same end e. FM-Index
// backward search extends patterns by *prepending* a character, so for a
// fixed end e the frequencies for all starts d = e-1, e-2, ... fall out
// of one backward scan at one extension step each. Once the range goes
// empty it stays empty for every smaller d, so the scan short-circuits.
//
// When the index carries a q-gram jump table, the first q steps of every
// scan are table lookups instead of extend() calls: same ranges, same
// counts (the table is built by extend()), but one L2-resident load per
// step instead of two rank-block probes. The two work kinds are
// accounted separately so the modeled device ops stay honest.

#include <cstdint>
#include <span>
#include <vector>

#include "index/fm_index.hpp"

namespace repute::filter {

class FrequencyScanner {
public:
    FrequencyScanner(const index::FmIndex& fm,
                     std::span<const std::uint8_t> read)
        : fm_(&fm), read_(read) {}

    /// Fills `out[k]` with freq(min_start + k, end) for
    /// k in [0, end - min_start), i.e. frequencies of every suffix of
    /// read[min_start, end) that ends at `end`. Adds the FM extension
    /// steps performed to `fm_extends` and the jump-table lookups to
    /// `qgram_jumps`.
    void suffix_frequencies(std::uint32_t min_start, std::uint32_t end,
                            std::span<std::uint32_t> out,
                            std::uint64_t& fm_extends,
                            std::uint64_t& qgram_jumps) const;

    /// Convenience overload returning only the extension-step count.
    std::uint64_t suffix_frequencies(std::uint32_t min_start,
                                     std::uint32_t end,
                                     std::span<std::uint32_t> out) const {
        std::uint64_t extends = 0, jumps = 0;
        suffix_frequencies(min_start, end, out, extends, jumps);
        return extends;
    }

    /// FM range of the single k-mer read[start, end): one jump-table
    /// lookup for its last min(q, end - start) bases, then one extension
    /// step per remaining base until the range empties. Adds the steps
    /// actually taken to the counters that are given.
    index::FmIndex::Range range(std::uint32_t start, std::uint32_t end,
                                std::uint64_t* fm_extends = nullptr,
                                std::uint64_t* qgram_jumps = nullptr) const;

    /// Frequency of the single k-mer read[start, end).
    std::uint32_t frequency(std::uint32_t start, std::uint32_t end,
                            std::uint64_t* fm_extends = nullptr,
                            std::uint64_t* qgram_jumps = nullptr) const {
        return range(start, end, fm_extends, qgram_jumps).count();
    }

private:
    const index::FmIndex* fm_;
    std::span<const std::uint8_t> read_;
};

} // namespace repute::filter
