#include "filter/frequency_scanner.hpp"

#include <algorithm>

#include "index/qgram_table.hpp"

namespace repute::filter {

void FrequencyScanner::suffix_frequencies(
    std::uint32_t min_start, std::uint32_t end, std::span<std::uint32_t> out,
    std::uint64_t& fm_extends, std::uint64_t& qgram_jumps) const {
    auto range = fm_->whole_range();
    std::uint32_t d = end;
    const index::QGramTable* qt = fm_->qgrams();
    if (qt != nullptr && end > min_start) {
        // Lengths 1..q come straight out of the table. An absent pattern
        // yields the canonical empty range {0, 0}: count 0, exactly what
        // the extend() chain would report once it went empty.
        const std::uint32_t direct = std::min(end - min_start, qt->q());
        std::uint64_t idx = 0;
        for (std::uint32_t len = 1; len <= direct; ++len) {
            d = end - len;
            idx |= static_cast<std::uint64_t>(read_[d]) << (2 * (len - 1));
            range = qt->lookup(len, idx);
            out[d - min_start] = range.count();
        }
        qgram_jumps += direct;
    }
    for (; d-- > min_start;) {
        if (!range.empty()) {
            range = fm_->extend(range, read_[d]);
            ++fm_extends;
        }
        out[d - min_start] = range.count();
    }
}

index::FmIndex::Range FrequencyScanner::range(
    std::uint32_t start, std::uint32_t end, std::uint64_t* fm_extends,
    std::uint64_t* qgram_jumps) const {
    auto r = fm_->whole_range();
    std::uint32_t d = end;
    const index::QGramTable* qt = fm_->qgrams();
    if (qt != nullptr && end > start) {
        const std::uint32_t jump = std::min(end - start, qt->q());
        r = qt->lookup(read_.subspan(end - jump, jump));
        d = end - jump;
        if (qgram_jumps) ++*qgram_jumps;
    }
    for (; d-- > start && !r.empty();) {
        r = fm_->extend(r, read_[d]);
        if (fm_extends) ++*fm_extends;
    }
    return r;
}

} // namespace repute::filter
