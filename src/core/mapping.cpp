#include "core/mapping.hpp"

#include <algorithm>

namespace repute::core {

std::uint64_t MapResult::total_mappings() const noexcept {
    std::uint64_t total = 0;
    for (const auto& m : per_read) total += m.size();
    return total;
}

std::size_t MapResult::reads_mapped() const noexcept {
    std::size_t n = 0;
    for (const auto& m : per_read) n += m.empty() ? 0 : 1;
    return n;
}

std::uint64_t MapResult::bytes_staged() const noexcept {
    std::uint64_t total = 0;
    for (const DeviceRun& run : device_runs) total += run.bytes_staged;
    return total;
}

std::uint64_t MapResult::bytes_drained() const noexcept {
    std::uint64_t total = 0;
    for (const DeviceRun& run : device_runs) total += run.bytes_drained;
    return total;
}

double MapResult::transfer_overlap_ratio() const noexcept {
    double transfer = 0.0;
    double stall = 0.0;
    for (const DeviceRun& run : device_runs) {
        transfer += run.transfer_seconds;
        stall += run.stall_seconds;
    }
    if (transfer <= 0.0) return 1.0;
    return std::clamp(1.0 - stall / transfer, 0.0, 1.0);
}

} // namespace repute::core
