#pragma once
// Per-stage operation counters of the map kernel pipeline.
//
// One definition shared by the kernel accounting (core::StageTotals),
// the per-device run records (core::DeviceRun) and the observability
// summary exporter — previously each kept its own copy of these fields
// and they drifted.

#include <cstdint>

namespace repute::obs {

/// Abstract-op totals of the three kernel stages plus the candidate
/// count linking filtration quality to verification work.
struct StageCounters {
    std::uint64_t filtration_ops = 0; ///< seed selection (FM + DP)
    std::uint64_t locate_ops = 0;     ///< SA locate walks
    std::uint64_t verify_ops = 0;     ///< Myers verification + windows
    std::uint64_t candidates = 0;     ///< windows passed to verification

    std::uint64_t total_ops() const noexcept {
        return filtration_ops + locate_ops + verify_ops;
    }

    StageCounters& operator+=(const StageCounters& other) noexcept {
        filtration_ops += other.filtration_ops;
        locate_ops += other.locate_ops;
        verify_ops += other.verify_ops;
        candidates += other.candidates;
        return *this;
    }
};

} // namespace repute::obs
