#pragma once
// Pipeline accounting and the thin obs:: bridge.
//
// PipelineStats is always collected (it is how the CLI and the
// pipeline_throughput bench report stage balance); the detail::
// helpers additionally mirror the numbers into the globally installed
// obs::MetricsRegistry when one exists, costing one branch when
// tracing is off — the same contract as every other instrumented
// subsystem.

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

namespace repute::pipeline {

struct PipelineStats {
    std::size_t units = 0;       ///< batches emitted by the writer
    std::size_t map_workers = 0;
    std::size_t queue_depth = 0;
    /// Peak batches resident anywhere in the pipeline (queues, map
    /// stage, reorder buffer) — the memory-bound witness.
    std::size_t max_in_flight = 0;
    /// Peak batches parked in the writer's ordering buffer.
    std::size_t max_reorder_depth = 0;
    /// Host seconds each stage spent doing work...
    double reader_seconds = 0.0;
    double map_seconds = 0.0; ///< summed across workers
    double writer_seconds = 0.0;
    /// ...and blocked on its neighbours (full/empty queues).
    double reader_stall_seconds = 0.0;
    double map_stall_seconds = 0.0;
    double writer_stall_seconds = 0.0;
    double wall_seconds = 0.0;

    /// Multi-line human-readable stage breakdown.
    std::string format() const;
};

/// Tracks how many units are resident in the pipeline and the peak,
/// and holds the reader back while a fixed window is full.
class InFlightGauge {
public:
    /// Blocks until fewer than `limit` units are resident. Returns false
    /// (without waiting further) once cancel() has been called.
    bool wait_below(std::size_t limit) {
        std::unique_lock lock(mutex_);
        room_.wait(lock, [&] { return cancelled_ || count_ < limit; });
        return !cancelled_;
    }
    void enter() {
        const std::lock_guard lock(mutex_);
        peak_ = std::max(peak_, ++count_);
    }
    void leave() {
        {
            const std::lock_guard lock(mutex_);
            --count_;
        }
        room_.notify_one();
    }
    /// Releases a waiting reader for good (a stage failed).
    void cancel() {
        {
            const std::lock_guard lock(mutex_);
            cancelled_ = true;
        }
        room_.notify_all();
    }
    double current() const {
        const std::lock_guard lock(mutex_);
        return static_cast<double>(count_);
    }
    std::size_t peak() const {
        const std::lock_guard lock(mutex_);
        return peak_;
    }

private:
    mutable std::mutex mutex_;
    std::condition_variable room_;
    std::size_t count_ = 0;
    std::size_t peak_ = 0;
    bool cancelled_ = false;
};

namespace detail {

/// No-ops (one relaxed load + branch) when no registry is installed.
void gauge_set(const char* name, double value);
void counter_add(const char* name, std::uint64_t delta);
void hist_observe(const char* name, double value);

} // namespace detail

} // namespace repute::pipeline
