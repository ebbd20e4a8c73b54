#pragma once
// Trace spans over *modeled* device time.
//
// The runtime models time (ocl::Device turns abstract ops into seconds
// on a per-device clock), so spans carry modeled intervals, not host
// wall time: a trace of a run is deterministic, host-independent, and
// its per-device span totals line up with MapResult::mapping_seconds.
//
// Span sources:
//   - ocl::CommandQueue records one span per kernel launch (the
//     device's queue track);
//   - core::HeterogeneousMapper (any number of index views, either
//     schedule) subdivides each completed launch into filtration →
//     locate → verify sub-spans (record_stage_spans), which nest under
//     the launch span in the Chrome export;
//   - core::ChunkScheduler records chunk spans and steal / retry /
//     quarantine instants on a separate scheduler track.
//
// Nothing records unless a recorder is installed: obs::trace() and
// obs::metrics() are relaxed atomic loads returning nullptr when
// tracing is off, so instrumented paths cost one branch.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/stage_counters.hpp"

namespace repute::obs {

/// Track (Chrome tid) carrying scheduler chunk spans and instants;
/// kernel launches use their queue id as the track.
inline constexpr std::uint64_t kSchedulerTrack = ~std::uint64_t{0};
/// Tracks carrying modeled host<->device DMA transfers ("dma-h2d" /
/// "dma-d2h" threads in the Chrome export). Transfers overlap kernel
/// launches, so like the scheduler track they are excluded from
/// device_busy_seconds().
inline constexpr std::uint64_t kXferWriteTrack = ~std::uint64_t{0} - 1;
inline constexpr std::uint64_t kXferReadTrack = ~std::uint64_t{0} - 2;

/// One closed interval on a device's modeled clock.
struct TraceSpan {
    std::string name;
    std::string device;            ///< pid grouping in the Chrome export
    std::uint64_t track = 0;       ///< queue id, or kSchedulerTrack
    double start_seconds = 0.0;    ///< modeled device-clock start
    double duration_seconds = 0.0;
    std::string stage;             ///< filtration/locate/verify sub-spans
    std::int64_t chunk = -1;       ///< first read index; -1 = not a chunk
    std::string detail;            ///< free-form attributes
};

/// A point event (steal, retry, quarantine).
struct TraceInstant {
    std::string name;
    std::string device;
    std::uint64_t track = kSchedulerTrack;
    double at_seconds = 0.0;
    std::string detail;
};

/// Thread-safe sink for spans/instants plus per-device stage totals
/// (fed by record_stage_spans, read by the summary exporter).
class TraceRecorder {
public:
    void record(TraceSpan span);
    void record(TraceInstant instant);
    void add_stage_counters(const std::string& device,
                            const StageCounters& counters);

    std::vector<TraceSpan> spans() const;
    std::vector<TraceInstant> instants() const;
    std::map<std::string, StageCounters> stage_totals() const;

    /// Modeled seconds each device spent in kernel launches: the sum of
    /// its queue-track launch spans (stage sub-spans excluded). For a
    /// single mapping run the fleet maximum equals mapping_seconds.
    std::map<std::string, double> device_busy_seconds() const;

private:
    mutable std::mutex mutex_;
    std::vector<TraceSpan> spans_;
    std::vector<TraceInstant> instants_;
    std::map<std::string, StageCounters> stage_totals_;
};

/// Installed recorder / registry, or nullptr when tracing is off.
TraceRecorder* trace() noexcept;
MetricsRegistry* metrics() noexcept;

/// Installs (or clears, with nullptr) the global recorder pair. Callers
/// normally use TraceSession instead.
void install(TraceRecorder* recorder, MetricsRegistry* metrics) noexcept;

/// RAII scope owning one recorder + registry and installing them
/// globally. One session at a time; nesting throws.
class TraceSession {
public:
    TraceSession();
    ~TraceSession();
    TraceSession(const TraceSession&) = delete;
    TraceSession& operator=(const TraceSession&) = delete;

    TraceRecorder& recorder() noexcept { return recorder_; }
    MetricsRegistry& registry() noexcept { return metrics_; }

private:
    TraceRecorder recorder_;
    MetricsRegistry metrics_;
};

/// Subdivides the compute interval of a completed launch — start
/// shifted past the dispatch overhead — into contiguous filtration →
/// locate → verify sub-spans proportional to the stage op counts, and
/// adds `counters` to the recorder's per-device stage totals. The split
/// is a deterministic function of the modeled interval and the counter
/// values, so traces stay reproducible.
void record_stage_spans(TraceRecorder& recorder, const std::string& device,
                        std::uint64_t track, double start_seconds,
                        double overhead_seconds, double duration_seconds,
                        const StageCounters& counters);

} // namespace repute::obs
