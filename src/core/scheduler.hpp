#pragma once
// Dynamic chunked work-stealing scheduler for multi-device dispatch.
//
// The paper's host program (HeterogeneousMapper's static split, its
// default) commits each device to one contiguous slice of the read set
// up front; Fig. 3 shows how a mispredicted split turns straight into
// tail latency, and a device failing mid-batch loses its slice outright.
// This scheduler instead cuts the batch into chunks: each device's
// deque is seeded in proportion to a warm-start share (balanced_shares
// or tune_shares — the probe becomes a warm start, not a commitment),
// and a device that drains its own deque steals queued chunks from the
// most loaded peer, so fast devices absorb a slow device's backlog. A
// thief takes at most its own grain (the balance-chunk size planned for
// it), splitting the remainder back onto the victim's queue — a slow
// device stealing from a fast one cannot become the tail.
//
// Scheduling runs in *modeled* device time, not host time: because
// every simulated device executes on the same host cores, pull order is
// gated on the devices' modeled clocks (a device may take a chunk only
// while its clock is the fleet minimum), which reproduces the dispatch
// order real hardware of those speeds would exhibit. Host threads still
// overlap whenever clocks are close.
//
// Fault handling: a launch that throws OclError charges the dispatch
// overhead, and the chunk is requeued on the least-loaded surviving
// device with bounded retries. A device that fails several launches in
// a row is quarantined (its queued chunks are redistributed). When
// every device is quarantined — or a chunk exhausts its retries — the
// run fails with a clean OclError. Chunks are atomic: a failed launch
// wrote nothing, so re-running it elsewhere is always safe as long as
// work items own disjoint output slots.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ocl/device.hpp"

namespace repute::core {

struct SchedulerConfig {
    /// Fixed chunk size override; 0 = plan from the warm-start shares:
    /// each device leads with one chunk of `warm_start_commit` of its
    /// predicted share, and the rest is cut into ~`balance_chunks_per_
    /// device` smaller chunks that stealing can rebalance.
    std::size_t chunk_items = 0;
    double warm_start_commit = 0.5;
    std::size_t balance_chunks_per_device = 6;
    /// Ceiling on any chunk (callers derive it from the smallest device
    /// buffer budget so every chunk can run anywhere); 0 = unbounded.
    std::size_t max_chunk_items = 0;
    /// A chunk is requeued at most this many times before the run is
    /// declared failed.
    std::uint32_t max_chunk_retries = 3;
    /// Consecutive launch failures after which a device is quarantined.
    std::uint32_t quarantine_after = 2;
};

/// One completed chunk (reported in completion order, which depends on
/// the schedule; the union of [begin, begin+count) ranges is exactly
/// [0, total_items) with no overlap).
struct ChunkRecord {
    std::size_t begin = 0;
    std::size_t count = 0;
    std::size_t device = 0;   ///< fleet index of the device that ran it
    std::size_t owner = 0;    ///< warm-start owner it was planned for
    std::uint32_t retries = 0;
    bool stolen = false;      ///< device != owner
};

struct DeviceScheduleStats {
    std::string device_name;
    std::size_t chunks = 0;   ///< chunks completed by this device
    std::size_t items = 0;
    std::size_t steals = 0;   ///< chunks it took from a peer's deque
    std::size_t failures = 0; ///< faulted launches observed on it
    bool quarantined = false;
    /// Modeled seconds the device was occupied (successful launches
    /// plus the dispatch overhead of failed ones). Pure execution time:
    /// queue-wait stalls live in stall_seconds, so busy / elapsed can no
    /// longer exceed 100%.
    double busy_seconds = 0.0;
    /// Modeled seconds launches sat idle waiting for wait-list
    /// dependencies (buffer staging/drain), plus the post-run drain
    /// tail the mapper adds. Elapsed device time = busy + stall.
    double stall_seconds = 0.0;
    ocl::LaunchStats stats;   ///< aggregate over its completed launches
};

struct ScheduleStats {
    std::size_t chunks = 0;
    std::size_t steals = 0;
    std::size_t retries = 0;  ///< total requeues after failures
    std::vector<DeviceScheduleStats> per_device;
    std::vector<ChunkRecord> records;

    /// Modeled wall time: devices drain in parallel, so the schedule
    /// finishes when the busiest device does (execution plus stalls).
    double makespan_seconds() const noexcept;
};

class ChunkScheduler {
public:
    /// Runs one chunk on one device; returns its modeled LaunchStats
    /// and throws OclError on a (possibly injected) launch failure.
    /// Called concurrently for different devices; a retried chunk must
    /// rewrite exactly the same outputs (disjoint per-item slots).
    using ChunkRunner = std::function<ocl::LaunchStats(
        ocl::Device&, std::size_t begin, std::size_t count)>;

    /// `devices` must be non-empty, non-null and outlive run().
    /// `warm_start` weights the initial deque assignment (normalized;
    /// empty = equal shares; size must otherwise match `devices`).
    ChunkScheduler(std::vector<ocl::Device*> devices,
                   std::vector<double> warm_start,
                   SchedulerConfig config = {});

    /// Blocking; spawns one host worker per device and completes every
    /// item of [0, total_items). Throws OclError when chunks remain
    /// after all devices were quarantined or a chunk ran out of
    /// retries; rethrows non-OclError runner exceptions verbatim.
    ScheduleStats run(std::size_t total_items, const ChunkRunner& runner);

    /// The chunk list run() will start from (for tests and for callers
    /// sizing per-chunk buffers): planned sizes honour chunk_items /
    /// warm_start_commit / max_chunk_items.
    std::vector<ChunkRecord> plan(std::size_t total_items) const;

private:
    std::vector<ocl::Device*> devices_;
    std::vector<double> warm_start_;
    SchedulerConfig config_;
};

} // namespace repute::core
