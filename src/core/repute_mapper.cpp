#include "core/repute_mapper.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>

#include "filter/heuristic_seeder.hpp"
#include "filter/memopt_seeder.hpp"
#include "index/rixm.hpp"
#include "obs/trace.hpp"

namespace repute::core {

ShardView whole_index_view(const genomics::Reference& reference,
                           const index::FmIndex& fm) {
    return {&reference, &fm, 0, 0, static_cast<std::uint32_t>(fm.size())};
}

std::vector<ShardView> shard_views_of(const index::ShardedIndex& index) {
    std::vector<ShardView> views;
    views.reserve(index.shards().size());
    for (const index::ShardedIndex::Shard& s : index.shards()) {
        views.push_back({&s.mapped.multi().concatenated(), &s.mapped.fm(),
                         s.text_offset, s.own_lo(), s.own_hi()});
    }
    return views;
}

void merge_sharded_read(
    std::span<const std::span<const ReadMapping>> per_shard,
    std::uint32_t max_locations, std::vector<ReadMapping>& out) {
    out.clear();
    // Rebuild the monolithic generation order: within one strand the
    // kernel accepts candidates in ascending position, and shard owned
    // ranges partition the text in base order — concatenating the
    // shards' per-strand sublists IS the monolithic accept stream. The
    // first-n cap then lands on exactly the same accept.
    bool capped = false;
    for (const genomics::Strand strand :
         {genomics::Strand::Forward, genomics::Strand::Reverse}) {
        for (const std::span<const ReadMapping> list : per_shard) {
            for (const ReadMapping& m : list) {
                if (m.strand != strand) continue;
                if (out.size() >= max_locations) {
                    capped = true;
                    break;
                }
                out.push_back(m);
            }
            if (capped) break;
        }
        if (capped) break;
    }
    std::sort(out.begin(), out.end(),
              [](const ReadMapping& a, const ReadMapping& b) {
                  return a.position != b.position
                             ? a.position < b.position
                             : a.strand < b.strand;
              });
    out.erase(std::unique(out.begin(), out.end(),
                          [](const ReadMapping& a, const ReadMapping& b) {
                              return a.position == b.position &&
                                     a.strand == b.strand;
                          }),
              out.end());
}

HeterogeneousMapper::HeterogeneousMapper(
    std::string display_name, std::vector<ShardView> views,
    std::unique_ptr<filter::Seeder> seeder,
    HeterogeneousMapperConfig config, std::vector<DeviceShare> shares)
    : name_(std::move(display_name)), views_(std::move(views)),
      seeder_(std::move(seeder)), config_(config) {
    if (seeder_ == nullptr) {
        throw std::invalid_argument(name_ + ": seeder must not be null");
    }
    if (views_.empty()) {
        throw std::invalid_argument(name_ + ": needs at least one view");
    }
    std::uint32_t cursor = 0;
    for (const ShardView& v : views_) {
        if (v.reference == nullptr || v.fm == nullptr ||
            v.own_hi < v.own_lo || v.own_hi > v.fm->size() ||
            v.base() != cursor) {
            throw std::invalid_argument(
                name_ + ": view owned ranges must tile the reference");
        }
        cursor = v.text_offset + v.own_hi;
    }
    // A shard reports only its owned range; one view keeps the default
    // (unbounded) report window of config_.kernel.
    for (std::size_t v = 0; views_.size() > 1 && v < views_.size(); ++v) {
        shard_kernels_.push_back(config_.kernel);
        shard_kernels_.back().report_lo = views_[v].own_lo;
        shard_kernels_.back().report_hi = views_[v].own_hi;
    }
    double total = 0.0;
    for (const DeviceShare& s : shares) {
        if (s.device != nullptr && s.fraction > 0.0) {
            total += s.fraction;
            shares_.push_back(s);
        }
    }
    if (shares_.empty() || total <= 0.0) {
        throw std::invalid_argument(
            name_ + ": needs at least one device with a positive share");
    }
    for (DeviceShare& s : shares_) s.fraction /= total;
}

std::uint64_t HeterogeneousMapper::max_image_bytes() const noexcept {
    std::uint64_t bytes = 0;
    for (const ShardView& v : views_) {
        bytes = std::max(bytes, v.image_bytes());
    }
    return bytes;
}

std::vector<std::size_t> HeterogeneousMapper::split_workload(
    std::size_t total) const {
    std::vector<std::size_t> counts(shares_.size(), 0);
    std::size_t assigned = 0;
    for (std::size_t i = 0; i + 1 < shares_.size(); ++i) {
        counts[i] = static_cast<std::size_t>(
            static_cast<double>(total) * shares_[i].fraction);
        assigned += counts[i];
    }
    counts.back() = total - assigned;
    return counts;
}

void HeterogeneousMapper::validate_overhangs(const genomics::ReadBatch& batch,
                                             std::uint32_t delta) const {
    if (views_.size() < 2) return; // one view owns the whole text
    // Longest actual read in the batch, not batch.read_length: bucketed
    // batches carry the length-class ceiling there, and a too-small
    // overhang only matters for reads that truly reach past it.
    std::uint64_t n = 0;
    for (const auto& read : batch.reads) {
        n = std::max<std::uint64_t>(n, read.length());
    }
    if (n == 0) n = batch.read_length;
    const ShardView& last = views_.back();
    const std::uint64_t total =
        std::uint64_t{last.text_offset} + last.own_hi;
    for (const ShardView& v : views_) {
        // A shard reports candidate diagonals p in its owned range; the
        // verification window spans [p - delta, p + n + delta), so the
        // shard text must cover delta bp left and n + delta bp right of
        // the owned range (clamped at the reference ends — the shard
        // sees the same text boundary the monolithic index does).
        const std::uint64_t left_need =
            std::min<std::uint64_t>(delta, v.base());
        const std::uint64_t own_end =
            std::uint64_t{v.text_offset} + v.own_hi;
        const std::uint64_t right_need =
            std::min<std::uint64_t>(n + delta, total - own_end);
        if (v.own_lo < left_need ||
            v.fm->size() - v.own_hi < right_need) {
            throw std::invalid_argument(
                name_ + ": shard overlap overhang is too small for " +
                std::to_string(n) + " bp reads at delta " +
                std::to_string(delta) +
                " (needs >= read_length + delta) — rebuild the index "
                "with a larger --overlap");
        }
    }
}

MapResult HeterogeneousMapper::map(const genomics::ReadBatch& batch,
                                   std::uint32_t delta) {
    validate_overhangs(batch, delta);
    const std::size_t reads = batch.size();
    MapResult result;
    result.per_read.resize(reads);
    if (batch.empty()) return result;

    // One view's kernels write straight into the result. Several write
    // per-(view, read) slots in local coordinates, merged below.
    const bool sharded = views_.size() > 1;
    std::vector<std::vector<ReadMapping>> slots(
        sharded ? views_.size() * reads : 0);
    Units units{sharded ? slots : result.per_read,
                std::vector<StageTotals>(views_.size() * reads)};
    if (config_.schedule == ScheduleMode::Dynamic) {
        map_dynamic(batch, delta, units, result);
    } else {
        map_static(batch, delta, units, result);
    }
    if (!sharded) return result;

    // Shift per-view outputs to global coordinates, then merge.
    for (std::size_t v = 0; v < views_.size(); ++v) {
        for (std::size_t r = 0; r < reads; ++r) {
            for (ReadMapping& m : slots[v * reads + r]) {
                m.position += views_[v].text_offset;
            }
        }
    }
    std::vector<std::span<const ReadMapping>> spans(views_.size());
    for (std::size_t r = 0; r < reads; ++r) {
        for (std::size_t v = 0; v < views_.size(); ++v) {
            spans[v] = slots[v * reads + r];
        }
        merge_sharded_read(spans, config_.kernel.max_locations_per_read,
                           result.per_read[r]);
    }
    if (auto* m = obs::metrics()) {
        m->gauge("shard.count").set(static_cast<double>(views_.size()));
        m->gauge("shard.peak_resident_bytes")
            .set(static_cast<double>(max_image_bytes()));
    }
    return result;
}

ocl::KernelLaunch HeterogeneousMapper::kernel_launch(
    const char* suffix, const genomics::ReadBatch& batch,
    std::uint32_t delta, Units& units, std::size_t first_unit,
    std::size_t count) const {
    const std::size_t v = first_unit / batch.size();
    const std::size_t read_base = first_unit - v * batch.size();
    const KernelConfig& kernel =
        views_.size() > 1 ? shard_kernels_[v] : config_.kernel;
    ocl::KernelLaunch launch;
    launch.name = name_ + suffix;
    launch.n_items = count;
    launch.scratch_bytes_per_item =
        kernel_scratch_bytes(*seeder_, batch.read_length, delta);
    launch.body = [this, &batch, &units, &view = views_[v], &kernel,
                   first_unit, read_base,
                   delta](std::size_t i) -> std::uint64_t {
        // Work items own disjoint unit slots, and a retried chunk
        // rewrites exactly the same ones (map_read_workitem clears its
        // output; its stage totals accumulate, so reset them first).
        const std::size_t unit = first_unit + i;
        units.stages[unit] = StageTotals{};
        // One scratch per pool thread: after the first read the kernel
        // runs allocation-free on that thread.
        thread_local KernelScratch kernel_scratch;
        return map_read_workitem(*view.fm, *view.reference, *seeder_,
                                 batch.reads[read_base + i], delta, kernel,
                                 units.out[unit], kernel_scratch,
                                 &units.stages[unit]);
    };
    return launch;
}

namespace {

constexpr std::size_t kNoView = std::numeric_limits<std::size_t>::max();

/// One chunk's stage -> kernel pair and the buffer set it uses.
struct ChunkEvents {
    std::size_t set = 0;
    ocl::Event write;
    ocl::Event kernel;
};

/// One device's side of a run: a resident image buffer holding one view
/// at a time, one or two (double-buffered) read/output buffer sets, the
/// events gating their reuse, and the run's transfer and view-staging
/// accounting. Only one thread touches an entry during a run (the
/// static enqueue loop, or the scheduler worker for that device).
///
/// Each chunk runs as a stage -> kernel -> drain event triple: the write
/// stages the chunk's reads host-to-device, the kernel hard-waits on it,
/// and the read drains the output buffer. With two buffer sets, chunk
/// k+1's write overlaps chunk k's kernel and the steady-state cost per
/// chunk drops from stage+compute+drain to max(stage, compute, drain).
/// Buffer-reuse dependencies ride the ordering-only reuse list: a failed
/// kernel never touched its buffers, so reusing them needs no wait and
/// no failure propagation.
struct DeviceSlot {
    explicit DeviceSlot(std::size_t views) : busy_by_view(views, 0.0) {}

    /// Allocates the image buffer, then returns the largest chunk whose
    /// read and output buffers fit next to it (quarter-of-RAM per
    /// buffer, remaining global memory in total). Oversized workloads
    /// run as several kernel invocations reusing the same buffers — the
    /// paper's fallback. Double buffering (modeled transfers only) costs
    /// a second buffer set; when even one read does not fit twice, it
    /// degrades to a single set rather than failing.
    std::size_t reserve(ocl::Context& context, ocl::Device& device,
                        std::uint64_t image_bytes, std::size_t n,
                        std::uint64_t out_bytes, bool double_buffer,
                        const std::string& who) {
        image = context.allocate(device, image_bytes, "index+reference");
        const auto& profile = device.profile();
        sets = (profile.transfer.modeled() && double_buffer) ? 2 : 1;
        const std::uint64_t quarter = profile.max_single_allocation();
        const std::uint64_t free_bytes =
            profile.global_memory_bytes - device.allocated_bytes();
        std::uint64_t per_set = free_bytes / (sets * (n + out_bytes));
        if (per_set == 0 && sets > 1) {
            sets = 1;
            per_set = free_bytes / (n + out_bytes);
        }
        const std::uint64_t max_chunk =
            std::min({quarter / out_bytes, quarter / n, per_set});
        if (max_chunk == 0) {
            throw ocl::OclError(
                ocl::OclStatus::MemObjectAllocFail,
                who + ": device " + device.name() +
                    " cannot hold the buffers of even one read");
        }
        return static_cast<std::size_t>(max_chunk);
    }

    void allocate_sets(ocl::Context& context, ocl::Device& device,
                       std::size_t chunk, std::size_t n,
                       std::uint64_t out_bytes) {
        for (std::size_t s = 0; s < sets; ++s) {
            reads.push_back(context.allocate(device, chunk * n, "reads"));
            outputs.push_back(
                context.allocate(device, chunk * out_bytes, "mappings"));
        }
        last_kernel.resize(sets);
        last_drain.resize(sets);
    }

    /// Makes view `v` resident. A swap waits (ordering only) on the
    /// newest kernel — on the in-order queue, the last possible user of
    /// the old image; the next kernel waits on the write.
    void stage_view(ocl::CommandQueue& queue,
                    const std::vector<ShardView>& views, std::size_t v) {
        if (view == v) return;
        std::vector<ocl::Event> reuse;
        if (newest_kernel.valid()) reuse.push_back(newest_kernel);
        const std::uint64_t bytes = views[v].image_bytes();
        image_writes.emplace_back(
            queue.enqueue_write(image, bytes, {}, std::move(reuse)), bytes);
        image_pending = true;
        restage_bytes += bytes;
        if (view != kNoView) ++restages;
        view = v;
    }

    ChunkEvents launch(ocl::CommandQueue& queue, std::uint64_t read_bytes,
                       ocl::KernelLaunch kernel) {
        ChunkEvents chunk;
        chunk.set = launches++ % sets;
        std::vector<ocl::Event> write_reuse;
        if (last_kernel[chunk.set].valid()) {
            write_reuse.push_back(last_kernel[chunk.set]);
        }
        chunk.write = queue.enqueue_write(reads[chunk.set], read_bytes, {},
                                          std::move(write_reuse));
        std::vector<ocl::Event> kernel_wait{chunk.write};
        if (image_pending) {
            kernel_wait.push_back(image_writes.back().first);
            image_pending = false;
        } else {
            ++residency_hits;
        }
        std::vector<ocl::Event> kernel_reuse;
        if (last_drain[chunk.set].valid()) {
            kernel_reuse.push_back(last_drain[chunk.set]);
        }
        chunk.kernel = queue.enqueue(std::move(kernel), std::move(kernel_wait),
                                     std::move(kernel_reuse));
        last_kernel[chunk.set] = newest_kernel = chunk.kernel;
        return chunk;
    }

    ocl::Event drain(ocl::CommandQueue& queue, const ChunkEvents& chunk,
                     std::uint64_t bytes) {
        return last_drain[chunk.set] =
                   queue.enqueue_read(outputs[chunk.set], bytes,
                                      {chunk.kernel});
    }

    void charge_write(const ocl::LaunchStats& stats, std::uint64_t bytes) {
        bytes_staged += bytes;
        transfer_seconds += stats.seconds;
    }
    void charge_kernel(const ocl::LaunchStats& stats, std::size_t v) {
        last_kernel_end =
            std::max(last_kernel_end, stats.start_seconds + stats.seconds);
        busy_by_view[v] += stats.seconds;
    }
    void charge_drain(const ocl::LaunchStats& stats, std::uint64_t bytes) {
        bytes_drained += bytes;
        transfer_seconds += stats.seconds;
        last_drain_end =
            std::max(last_drain_end, stats.start_seconds + stats.seconds);
    }
    /// Charges every image staging of the run, restages included.
    void charge_images() {
        for (auto& [event, bytes] : image_writes) {
            charge_write(event.wait(), bytes);
        }
    }
    /// The last output drain may outlive the last kernel; that tail
    /// extends the device's elapsed time like any other stall.
    double drain_tail() const {
        return std::max(0.0, last_drain_end - last_kernel_end);
    }
    void fill_transfers(DeviceRun& run) const {
        run.bytes_staged = bytes_staged;
        run.bytes_drained = bytes_drained;
        run.transfer_seconds = transfer_seconds;
    }

    ocl::Buffer image;
    std::vector<ocl::Buffer> reads;      ///< one per buffer set
    std::vector<ocl::Buffer> outputs;    ///< one per buffer set
    std::vector<ocl::Event> last_kernel; ///< per set
    std::vector<ocl::Event> last_drain;  ///< per set
    ocl::Event newest_kernel;            ///< tail of the kernel chain
    std::vector<std::pair<ocl::Event, std::uint64_t>> image_writes;
    std::size_t sets = 1;
    std::size_t view = kNoView; ///< resident view
    bool image_pending = false; ///< next kernel must wait on the image
    std::size_t launches = 0;

    std::uint64_t bytes_staged = 0;
    std::uint64_t bytes_drained = 0;
    double transfer_seconds = 0.0;
    double last_kernel_end = 0.0;
    double last_drain_end = 0.0;
    std::uint64_t residency_hits = 0; ///< launches with the view resident
    std::uint64_t restages = 0;       ///< image swaps after the first
    std::uint64_t restage_bytes = 0;  ///< image bytes staged
    std::vector<double> busy_by_view; ///< kernel seconds per view
};

std::vector<DeviceSlot> device_slots(std::size_t devices,
                                     std::size_t views) {
    std::vector<DeviceSlot> slots;
    slots.reserve(devices);
    for (std::size_t d = 0; d < devices; ++d) slots.emplace_back(views);
    return slots;
}

obs::StageCounters sum_stages(const std::vector<StageTotals>& stages,
                              std::size_t begin, std::size_t end) {
    obs::StageCounters sum;
    for (std::size_t u = begin; u < end; ++u) sum += stages[u];
    return sum;
}

/// Publishes the run's view-staging tallies (sharded runs only: one view
/// has nothing to restage) and, once any modeled transfer time was
/// spent, the transfer/compute overlap ratio (unmodeled runs leave the
/// gauge untouched so legacy metric dumps are unchanged).
void publish_run_metrics(const std::vector<DeviceSlot>& work, bool sharded,
                         const MapResult& result) {
    auto* m = obs::metrics();
    if (m == nullptr) return;
    for (std::size_t d = 0; sharded && d < work.size(); ++d) {
        const DeviceSlot& slot = work[d];
        m->counter("shard.residency_hits").add(slot.residency_hits);
        m->counter("shard.restages").add(slot.restages);
        m->counter("shard.restage_bytes").add(slot.restage_bytes);
        for (const double seconds : slot.busy_by_view) {
            if (seconds > 0.0) {
                m->histogram("shard.busy_seconds").observe(seconds);
            }
        }
    }
    double transfer = 0.0;
    for (const DeviceRun& run : result.device_runs) {
        transfer += run.transfer_seconds;
    }
    if (transfer > 0.0) {
        m->gauge("xfer.overlap_ratio").set(result.transfer_overlap_ratio());
    }
}

/// Output slot bytes per read: one packed (position, edit, strand) word
/// per first-n location.
std::uint64_t output_bytes_per_read(const KernelConfig& kernel) {
    return static_cast<std::uint64_t>(kernel.max_locations_per_read) * 8;
}

} // namespace

void HeterogeneousMapper::map_static(const genomics::ReadBatch& batch,
                                     std::uint32_t delta, Units& units,
                                     MapResult& result) {
    const std::size_t reads = batch.size();
    const std::size_t n = batch.read_length;
    const std::uint64_t out_bytes = output_bytes_per_read(config_.kernel);

    std::vector<ocl::Device*> devices;
    devices.reserve(shares_.size());
    for (const DeviceShare& s : shares_) devices.push_back(s.device);
    ocl::Context context(devices);

    const auto counts = split_workload(reads);

    // Every device walks the views in order over its own read slice,
    // enqueueing everything up front; the slots and events stay alive
    // until every event completed.
    struct Launch {
        std::size_t view, lo, hi; ///< view and read range
        ChunkEvents chunk;
        ocl::Event drain;
    };
    std::vector<DeviceSlot> work =
        device_slots(shares_.size(), views_.size());
    std::vector<std::vector<Launch>> launches(shares_.size());
    for (std::size_t d = 0, base = 0; d < shares_.size();
         base += counts[d], ++d) {
        if (counts[d] == 0) continue;
        ocl::Device& device = *shares_[d].device;
        DeviceSlot& slot = work[d];
        const std::size_t max_chunk = std::min(
            counts[d], slot.reserve(context, device, max_image_bytes(), n,
                                    out_bytes, config_.double_buffer, name_));
        if (max_chunk < counts[d]) {
            if (auto* m = obs::metrics()) {
                m->counter("mapper.buffer_ceiling_splits")
                    .add((counts[d] + max_chunk - 1) / max_chunk - 1);
            }
        }
        slot.allocate_sets(context, device, max_chunk, n, out_bytes);

        ocl::CommandQueue queue(device);
        const std::size_t end = base + counts[d];
        for (std::size_t v = 0; v < views_.size(); ++v) {
            for (std::size_t lo = base; lo < end; lo += max_chunk) {
                const std::size_t hi = std::min(end, lo + max_chunk);
                slot.stage_view(queue, views_, v);
                Launch& l = launches[d].emplace_back();
                l.view = v;
                l.lo = lo;
                l.hi = hi;
                l.chunk = slot.launch(queue, (hi - lo) * n,
                                      kernel_launch("::map", batch, delta,
                                                    units, v * reads + lo,
                                                    hi - lo));
                l.drain = slot.drain(queue, l.chunk, (hi - lo) * out_bytes);
            }
        }
    }

    // Task-parallel completion: devices ran concurrently; the mapping
    // time is the slowest device's elapsed total — kernel execution
    // plus any staging stalls plus the final drain tail. Everything is
    // computed from the run's own events, so concurrent mappers sharing
    // a device (the serve pool) cannot skew each other's numbers.
    double slowest = 0.0;
    for (std::size_t d = 0; d < shares_.size(); ++d) {
        if (counts[d] == 0) continue;
        ocl::Device& device = *shares_[d].device;
        DeviceSlot& slot = work[d];
        DeviceRun run;
        run.device_name = device.name();
        run.reads = counts[d];
        run.power_scale = config_.power_scale;

        slot.charge_images();
        double exec_seconds = 0.0;
        double wait_seconds = 0.0;
        for (Launch& l : launches[d]) {
            slot.charge_write(l.chunk.write.wait(), (l.hi - l.lo) * n);

            const ocl::LaunchStats& stats = l.chunk.kernel.wait();
            exec_seconds += stats.seconds;
            wait_seconds += stats.queue_wait_seconds;
            slot.charge_kernel(stats, l.view);
            run.stats.items += stats.items;
            run.stats.total_ops += stats.total_ops;
            run.stats.scratch_bytes_per_item = stats.scratch_bytes_per_item;
            run.stats.utilization = stats.utilization;

            slot.charge_drain(l.drain.wait(), (l.hi - l.lo) * out_bytes);

            const obs::StageCounters launch_stage = sum_stages(
                units.stages, l.view * reads + l.lo, l.view * reads + l.hi);
            run.stage += launch_stage;
            if (auto* recorder = obs::trace()) {
                obs::record_stage_spans(
                    *recorder, run.device_name, /*track=*/0,
                    stats.start_seconds,
                    device.profile().dispatch_overhead_seconds,
                    stats.seconds, launch_stage);
            }
        }
        const double drain_tail = slot.drain_tail();
        run.stats.seconds = exec_seconds;
        run.stall_seconds = wait_seconds + drain_tail;
        slot.fill_transfers(run);
        slowest = std::max(slowest,
                           exec_seconds + wait_seconds + drain_tail);
        result.device_runs.push_back(std::move(run));
    }
    result.mapping_seconds = slowest;
    publish_run_metrics(work, views_.size() > 1, result);
}

void HeterogeneousMapper::map_dynamic(const genomics::ReadBatch& batch,
                                      std::uint32_t delta, Units& units,
                                      MapResult& result) {
    const std::size_t reads = batch.size();
    const std::size_t total_units = views_.size() * reads;
    const std::size_t n = batch.read_length;
    const std::uint64_t scratch = kernel_scratch_bytes(*seeder_, n, delta);
    const std::uint64_t out_bytes = output_bytes_per_read(config_.kernel);

    // Fleet = shares whose device can run the kernel at all; the rest
    // are dropped up front (the scheduler would only quarantine them).
    std::vector<ocl::Device*> devices;
    std::vector<double> warm_start;
    for (const DeviceShare& s : shares_) {
        if (scratch > s.device->profile().private_memory_per_unit) continue;
        devices.push_back(s.device);
        warm_start.push_back(s.fraction);
    }
    if (devices.empty()) {
        throw ocl::OclError(ocl::OclStatus::OutOfResources,
                            name_ + ": no device can run this kernel");
    }

    ocl::Context context(devices);

    // Resident images plus the chunk ceiling: any chunk must fit the
    // buffer budget of EVERY device, because a failed chunk may be
    // requeued anywhere in the fleet (the paper's multi-run fallback
    // logic, applied fleet-wide).
    std::vector<DeviceSlot> work =
        device_slots(devices.size(), views_.size());
    std::size_t fleet_chunk_cap = std::numeric_limits<std::size_t>::max();
    for (std::size_t d = 0; d < devices.size(); ++d) {
        fleet_chunk_cap = std::min(
            fleet_chunk_cap,
            work[d].reserve(context, *devices[d], max_image_bytes(), n,
                            out_bytes, config_.double_buffer, name_));
    }

    SchedulerConfig scheduler_config = config_.scheduler;
    scheduler_config.max_chunk_items =
        scheduler_config.max_chunk_items == 0
            ? fleet_chunk_cap
            : std::min(scheduler_config.max_chunk_items, fleet_chunk_cap);

    if (auto* m = obs::metrics()) {
        m->gauge("mapper.fleet_chunk_cap")
            .set(static_cast<double>(fleet_chunk_cap));
        if (fleet_chunk_cap < total_units) {
            m->counter("mapper.buffer_ceiling_splits").add();
        }
    }

    ChunkScheduler scheduler(devices, warm_start, scheduler_config);

    // Buffer sets are sized to the largest planned chunk and reused
    // across launches. Each device's first image is staged before the
    // run — the view its first planned chunk needs.
    std::size_t largest_chunk = 1;
    std::vector<std::size_t> first_view(devices.size(), kNoView);
    for (const ChunkRecord& c : scheduler.plan(total_units)) {
        largest_chunk = std::max(largest_chunk, c.count);
        if (first_view[c.owner] == kNoView) {
            first_view[c.owner] = c.begin / reads;
        }
    }
    // One persistent in-order queue per device: chunk launches on a
    // device chain on each other, and trace spans land on one track.
    // The scheduler runs one worker per device and always hands device
    // d's chunks to worker d, so work[d] is touched by one thread.
    std::map<ocl::Device*, std::size_t> device_index;
    std::map<ocl::Device*, ocl::CommandQueue> queues;
    for (std::size_t d = 0; d < devices.size(); ++d) {
        work[d].allocate_sets(context, *devices[d], largest_chunk, n,
                              out_bytes);
        device_index[devices[d]] = d;
        ocl::CommandQueue& queue =
            queues.try_emplace(devices[d], *devices[d]).first->second;
        work[d].stage_view(queue, views_,
                           first_view[d] == kNoView ? 0 : first_view[d]);
    }

    ScheduleStats schedule = scheduler.run(
        total_units,
        [&](ocl::Device& device, std::size_t begin, std::size_t count) {
            DeviceSlot& slot = work[device_index.at(&device)];
            ocl::CommandQueue& queue = queues.at(&device);

            // A chunk may straddle view boundaries in the flattened unit
            // space; run it as one segment per view, restaging the
            // resident image only on view switches.
            ocl::LaunchStats agg;
            const std::size_t end = begin + count;
            for (std::size_t flat = begin; flat < end;) {
                const std::size_t v = flat / reads;
                const std::size_t seg_end = std::min(end, (v + 1) * reads);
                const std::size_t seg = seg_end - flat;
                slot.stage_view(queue, views_, v);
                ChunkEvents chunk = slot.launch(
                    queue, seg * n,
                    kernel_launch("::map-chunk", batch, delta, units, flat,
                                  seg));

                // The write cannot fault; account it before the kernel
                // wait so a retried chunk still shows the staging it
                // burned.
                slot.charge_write(chunk.write.wait(), seg * n);
                const ocl::LaunchStats stats =
                    chunk.kernel.wait(); // throws on fault
                slot.charge_kernel(stats, v);
                slot.charge_drain(
                    slot.drain(queue, chunk, seg * out_bytes).wait(),
                    seg * out_bytes);

                if (auto* recorder = obs::trace()) {
                    obs::record_stage_spans(
                        *recorder, device.name(), /*track=*/0,
                        stats.start_seconds,
                        device.profile().dispatch_overhead_seconds,
                        stats.seconds,
                        sum_stages(units.stages, flat, seg_end));
                }
                if (flat == begin) {
                    agg = stats;
                } else {
                    agg.items += stats.items;
                    agg.total_ops += stats.total_ops;
                    agg.seconds += stats.seconds;
                    agg.queue_wait_seconds += stats.queue_wait_seconds;
                }
                flat = seg_end;
            }
            return agg;
        });

    for (std::size_t d = 0; d < devices.size(); ++d) {
        DeviceSlot& slot = work[d];
        DeviceScheduleStats& pd = schedule.per_device[d];
        slot.charge_images();
        pd.stall_seconds += slot.drain_tail();

        DeviceRun run;
        run.device_name = pd.device_name;
        run.reads = pd.items;
        run.power_scale = config_.power_scale;
        run.stats = pd.stats;
        run.stall_seconds = pd.stall_seconds;
        slot.fill_transfers(run);
        for (const ChunkRecord& c : schedule.records) {
            if (c.device != d) continue;
            run.stage += sum_stages(units.stages, c.begin, c.begin + c.count);
        }
        result.device_runs.push_back(std::move(run));
    }
    result.mapping_seconds = schedule.makespan_seconds();
    result.schedule = std::move(schedule);
    publish_run_metrics(work, views_.size() > 1, result);
}

std::unique_ptr<HeterogeneousMapper> make_repute(
    std::vector<ShardView> views, std::vector<DeviceShare> shares,
    HeterogeneousMapperConfig config) {
    return std::make_unique<HeterogeneousMapper>(
        "REPUTE", std::move(views),
        std::make_unique<filter::MemoryOptimizedSeeder>(
            config.kernel.s_min),
        config, std::move(shares));
}

std::unique_ptr<HeterogeneousMapper> make_coral(
    std::vector<ShardView> views, std::vector<DeviceShare> shares,
    HeterogeneousMapperConfig config) {
    config.kernel.collapse_candidates = false; // streaming verification
    return std::make_unique<HeterogeneousMapper>(
        "CORAL", std::move(views),
        std::make_unique<filter::HeuristicSeeder>(config.kernel.s_min),
        config, std::move(shares));
}

std::vector<DeviceShare> balanced_shares(
    const std::vector<ocl::Device*>& devices,
    std::uint64_t scratch_bytes_per_item) {
    std::vector<DeviceShare> shares;
    shares.reserve(devices.size());
    for (ocl::Device* device : devices) {
        if (device == nullptr) continue;
        const auto& profile = device->profile();
        double fraction = 0.0;
        if (scratch_bytes_per_item <= profile.private_memory_per_unit) {
            fraction = profile.ops_per_unit_per_second *
                       profile.compute_units *
                       device->utilization_for_scratch(
                           scratch_bytes_per_item);
        }
        shares.push_back({device, fraction});
    }
    return shares;
}

} // namespace repute::core
